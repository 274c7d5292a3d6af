//! The observation interface: query phases and the [`Recorder`] trait.

use std::time::Duration;

/// The six spans of one constrained-skyline query, in pipeline order.
///
/// `CacheLookup`, `CaseAnalysis` and `MprCompute` together are the
/// paper's *processing* stage (Figure 10); `Fetch` is its *fetching*
/// stage; `Merge` and `Skyline` together are its *skyline* stage. The
/// finer split is what Figure 10 could not show: where processing time
/// actually goes inside CBCS.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// R\*-tree cache search plus the bounding-box short-circuit.
    CacheLookup,
    /// Strategy selection and overlap-case classification.
    CaseAnalysis,
    /// (Approximate) Missing Points Region construction.
    MprCompute,
    /// Reading the plan's regions from storage (measured wall time plus
    /// the cost model's simulated I/O latency).
    Fetch,
    /// Merging retained cached points with fetched rows (dedup).
    Merge,
    /// The in-memory skyline computation.
    Skyline,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 6;

    /// All phases in pipeline order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::CacheLookup,
        Phase::CaseAnalysis,
        Phase::MprCompute,
        Phase::Fetch,
        Phase::Merge,
        Phase::Skyline,
    ];

    /// Stable kebab-case label (used as the JSON key).
    pub fn label(self) -> &'static str {
        match self {
            Phase::CacheLookup => "cache-lookup",
            Phase::CaseAnalysis => "case-analysis",
            Phase::MprCompute => "mpr-compute",
            Phase::Fetch => "fetch",
            Phase::Merge => "merge",
            Phase::Skyline => "skyline",
        }
    }

    /// Dense index into per-phase arrays (pipeline order).
    pub fn index(self) -> usize {
        match self {
            Phase::CacheLookup => 0,
            Phase::CaseAnalysis => 1,
            Phase::MprCompute => 2,
            Phase::Fetch => 3,
            Phase::Merge => 4,
            Phase::Skyline => 5,
        }
    }
}

/// Observation sink for the query pipeline.
///
/// Every method defaults to a no-op, so instrumented code runs unchanged
/// against a [`NoopRecorder`] and the compiler sees straight-line code
/// with one virtual call per event. Implementations must be
/// **observation-only**: nothing an executor computes may depend on what
/// a recorder does with the events.
pub trait Recorder {
    /// Whether this recorder wants *derived* metrics that cost extra
    /// work to produce (e.g. distinct heap pages touched by a fetch).
    /// Producers must guard such computations behind this flag so the
    /// disabled path stays free.
    fn detailed(&self) -> bool {
        false
    }

    /// Records the wall time of one phase. Phases may be recorded more
    /// than once per query (times accumulate).
    fn record_span(&mut self, phase: Phase, elapsed: Duration) {
        let _ = (phase, elapsed);
    }

    /// Adds to a monotone counter (see [`crate::names`]).
    fn add_counter(&mut self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets a point-in-time gauge value.
    fn set_gauge(&mut self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Adds one sample to a distribution (histogram).
    fn observe_value(&mut self, name: &'static str, value: f64) {
        let _ = (name, value);
    }
}

/// The zero-cost recorder: every event is dropped.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_and_indexes_are_dense_and_ordered() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            ["cache-lookup", "case-analysis", "mpr-compute", "fetch", "merge", "skyline"]
        );
    }

    #[test]
    fn noop_recorder_accepts_everything() {
        let mut r = NoopRecorder;
        assert!(!r.detailed());
        r.record_span(Phase::Fetch, Duration::from_nanos(5));
        r.add_counter("cache.hits", 1);
        r.set_gauge("alloc.per_query", 4.0);
        r.observe_value("fetch.latency_ns", 123.0);
    }
}
