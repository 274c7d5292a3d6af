//! What the pipeline records time against: the query [`Phase`]s.

/// The six spans of one constrained-skyline query, in pipeline order.
///
/// `CacheLookup`, `CaseAnalysis` and `MprCompute` together are the
/// paper's *processing* stage (Figure 10); `Fetch` is its *fetching*
/// stage; `Merge` and `Skyline` together are its *skyline* stage. The
/// finer split is what Figure 10 could not show: where processing time
/// actually goes inside CBCS.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// The cache lookup: the exact probe, then the R\*-tree window walk
    /// over constraint boxes, filtered by MBR.
    CacheLookup,
    /// Strategy selection and overlap-case classification.
    CaseAnalysis,
    /// (Approximate) Missing Points Region construction.
    MprCompute,
    /// Reading the plan's regions from storage. The pipeline measures
    /// its CPU time and is charged the cost model's simulated I/O
    /// latency separately; a report shows the sum.
    Fetch,
    /// Merging the retained cached points that no read region holds with
    /// the fetched rows.
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
}
