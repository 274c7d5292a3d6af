//! Per-query capture ([`QueryRecorder`]) and the versioned JSON report.
//!
//! The report format is versioned: the top-level object carries
//! `"schema": "skyobs-report/1"` and consumers must check it. Field
//! order is fixed (phases in pipeline order, metrics in name order), so
//! two runs recording the same events serialize byte-identically — the
//! golden-file test under `tests/golden/` pins the exact bytes.

use std::fmt::Write as _;
use std::time::Duration;

use crate::metrics::{Histogram, Registry};
use crate::recorder::{Phase, Recorder};

/// Version tag of the report format.
pub const REPORT_SCHEMA: &str = "skyobs-report/1";

/// A [`Recorder`] capturing one query into a [`QueryReport`].
#[derive(Clone, Debug, Default)]
pub struct QueryRecorder {
    registry: Registry,
    phase_ns: [u64; Phase::COUNT],
}

impl QueryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        QueryRecorder::default()
    }

    /// Finishes recording and returns the captured report.
    pub fn into_report(self) -> QueryReport {
        QueryReport { registry: self.registry, phase_ns: self.phase_ns }
    }
}

impl Recorder for QueryRecorder {
    fn detailed(&self) -> bool {
        true
    }

    fn record_span(&mut self, phase: Phase, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.phase_ns[phase.index()] = self.phase_ns[phase.index()].saturating_add(ns);
    }

    fn add_counter(&mut self, name: &'static str, delta: u64) {
        self.registry.add_counter(name, delta);
    }

    fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.registry.set_gauge(name, value);
    }

    fn observe_value(&mut self, name: &'static str, value: f64) {
        self.registry.observe(name, value);
    }
}

/// Everything one query reported: per-phase wall time plus the metric
/// registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryReport {
    registry: Registry,
    phase_ns: [u64; Phase::COUNT],
}

impl QueryReport {
    /// Wall nanoseconds recorded for one phase.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.index()]
    }

    /// Total wall nanoseconds across all phases.
    pub fn total_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// A counter's value (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.registry.counter(name)
    }

    /// A gauge's value, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.registry.gauge(name)
    }

    /// The underlying metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Folds another report into this one (phase times and counters
    /// add, histograms merge) — the bench aggregation primitive.
    pub fn merge(&mut self, other: &QueryReport) {
        for (a, b) in self.phase_ns.iter_mut().zip(other.phase_ns.iter()) {
            *a = a.saturating_add(*b);
        }
        self.registry.merge(&other.registry);
    }

    /// Renders the versioned JSON object (stable field order, no deps).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(REPORT_SCHEMA));
        out.push_str("  \"phases_ns\": {\n");
        for (i, phase) in Phase::ALL.iter().enumerate() {
            let _ = write!(out, "    {}: {}", json_str(phase.label()), self.phase_ns[i]);
            out.push_str(if i + 1 < Phase::COUNT { ",\n" } else { "\n" });
        }
        out.push_str("  },\n");

        render_map(&mut out, "counters", self.registry.counters(), |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str(",\n");
        render_map(&mut out, "gauges", self.registry.gauges(), |out, v| {
            out.push_str(&json_f64(v));
        });
        out.push_str(",\n");
        render_map(&mut out, "histograms", self.registry.histograms(), |out, h| {
            render_histogram(out, h);
        });
        out.push_str("\n}\n");
        out
    }
}

/// Renders one `"name": { "k": v, ... }` sub-object with its entries on
/// separate lines, or `"name": {}` when empty.
fn render_map<V>(
    out: &mut String,
    name: &str,
    entries: impl Iterator<Item = (&'static str, V)>,
    mut render: impl FnMut(&mut String, V),
) {
    let entries: Vec<(&'static str, V)> = entries.collect();
    if entries.is_empty() {
        let _ = write!(out, "  \"{name}\": {{}}");
        return;
    }
    let _ = writeln!(out, "  \"{name}\": {{");
    let n = entries.len();
    for (i, (key, value)) in entries.into_iter().enumerate() {
        let _ = write!(out, "    {}: ", json_str(key));
        render(out, value);
        out.push_str(if i + 1 < n { ",\n" } else { "\n" });
    }
    out.push_str("  }");
}

fn render_histogram(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p99\": {}}}",
        h.count(),
        json_f64(h.sum()),
        json_f64(h.min()),
        json_f64(h.max()),
        json_f64(h.quantile(0.5)),
        json_f64(h.quantile(0.99)),
    );
}

/// JSON number rendering for `f64`: Rust's shortest round-trip `Display`
/// (deterministic), with non-finite values mapped to `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> QueryReport {
        let mut rec = QueryRecorder::new();
        rec.record_span(Phase::CacheLookup, Duration::from_nanos(100));
        rec.record_span(Phase::Fetch, Duration::from_nanos(4_000));
        rec.record_span(Phase::Fetch, Duration::from_nanos(1_000)); // accumulates
        rec.add_counter("cache.hits", 1);
        rec.add_counter("fetch.points_read", 42);
        rec.set_gauge("alloc.per_query", 4.0);
        rec.observe_value("fetch.latency_ns", 2_500.0);
        rec.into_report()
    }

    #[test]
    fn recorder_captures_spans_and_metrics() {
        let r = sample_report();
        assert_eq!(r.phase_ns(Phase::CacheLookup), 100);
        assert_eq!(r.phase_ns(Phase::Fetch), 5_000);
        assert_eq!(r.phase_ns(Phase::Skyline), 0);
        assert_eq!(r.total_ns(), 5_100);
        assert_eq!(r.counter("cache.hits"), 1);
        assert_eq!(r.counter("fetch.points_read"), 42);
        assert_eq!(r.gauge("alloc.per_query"), Some(4.0));
        assert_eq!(r.registry().histogram("fetch.latency_ns").unwrap().count(), 1);
    }

    #[test]
    fn merge_accumulates_reports() {
        let mut a = sample_report();
        let b = sample_report();
        a.merge(&b);
        assert_eq!(a.phase_ns(Phase::Fetch), 10_000);
        assert_eq!(a.counter("fetch.points_read"), 84);
        assert_eq!(a.registry().histogram("fetch.latency_ns").unwrap().count(), 2);
    }

    #[test]
    fn json_has_schema_and_all_phases() {
        let json = sample_report().to_json();
        assert!(json.starts_with("{\n  \"schema\": \"skyobs-report/1\",\n"));
        for phase in Phase::ALL {
            assert!(json.contains(&format!("\"{}\"", phase.label())), "missing {phase:?}");
        }
        assert!(json.contains("\"cache.hits\": 1"));
        assert!(json.contains("\"alloc.per_query\": 4"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn json_of_equal_reports_is_byte_identical() {
        assert_eq!(sample_report().to_json(), sample_report().to_json());
    }

    #[test]
    fn empty_report_serializes_empty_maps() {
        let json = QueryRecorder::new().into_report().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"gauges\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.25), "1.25");
        assert_eq!(json_f64(123.0), "123");
    }
}
