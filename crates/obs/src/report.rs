//! The per-query [`QueryReport`] and its versioned JSON rendering.
//!
//! The report format is versioned: the top-level object carries
//! `"schema": "skyobs-report/6"` and consumers must check it. Field
//! order is fixed (phases in pipeline order, metrics in name order), so
//! two equal reports serialize byte-identically — the golden-file test
//! under `tests/golden/` pins the exact bytes.

use std::fmt::Write as _;

use crate::metrics::Registry;
use crate::recorder::Phase;

/// Version tag of the report format.
pub const REPORT_SCHEMA: &str = "skyobs-report/6";

/// Everything one query reported: per-phase time plus its named counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryReport {
    phase_ns: [u64; Phase::COUNT],
    metrics: Registry,
}

impl QueryReport {
    /// A report of the given phase times (indexed by [`Phase::index`])
    /// and metrics.
    pub fn new(phase_ns: [u64; Phase::COUNT], metrics: Registry) -> Self {
        QueryReport { phase_ns, metrics }
    }

    /// Nanoseconds reported for one phase.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.index()]
    }

    /// A counter's value (0 when not reported).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name)
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

        render_counters(&mut out, self.metrics.counters());
        out.push_str("\n}\n");
        out
    }
}

/// Renders the `"counters": { "k": v, ... }` sub-object with its entries
/// on separate lines, or `"counters": {}` when empty.
fn render_counters(out: &mut String, entries: impl Iterator<Item = (&'static str, u64)>) {
    let entries: Vec<(&'static str, u64)> = entries.collect();
    if entries.is_empty() {
        out.push_str("  \"counters\": {}");
        return;
    }
    out.push_str("  \"counters\": {\n");
    let n = entries.len();
    for (i, (key, value)) in entries.into_iter().enumerate() {
        let _ = write!(out, "    {}: {value}", json_str(key));
        out.push_str(if i + 1 < n { ",\n" } else { "\n" });
    }
    out.push_str("  }");
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
        let mut phase_ns = [0; Phase::COUNT];
        phase_ns[Phase::CacheLookup.index()] = 100;
        phase_ns[Phase::Fetch.index()] = 5_000;
        let mut metrics = Registry::new();
        metrics.add("cache.hits", 1);
        metrics.add("fetch.points_read", 42);
        QueryReport::new(phase_ns, metrics)
    }

    #[test]
    fn recorder_captures_spans_and_metrics() {
        let r = sample_report();
        assert_eq!(r.phase_ns(Phase::CacheLookup), 100);
        assert_eq!(r.phase_ns(Phase::Fetch), 5_000);
        assert_eq!(r.phase_ns(Phase::Skyline), 0);
        assert_eq!(r.counter("cache.hits"), 1);
        assert_eq!(r.counter("fetch.points_read"), 42);
        assert_eq!(r.counter("cache.misses"), 0);
    }

    #[test]
    fn json_has_schema_and_all_phases() {
        let json = sample_report().to_json();
        assert!(json.starts_with("{\n  \"schema\": \"skyobs-report/6\",\n"));
        for phase in Phase::ALL {
            assert!(json.contains(&format!("\"{}\"", phase.label())), "missing {phase:?}");
        }
        assert!(json.contains("\"cache.hits\": 1"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn json_of_equal_reports_is_byte_identical() {
        assert_eq!(sample_report().to_json(), sample_report().to_json());
    }

    #[test]
    fn empty_report_serializes_empty_maps() {
        let json = QueryReport::default().to_json();
        assert!(json.contains("\"counters\": {}"));
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
