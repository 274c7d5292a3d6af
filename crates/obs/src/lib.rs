//! Observability vocabulary for the skycache query pipeline: phases,
//! metric names and the per-query report.
//!
//! The paper's claims are quantitative — cache hit ratios, points fetched
//! from disk, range queries issued by the (a)MPR — and its evaluation
//! slices latency per pipeline stage (Figure 10). The pipeline counts all
//! of that in one plain struct (`skycache_core::QueryStats`, written
//! field by field); this crate holds what a *reader* of those numbers
//! needs and nothing the pipeline calls while it runs:
//!
//! * [`Phase`] — the six spans of one constrained-skyline query:
//!   cache-lookup, case-analysis, mpr-compute, fetch, merge, skyline.
//! * [`names`] — the canonical metric names, shared by the one function
//!   that renders them (`QueryStats::report`) and every consumer.
//! * [`QueryReport`] — one query's phase times plus a [`Registry`] of
//!   named counters, with a versioned JSON rendering
//!   (`"skyobs-report/6"`, hand-rolled, no serde). Built on request only,
//!   after the query has finished.
//!
//! Nothing below `core` depends on this crate: kernels (geom, algos,
//! rtree, storage) return their counts by value.

/// Named counters in deterministic order.
pub mod metrics;
/// Canonical metric names shared by producers and consumers.
pub mod names;
/// The phases of one query.
pub mod recorder;
/// The per-query report and its versioned JSON rendering.
pub mod report;

pub use metrics::Registry;
pub use recorder::Phase;
pub use report::{QueryReport, REPORT_SCHEMA};
