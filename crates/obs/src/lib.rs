//! Observability for the skycache query pipeline: spans, metrics and
//! per-query reports.
//!
//! The paper's claims are quantitative — cache hit ratios, points fetched
//! from disk, range queries issued by the (a)MPR — and its evaluation
//! slices latency per pipeline stage (Figure 10). This crate gives every
//! executor the instruments to report those numbers without paying for
//! them when nobody is looking:
//!
//! * [`Recorder`] — the observation interface threaded through the
//!   engine, cache and storage layers. Every method has a no-op default
//!   body, so the disabled path costs one virtual call and allocates
//!   nothing ([`NoopRecorder`] is the zero-sized witness). Recorders are
//!   **observation-only** by contract: query results must be identical
//!   with recording on and off (the differential test in
//!   `tests/observability.rs` pins this).
//! * [`Phase`] — the six spans of one constrained-skyline query:
//!   cache-lookup, case-analysis, mpr-compute, fetch, merge, skyline.
//!   Span wall time comes from the engine's sanctioned clock
//!   (`skycache_core::clock::Stopwatch`); this crate only stores
//!   durations it is handed.
//! * [`Registry`] — deterministic metric storage: counters, gauges and
//!   power-of-two-bucket [`Histogram`]s keyed by the `&'static str`
//!   names of [`names`].
//! * [`QueryRecorder`] / [`QueryReport`] — a recorder capturing one
//!   query, and its versioned JSON rendering (`"skyobs-report/1"`,
//!   hand-rolled, no serde).
//!
//! Hot-path rule: designated kernels (the dominance kernels, the storage
//! fetch units) never call a [`Recorder`]; they return their counts by
//! value and the engine layer records them. skylint's `hot-path-alloc`
//! rule enforces this (`rules.hot-path-alloc.recorder-idents`).

#![warn(missing_docs)]
#![warn(clippy::all)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

/// Metric registry: counters, gauges, log-bucket histograms.
pub mod metrics;
/// Canonical metric names shared by producers and consumers.
pub mod names;
/// The [`Recorder`] trait, phases and the no-op recorder.
pub mod recorder;
/// Per-query capture and the versioned JSON report.
pub mod report;

pub use metrics::{Histogram, Registry};
pub use recorder::{NoopRecorder, Phase, Recorder};
pub use report::{QueryRecorder, QueryReport, REPORT_SCHEMA};
