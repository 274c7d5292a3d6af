//! Row storage with per-dimension indexes and an I/O cost model.
//!
//! This crate is the workspace's substitute for the paper's experimental
//! substrate — "data is stored in PostgreSQL 9.1 with each dimension
//! indexed by a standard B-tree" (Section 7). It reproduces the three
//! behaviours the evaluation depends on:
//!
//! 1. **Single-index range plans.** A range query probes every per-dimension
//!    index, picks the most selective one and is *charged* what PostgreSQL
//!    would pay: that index's candidate rows fetched from the heap and
//!    post-filtered on the remaining dimensions (or, when cheaper, a
//!    bitmap AND of the per-dimension row sets). What the walk really
//!    dereferences is smaller: it scans the chosen index's sketch words
//!    first — see the bucket sketch below.
//! 2. **Empty-query detection.** "The remaining queries were discarded by
//!    the DBMS without any disk seeks because the B-trees detect the empty
//!    queries" (Section 7.3.2): a query whose projection on any indexed
//!    dimension is empty is answered from the index alone.
//!
//!    Both are one decision, made once per region: a single probe pass
//!    yields the region's one plan — empty or ready; its most selective
//!    range (all of index 0 when no dimension is bounded); bitmap AND or
//!    not; predicted rows and cost — and [`Table::probe_region_empty`],
//!    [`Table::fetch_plan_into`] (planning and charge) and
//!    [`Table::predict_region`] all read that plan. Every ready region is
//!    read by one path, a walk of its index range; a plan's regions are
//!    pairwise disjoint, so the walk emits each row once.
//! 3. **Deterministic I/O accounting.** Instead of timing a spinning disk,
//!    [`CostModel`] converts the observable work (range-query seeks, heap
//!    points fetched, index probes) into simulated nanoseconds, and
//!    [`FetchStats`] exposes the raw counters that the paper plots
//!    (points read — Fig. 8; range queries generated/executed — Fig. 9;
//!    fetch time — Figs. 5–7, 10, 12).
//!
//! The store itself is in-memory: a heap of points in row-id order and a
//! sorted `(key, row, word)` array per dimension (the B-tree equivalent,
//! with `O(log n)` range location). The words are the *bucket sketch*:
//! one packed `u32` per index position holding an equi-depth bucket of
//! the entry's row on each other dimension, which the candidate walk scans
//! against the region's bucket box before it touches the heap row, so the
//! measured fetch dereferences about the rows it returns while
//! [`FetchStats`] keeps charging the simulated plan (DESIGN.md §12). [`Table::insert`]/[`Table::delete`] support the
//! dynamic-data extension and [`Table::save`]/[`Table::load`] persist
//! snapshots (heap and tombstones only; indexes and sketch are rebuilt).
//!
//! ```
//! use skycache_geom::{Constraints, Point};
//! use skycache_storage::{FetchPlan, FetchScratch, Table, TableConfig};
//!
//! let points: Vec<Point> = (0..100)
//!     .map(|i| Point::from(vec![f64::from(i % 10), f64::from(i / 10)]))
//!     .collect();
//! let table = Table::build(points, TableConfig::default()).unwrap();
//!
//! let c = Constraints::from_pairs(&[(2.0, 4.0), (3.0, 5.0)]).unwrap();
//! let mut scratch = FetchScratch::new();
//! let outcome = table.fetch_plan_into(&FetchPlan::constrained(&c), &mut scratch);
//! let rows = scratch.rows();
//! assert_eq!(rows.len(), 9);
//! assert!((0..rows.len()).all(|i| c.satisfies_coords(rows.row(i))));
//! // Both per-dimension indexes were probed; a bitmap AND plan read only
//! // the matching rows from the heap.
//! assert_eq!(outcome.stats.points_read, 9);
//! assert!(outcome.simulated_latency.as_nanos() > 0);
//! ```

mod cost;
mod error;
mod index;
mod persist;
mod scratch;
mod sketch;
mod table;

pub use cost::{CostModel, FetchStats, Prediction};
pub use error::StorageError;
pub use scratch::{FetchBuf, FetchScratch};
pub use table::{FetchOutcome, FetchPlan, RowId, Table, TableConfig};

/// Convenience alias for storage results.
pub type Result<T> = std::result::Result<T, StorageError>;
