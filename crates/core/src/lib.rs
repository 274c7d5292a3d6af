//! CBCS — Cache-Based Constrained Skyline queries.
//!
//! This crate implements the contribution of *Efficient caching for
//! constrained skyline queries* (Mortensen, Chester, Assent & Magnani,
//! EDBT 2015):
//!
//! * [`stability`] — the stability theory of Section 4.1 (Definition 4,
//!   Theorem 1) and the classification of a cached-query/new-query pair
//!   into the paper's overlap cases;
//! * [`cases`] — the planner: the specialized solutions for the four
//!   incremental single-bound changes (Theorems 2–5) and the general MPR
//!   over one cached item;
//! * [`mpr`] — the Missing Points Region of Section 5: the minimal
//!   possibly-disjoint region that must be fetched from disk (Definition
//!   5, complete and minimal per Theorems 6–7), computed by
//!   hyper-rectangle splitting (Algorithm 1, including the inverted-logic
//!   preprocessing for unstable cache items), plus the approximate MPR
//!   that prunes with only the `k` nearest cached skyline points;
//! * [`cache`] — the in-memory constrained-skyline cache of Section 6:
//!   items `⟨Sky(S,C), MBR, C⟩`, each indexed once by an R\*-tree over
//!   their constraint regions and found by MBR overlap, with LRU/LCU
//!   replacement;
//! * [`strategy`] — the cache search strategies of Section 6.1;
//! * [`engine`] — the executor interface, the naive [`BaselineExecutor`]
//!   and the [`BbsExecutor`] state of the art, each reporting the
//!   per-query statistics the paper's evaluation plots;
//! * [`service`] — the caching executor: a [`Service`] holds the table
//!   and a thread-safe [`SharedCache`], and each [`Session`] runs the one
//!   CBCS query flow over them, whether one session runs (the paper's
//!   single-user figures) or many (multi-user deployments). It carries
//!   the extension the paper sketches as future work for dynamic data
//!   ([`Service::insert`], [`Service::delete`], Section 6.2).
//!
//! ```
//! use skycache_core::{CbcsConfig, MprMode, QueryRequest, Service, ServiceConfig};
//! use skycache_geom::{Constraints, Point};
//! use skycache_storage::{Table, TableConfig};
//!
//! let points: Vec<Point> = (0..1000)
//!     .map(|i| Point::from(vec![f64::from(i % 31), f64::from(i % 37)]))
//!     .collect();
//! let table = Table::build(points, TableConfig::default()).unwrap();
//!
//! let config = CbcsConfig { mpr: MprMode::Exact, ..Default::default() };
//! let service = Service::open(&table, ServiceConfig::with_cbcs(config));
//! let mut cbcs = service.session();
//!
//! let c1 = Constraints::from_pairs(&[(5.0, 20.0), (5.0, 20.0)]).unwrap();
//! let miss = cbcs.execute(&QueryRequest::new(c1)).unwrap();
//! assert!(!miss.stats.cache_hit);
//!
//! // Widen one bound: answered from the cache via the MPR (case 3),
//! // with a per-query report capturing the six-phase breakdown.
//! let c2 = Constraints::from_pairs(&[(5.0, 22.0), (5.0, 20.0)]).unwrap();
//! let hit = cbcs.execute(&QueryRequest::new(c2).recorded()).unwrap();
//! assert!(hit.stats.cache_hit);
//! assert!(hit.stats.points_read <= miss.stats.points_read);
//! let report = hit.report.unwrap();
//! assert_eq!(report.counter("cache.hits"), 1);
//! ```

/// The constrained-skyline cache (Section 6): items, index, replacement.
pub mod cache;
/// Specialized solutions for the four single-bound cases (Theorems 2–5).
pub mod cases;
/// The audited wall-clock site ([`clock::Stopwatch`]).
pub mod clock;
/// Query executors: Baseline, BBS and the stages CBCS shares with them.
pub mod engine;
mod error;
/// The (approximate) Missing Points Region (Section 5).
pub mod mpr;
/// The one CBCS holder: a service over a table and a shared cache, its sessions, dynamic data.
pub mod service;
/// Thread-safe shared cache for multi-user deployments.
pub mod shared;
/// Stability theory (Definition 4, Theorem 1) and case classification.
pub mod stability;
/// Cache search strategies (Section 6.1).
pub mod strategy;
mod text;

pub use cache::{Cache, CacheItem, ItemCost, LookupStats, ReplacementPolicy};
pub use engine::{
    BaselineExecutor, BbsExecutor, CbcsConfig, Executor, QueryOutcome, QueryRequest, QueryStats,
    StageTimes,
};
pub use error::CoreError;
pub use mpr::{missing_points_region, MprMode};
pub use service::{Service, ServiceConfig, ServiceMetrics, Session};
pub use shared::SharedCache;
pub use stability::{classify, is_stable, Overlap};
pub use strategy::SearchStrategy;
pub use text::render_points;

/// Convenience alias for core results.
pub type Result<T> = std::result::Result<T, CoreError>;
