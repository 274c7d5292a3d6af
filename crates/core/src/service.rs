//! The multi-tenant query service: [`Service`], [`Session`] and the
//! production-cache machinery around the shared-cache CBCS pipeline.
//!
//! The paper evaluates the cache one query at a time; a deployed service
//! runs many sessions against one cache. This module is the concurrent
//! entry point for that shape — a [`Session`] is the only holder of the
//! pipeline over a [`SharedCache`], so every multi-user deployment flows
//! through here and picks up two fast paths:
//!
//! 1. **Index-proven empties** — a constraint region the per-dimension
//!    indexes prove empty ([`Table::probe_region_empty`], the paper's
//!    "the B-trees detect the empty queries", Sec. 7.3.2) is answered
//!    with the empty skyline without planning, locking the cache, or
//!    touching the heap. The table is immutable under a service, so the
//!    probe is its own memo: nothing is remembered.
//! 2. **Snapshot reads** — every other query runs the CBCS pipeline,
//!    whose lookups read the epoch-published `Arc<Cache>` snapshot (see
//!    [`crate::shared`]), so concurrent sessions never serialize on the
//!    cache write lock, and an exact repeat is a lookup and one `touch`.
//!
//! The service holds no lock of its own: its counters are atomics, and
//! the only locks a query takes are the shared cache's, in the order
//! `master → snap` (`CbcsState::execute`'s write phase). All
//! synchronization uses the `skycheck::sync` shims, so the whole protocol
//! is model-checkable (`crates/core/tests/model_serve.rs` explores epoch
//! publication exhaustively at preemption bound 2).

// Shim sync primitives: identical to `std` in production, schedulable
// under a `skycheck::Explorer` model run (see DESIGN.md §15–16).
use skycheck::sync::{Arc, AtomicU64, Ordering};

use skycache_storage::Table;

use crate::engine::{
    check_dims, CbcsConfig, CbcsState, Executor, QueryOutcome, QueryRequest, QueryStats,
};
use crate::shared::SharedCache;
use crate::Result;

/// Service-level configuration: the CBCS configuration every session
/// runs with.
#[derive(Clone, Debug, Default)]
pub struct ServiceConfig {
    /// Configuration handed to every session's CBCS executor.
    pub cbcs: CbcsConfig,
}

impl ServiceConfig {
    /// Config with everything default except the CBCS layer.
    pub fn with_cbcs(cbcs: CbcsConfig) -> Self {
        ServiceConfig { cbcs }
    }
}

/// Point-in-time counters of the service's two exits.
///
/// `negative_hits + computes` equals the number of executed queries:
/// every query is either proven empty by the indexes or computed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Queries answered empty because the indexes prove their region
    /// holds no row.
    pub negative_hits: u64,
    /// Queries that ran the CBCS pipeline (hits and misses alike).
    pub computes: u64,
}

/// State shared by the service handle and every session.
struct ServiceShared {
    cache: SharedCache,
    sessions: AtomicU64,
    negative_hits: AtomicU64,
    computes: AtomicU64,
}

/// The multi-tenant query service over one table and one shared cache.
///
/// Cheap to share by reference; spawn one [`Session`] per client/thread:
///
/// ```
/// use skycache_core::service::{Service, ServiceConfig};
/// use skycache_core::QueryRequest;
/// use skycache_geom::{Constraints, Point};
/// use skycache_storage::{Table, TableConfig};
///
/// let points: Vec<Point> =
///     (0..100).map(|i| Point::from(vec![f64::from(i % 7), f64::from(i % 11)])).collect();
/// let table = Table::build(points, TableConfig::default()).unwrap();
/// let service = Service::open(&table, ServiceConfig::default());
///
/// let mut session = service.session();
/// let c = Constraints::from_pairs(&[(1.0, 6.0), (1.0, 9.0)]).unwrap();
/// let outcome = session.execute(&QueryRequest::new(c)).unwrap();
/// assert!(!outcome.skyline.is_empty());
/// ```
pub struct Service<'t> {
    table: &'t Table,
    config: ServiceConfig,
    shared: Arc<ServiceShared>,
}

impl<'t> Service<'t> {
    /// Opens a service over `table` with a fresh shared cache.
    pub fn open(table: &'t Table, config: ServiceConfig) -> Self {
        let cache = SharedCache::new(table.dims(), &config.cbcs);
        // Hoisted out of the assert so the lock provably drops before
        // the panic formatting machinery runs.
        let cache_dims = cache.dims();
        assert_eq!(cache_dims, table.dims(), "cache/table dimensionality mismatch");
        let shared = Arc::new(ServiceShared {
            cache,
            sessions: AtomicU64::new(0),
            negative_hits: AtomicU64::new(0),
            computes: AtomicU64::new(0),
        });
        Service { table, config, shared }
    }

    /// Creates a session: the per-client query handle.
    ///
    /// Sessions are `Send` and own their pipeline scratch; each gets a
    /// distinct deterministic seed derived from the configured one, so
    /// randomized search strategies de-correlate across sessions while
    /// staying reproducible.
    pub fn session(&self) -> Session<'t> {
        let idx = self.shared.sessions.fetch_add(1, Ordering::Relaxed);
        let mut cbcs = self.config.cbcs.clone();
        cbcs.seed = cbcs.seed.wrapping_add(idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Session {
            table: self.table,
            shared: self.shared.clone(),
            state: CbcsState::new(self.table, cbcs),
        }
    }

    /// The table this service answers queries over.
    pub fn table(&self) -> &'t Table {
        self.table
    }

    /// Handle to the shared cache (snapshot reads, authoritative stats).
    pub fn cache(&self) -> &SharedCache {
        &self.shared.cache
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Snapshot of the service-layer counters.
    pub fn metrics(&self) -> ServiceMetrics {
        ServiceMetrics {
            negative_hits: self.shared.negative_hits.load(Ordering::Relaxed),
            computes: self.shared.computes.load(Ordering::Relaxed),
        }
    }
}

/// A per-client query handle over a [`Service`].
///
/// Owns its CBCS pipeline state (scratch buffers, strategy RNG) so
/// queries from distinct sessions share only the service state: the same
/// pipeline as [`crate::CbcsExecutor`] (`CbcsState::execute`), reading
/// the published snapshot of the shared cache and writing through its
/// master. Two sessions racing the same miss both compute and both
/// insert; the exact lookup answers later repeats from the lowest id.
/// Obtained from [`Service::session`]; also usable anywhere an
/// [`Executor`] is.
pub struct Session<'t> {
    table: &'t Table,
    shared: Arc<ServiceShared>,
    state: CbcsState,
}

impl Session<'_> {
    /// Answers one query: the index-only emptiness probe, then the CBCS
    /// pipeline over the shared cache — snapshot reads, master writes
    /// (see [`crate::shared`]).
    pub fn execute(&mut self, req: &QueryRequest) -> Result<QueryOutcome> {
        check_dims(self.table, &req.constraints)?;

        if self.table.probe_region_empty(&req.constraints.region()) {
            self.shared.negative_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(empty_outcome(req));
        }

        self.shared.computes.fetch_add(1, Ordering::Relaxed);
        self.state.execute(self.table, &mut &self.shared.cache, req)
    }
}

impl Executor for Session<'_> {
    fn execute(&mut self, req: &QueryRequest) -> Result<QueryOutcome> {
        Session::execute(self, req)
    }
}

/// The outcome of a query the indexes prove empty: the empty skyline,
/// one issued-and-empty range query and one negative hit in the stats.
fn empty_outcome(req: &QueryRequest) -> QueryOutcome {
    let stats = QueryStats {
        range_queries_issued: 1,
        range_queries_empty: 1,
        negative_hits: 1,
        ..QueryStats::default()
    };
    QueryOutcome::finish(req, Vec::new(), None, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycache_geom::{Constraints, Point};
    use skycache_storage::TableConfig;

    fn table() -> Table {
        let points: Vec<Point> = (0..20)
            .flat_map(|i| {
                (0..20).map(move |j| Point::from(vec![f64::from(i) / 10.0, f64::from(j) / 10.0]))
            })
            .collect();
        Table::build(points, TableConfig::default()).unwrap()
    }

    #[test]
    fn sessions_share_the_cache() {
        let t = table();
        let service = Service::open(&t, ServiceConfig::default());
        let mut alice = service.session();
        let mut bob = service.session();
        let c = Constraints::from_pairs(&[(0.2, 1.0), (0.2, 1.0)]).unwrap();
        let r1 = alice.execute(&QueryRequest::new(c.clone())).unwrap();
        assert!(!r1.stats.cache_hit);
        let r2 = bob.execute(&QueryRequest::new(c)).unwrap();
        assert!(r2.stats.cache_hit, "bob must hit alice's cached result");
        assert_eq!(r2.skyline, r1.skyline);
    }

    #[test]
    fn provably_empty_region_is_negatively_cached() {
        let t = table();
        let service = Service::open(&t, ServiceConfig::default());
        let mut s = service.session();
        // Between grid coordinates: the per-dimension index proves no
        // row can fall in (0.11, 0.19) — on every ask, nothing remembered.
        let c = Constraints::from_pairs(&[(0.11, 0.19), (0.11, 0.19)]).unwrap();
        for req in [QueryRequest::new(c.clone()), QueryRequest::new(c).recorded()] {
            let outcome = s.execute(&req).unwrap();
            assert!(outcome.skyline.is_empty());
            assert_eq!(
                (outcome.stats.range_queries_issued, outcome.stats.range_queries_empty),
                (1, 1)
            );
            assert_eq!(outcome.stats.negative_hits, 1);
        }
        let m = service.metrics();
        assert_eq!(m, ServiceMetrics { negative_hits: 2, ..ServiceMetrics::default() });
        // No skyline computation: nothing cached, nothing published.
        assert!(service.cache().is_empty());
        assert_eq!(service.cache().epoch(), 0);
    }

    /// Every executed query leaves by exactly one exit, proven empty or
    /// computed, over fresh and repeated empties, misses and hits.
    #[test]
    fn every_query_leaves_by_one_exit() {
        let t = table();
        let empty = |lo: f64| Constraints::from_pairs(&[(lo, 0.19), (0.11, 0.19)]).unwrap();
        let busy = |lo: f64| Constraints::from_pairs(&[(lo, 1.3), (0.2, 1.3)]).unwrap();
        let stream = [empty(0.11), busy(0.2), empty(0.11), busy(0.2), empty(0.12), busy(0.3)];
        let service = Service::open(&t, ServiceConfig::default());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let mut s = service.session();
                let stream = &stream;
                scope.spawn(move || {
                    for c in stream {
                        s.execute(&QueryRequest::new(c.clone())).unwrap();
                    }
                });
            }
        });
        let m = service.metrics();
        let queries = 4 * stream.len() as u64;
        assert_eq!(m.negative_hits + m.computes, queries, "{m:?}");
        assert_eq!(m.negative_hits, 4 * 3, "every empty is a negative hit");
    }

    #[test]
    fn session_is_an_executor() {
        let t = table();
        let service = Service::open(&t, ServiceConfig::default());
        let mut s = service.session();
        let ex: &mut dyn Executor = &mut s;
        let c = Constraints::from_pairs(&[(0.2, 1.0), (0.2, 1.0)]).unwrap();
        assert!(!ex.execute(&QueryRequest::new(c)).unwrap().skyline.is_empty());
    }
}
