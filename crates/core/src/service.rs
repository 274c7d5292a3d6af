//! The multi-tenant query service: [`Service`], [`Session`] and the
//! production-cache machinery around the shared-cache CBCS pipeline.
//!
//! The paper evaluates the cache one query at a time; a deployed service
//! runs many sessions against one cache. This module is the concurrent
//! entry point for that shape — a [`Session`] is the only holder of the
//! pipeline over a [`SharedCache`], so every multi-user deployment flows
//! through here and picks up three fast paths:
//!
//! 1. **Snapshot reads** — lookups run against the epoch-published
//!    `Arc<Cache>` snapshot (see [`crate::shared`]), so concurrent
//!    sessions never serialize on the cache write lock.
//! 2. **Singleflight coalescing** — identical in-flight queries (same
//!    canonicalized constraints) compute once; the joiners block on the
//!    leader's flight slot and share its [`QueryOutcome`]. Keyed by
//!    [`constraint_key`]'s canonical encoding so `-0.0`/`0.0` bound
//!    spellings coalesce.
//! 3. **Index-proven empties** — a constraint region the per-dimension
//!    indexes prove empty ([`Table::probe_region_empty`], the paper's
//!    "the B-trees detect the empty queries", Sec. 7.3.2) is answered
//!    with the empty skyline without planning, locking a flight, or
//!    touching the heap. The table is immutable under a service, so the
//!    probe is its own memo: nothing is remembered.
//!
//! All synchronization uses the `skycheck::sync` shims, so the whole
//! protocol is model-checkable (`crates/core/tests/model_serve.rs`
//! explores the singleflight and epoch-publication invariants
//! exhaustively at preemption bound 2).
//!
//! Lock order is `flights → slot → (master → snap)`: the flight table
//! lock is only ever held to look up/insert/remove a flight (the leader
//! acquires its fresh slot while still holding the table lock, so a
//! joiner can never observe a registered flight whose slot is free);
//! the slot is held across the leader's compute by design — that is the
//! coalescing point — and the cache locks live below it inside the
//! pipeline (`CbcsState::execute`).

use std::collections::BTreeMap;

// Shim sync primitives: identical to `std` in production, schedulable
// under a `skycheck::Explorer` model run (see DESIGN.md §15–16).
use skycheck::sync::{Arc, AtomicU64, Mutex, Ordering};

use skycache_geom::Constraints;
use skycache_storage::Table;

use crate::engine::{
    check_dims, CbcsConfig, CbcsState, Executor, QueryOutcome, QueryRequest, QueryStats,
};
use crate::shared::SharedCache;
use crate::Result;

/// Service-level configuration: the per-session CBCS configuration plus
/// the one production-cache knob layered on top.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Configuration handed to every session's CBCS executor.
    pub cbcs: CbcsConfig,
    /// Coalesce identical in-flight queries through the singleflight
    /// table (on by default).
    pub coalesce: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { cbcs: CbcsConfig::default(), coalesce: true }
    }
}

impl ServiceConfig {
    /// Config with everything default except the CBCS layer.
    pub fn with_cbcs(cbcs: CbcsConfig) -> Self {
        ServiceConfig { cbcs, ..ServiceConfig::default() }
    }
}

/// Point-in-time counters of the service-layer fast paths.
///
/// `coalesced + negative_hits + computes` equals the number of executed
/// queries: every query either is proven empty by the indexes, joins a
/// flight, or computes (a joiner whose leader failed counts as both
/// coalesced and a compute).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Queries that joined another session's in-flight computation.
    pub coalesced: u64,
    /// Queries answered empty because the indexes prove their region
    /// holds no row.
    pub negative_hits: u64,
    /// Skyline computations actually executed (misses + leaders).
    pub computes: u64,
}

/// One in-flight computation: the leader holds `slot` while computing
/// and stores the outcome before releasing it; joiners block on `slot`
/// and read the stored outcome. `None` after release means the leader
/// failed — joiners fall back to computing themselves.
struct Flight {
    slot: Mutex<Option<QueryOutcome>>,
}

/// State shared by the service handle and every session.
struct ServiceShared {
    cache: SharedCache,
    /// Singleflight table: canonical request key → in-flight computation.
    flights: Mutex<BTreeMap<Vec<u64>, Arc<Flight>>>,
    sessions: AtomicU64,
    coalesced: AtomicU64,
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
            flights: Mutex::new(BTreeMap::new()),
            sessions: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
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
            coalesce: self.config.coalesce,
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
            coalesced: self.shared.coalesced.load(Ordering::Relaxed),
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
/// master. Obtained from [`Service::session`]; also usable anywhere an
/// [`Executor`] is.
pub struct Session<'t> {
    table: &'t Table,
    /// [`ServiceConfig::coalesce`], the one service knob a session reads.
    coalesce: bool,
    shared: Arc<ServiceShared>,
    state: CbcsState,
}

impl Session<'_> {
    /// Answers one query through the service fast paths: the index-only
    /// emptiness probe, then singleflight, then the CBCS pipeline over
    /// the shared cache.
    pub fn execute(&mut self, req: &QueryRequest) -> Result<QueryOutcome> {
        check_dims(self.table, &req.constraints)?;

        if self.table.probe_region_empty(&req.constraints.region()) {
            self.shared.negative_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(empty_outcome(req));
        }

        // Recorded requests bypass coalescing: a joiner would otherwise
        // receive the leader's report (or none), and reports are
        // per-request property.
        if self.coalesce && !req.record {
            return self.execute_coalesced(req);
        }
        self.compute(req)
    }

    /// The CBCS pipeline over the shared cache: snapshot reads, master
    /// writes (see [`crate::shared`]).
    fn compute(&mut self, req: &QueryRequest) -> Result<QueryOutcome> {
        self.shared.computes.fetch_add(1, Ordering::Relaxed);
        self.state.execute(self.table, &mut &self.shared.cache, req)
    }

    /// Singleflight path: lead a new flight or join an existing one.
    fn execute_coalesced(&mut self, req: &QueryRequest) -> Result<QueryOutcome> {
        let key = constraint_key(&req.constraints);
        // skylint: allow(lock-order) — the `execute` reached below is `CbcsState::execute` (flights-free); the bare-name match back to `Session::execute` is not a real call, and the table guard is dropped before any compute.
        let mut flights = self.shared.flights.lock(); // lock-order: write
        if let Some(flight) = flights.get(&key) {
            // Join: block on the leader's slot, then share its outcome.
            let flight = flight.clone();
            drop(flights);
            self.shared.coalesced.fetch_add(1, Ordering::Relaxed);
            let joined = flight.slot.lock().clone(); // lock-order: write
            return match joined {
                Some(outcome) => Ok(outcome),
                // The leader failed; compute independently.
                None => self.compute(req),
            };
        }
        // Lead: register the flight and take its slot *before* releasing
        // the table lock, so every later arrival joins instead of racing
        // to a second compute. The slot guard intentionally spans the
        // computation — that is the coalescing point; joiners block here
        // instead of redoing the work.
        let flight = Arc::new(Flight { slot: Mutex::new(None) });
        flights.insert(key.clone(), flight.clone());
        // skylint: allow(lock-order) — the compute under this slot guard is `CbcsState::execute`, which never touches the flights table; the slot→flights cycle only exists through the bare-name match to `Session::execute`, and the real flights re-lock at the end of this fn happens after the slot guard is dropped.
        let mut slot = flight.slot.lock(); // lock-order: write
        drop(flights);
        // skylint: allow(guard-hold-span) — the flight slot guard exists to span this compute: it is private to this flight (never contended by unrelated queries), and joiners blocking on it is the designed coalescing behavior.
        let computed = self.compute(req);
        if let Ok(outcome) = &computed {
            *slot = Some(outcome.clone());
        }
        drop(slot);
        self.shared.flights.lock().remove(&key); // lock-order: write
        computed
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

/// Canonical bit-encoding of constraint bounds: `-0.0` folds onto `0.0`
/// so semantically identical regions key identically.
fn canonical_bits(x: f64) -> u64 {
    if x == 0.0 {
        0.0f64.to_bits()
    } else {
        x.to_bits()
    }
}

/// Canonical key of a constraint region — the singleflight key: the
/// answer depends on the region alone.
fn constraint_key(c: &Constraints) -> Vec<u64> {
    let mut key = Vec::with_capacity(2 * c.dims());
    for dim in 0..c.dims() {
        key.push(canonical_bits(c.lo()[dim]));
        key.push(canonical_bits(c.hi()[dim]));
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycache_geom::Point;
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

    /// Every executed query leaves by exactly one exit: proven empty,
    /// joined a flight, or computed — with coalescing on and off, over
    /// fresh and repeated empties, misses and hits.
    #[test]
    fn every_query_leaves_by_one_exit() {
        let t = table();
        let empty = |lo: f64| Constraints::from_pairs(&[(lo, 0.19), (0.11, 0.19)]).unwrap();
        let busy = |lo: f64| Constraints::from_pairs(&[(lo, 1.3), (0.2, 1.3)]).unwrap();
        let stream = [empty(0.11), busy(0.2), empty(0.11), busy(0.2), empty(0.12), busy(0.3)];
        for coalesce in [true, false] {
            let service = Service::open(&t, ServiceConfig { coalesce, ..ServiceConfig::default() });
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
            assert_eq!(
                m.coalesced + m.negative_hits + m.computes,
                queries,
                "coalesce {coalesce}: {m:?}"
            );
            assert_eq!(
                m.negative_hits,
                4 * 3,
                "coalesce {coalesce}: every empty is a negative hit"
            );
        }
    }

    #[test]
    fn identical_concurrent_queries_coalesce() {
        let t = table();
        let service = Service::open(&t, ServiceConfig::default());
        let c = Constraints::from_pairs(&[(0.2, 1.3), (0.2, 1.3)]).unwrap();
        let outcomes: Vec<QueryOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let mut s = service.session();
                    let c = c.clone();
                    scope.spawn(move || s.execute(&QueryRequest::new(c)).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let first = &outcomes[0].skyline;
        for o in &outcomes {
            assert_eq!(&o.skyline, first, "joined outcomes must agree with the leader");
        }
        let m = service.metrics();
        assert_eq!(m.coalesced + m.computes, 8);
        assert!(m.computes >= 1);
    }

    #[test]
    fn coalescing_off_never_joins() {
        let t = table();
        let config = ServiceConfig { coalesce: false, ..ServiceConfig::default() };
        let service = Service::open(&t, config);
        let c = Constraints::from_pairs(&[(0.2, 1.3), (0.2, 1.3)]).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let mut s = service.session();
                let c = c.clone();
                scope.spawn(move || s.execute(&QueryRequest::new(c)).unwrap());
            }
        });
        let m = service.metrics();
        assert_eq!(m.coalesced, 0);
        assert_eq!(m.computes, 4);
    }

    #[test]
    fn flight_keys_canonicalize_and_discriminate() {
        let a = Constraints::from_pairs(&[(-0.0, 1.0), (0.0, 2.0)]).unwrap();
        let b = Constraints::from_pairs(&[(0.0, 1.0), (-0.0, 2.0)]).unwrap();
        assert_eq!(constraint_key(&a), constraint_key(&b));
        let wider = Constraints::from_pairs(&[(0.0, 1.0), (0.0, 2.5)]).unwrap();
        assert_ne!(constraint_key(&a), constraint_key(&wider));
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
