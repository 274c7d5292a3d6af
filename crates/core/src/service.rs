//! The one CBCS holder: [`Service`] owns the shared cache and its table,
//! [`Session`] is its query handle, and the paper's Section 6 pipeline is
//! written here once, as `Session::pipeline`.
//!
//! The paper evaluates the cache one query at a time; a deployed service
//! runs many sessions against one cache. Both are a [`Service`]: the
//! figures, the CLI and the examples run one session, the server one per
//! connection. A session answers in three steps:
//!
//! 1. **Dimensions** — constraints of another dimensionality are an error.
//! 2. **Index-proven empties** — a constraint region the per-dimension
//!    indexes prove empty ([`Table::probe_region_empty`], the paper's
//!    "the B-trees detect the empty queries", Sec. 7.3.2) is answered
//!    with the empty skyline without planning, locking the cache, or
//!    touching the heap. Nothing is cached for it: the probe reads the
//!    live indexes, so it is its own memo, across writes too.
//! 3. **The pipeline** — every other query searches the epoch-published
//!    `Arc<Cache>` snapshot (see [`crate::shared`]), so concurrent
//!    sessions never serialize on the cache write lock, and an exact
//!    repeat is a lookup and one `touch`.
//!
//! Dynamic data (Sec. 6.2) is [`Service::insert`] and [`Service::delete`]
//! on `&mut self`: a session borrows its service, so the borrow checker
//! proves no session is alive during a write, and the table needs no
//! synchronization of its own. A service opened over a borrowed table
//! copies it on its first write.
//!
//! The service holds no lock of its own: its counters are atomics, and
//! the only locks a query takes are the shared cache's, in the order
//! `master → snap` (`SharedCache::publish`). All synchronization uses
//! the `skycheck::sync` shims, so the whole protocol is model-checkable
//! (`crates/core/tests/model_serve.rs` explores epoch publication
//! exhaustively at preemption bound 2).

use std::borrow::Cow;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
// Shim sync primitives: identical to `std` in production, schedulable
// under a `skycheck::Explorer` model run (see DESIGN.md §15–16).
use skycheck::sync::{AtomicU64, Ordering};

use skycache_geom::{Constraints, Point};
use skycache_obs::Phase;
use skycache_storage::{RowId, Table};

use crate::cache::Cache;
use crate::cases::{self, QueryPlan};
use crate::clock::Stopwatch;
use crate::engine::{
    check_dims, query_planned, CbcsConfig, Executor, QueryOutcome, QueryRequest, QueryScratch,
    QueryStats,
};
use crate::shared::SharedCache;
use crate::stability::Overlap;
use crate::Result;

/// Service-level configuration: the CBCS configuration every session
/// runs with.
#[derive(Clone, Debug, Default)]
pub struct ServiceConfig {
    /// Configuration of the CBCS pipeline every session runs.
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

/// The query service over one table and one shared cache.
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
/// let mut service = Service::open(&table, ServiceConfig::default());
///
/// let c = Constraints::from_pairs(&[(1.5, 6.0), (1.5, 9.0)]).unwrap();
/// let outcome = service.session().execute(&QueryRequest::new(c.clone())).unwrap();
/// assert!(!outcome.skyline.is_empty());
///
/// // A write takes the service by `&mut`: the borrowed table is copied,
/// // the caller's stays as it was.
/// service.insert(Point::from(vec![1.75, 1.75])).unwrap();
/// let outcome = service.session().execute(&QueryRequest::new(c)).unwrap();
/// assert_eq!(outcome.skyline, vec![Point::from(vec![1.75, 1.75])]);
/// assert_eq!((table.len(), service.table().len()), (100, 101));
/// ```
pub struct Service<'t> {
    table: Cow<'t, Table>,
    config: ServiceConfig,
    cache: SharedCache,
    sessions: AtomicU64,
    negative_hits: AtomicU64,
    computes: AtomicU64,
}

impl<'t> Service<'t> {
    /// Opens a service with a fresh shared cache over `table`: borrowed
    /// (`&Table`, copied on the first write) or owned (`Table`).
    pub fn open(table: impl Into<Cow<'t, Table>>, config: ServiceConfig) -> Self {
        let table = table.into();
        Service {
            cache: SharedCache::new(table.dims(), &config.cbcs),
            table,
            config,
            sessions: AtomicU64::new(0),
            negative_hits: AtomicU64::new(0),
            computes: AtomicU64::new(0),
        }
    }

    /// Creates a session: the per-client query handle.
    ///
    /// Sessions are `Send` and own their pipeline scratch; each gets a
    /// distinct deterministic seed derived from the configured one (the
    /// first session the configured one itself), so randomized search
    /// strategies de-correlate across sessions while staying reproducible.
    pub fn session(&self) -> Session<'_> {
        let idx = self.sessions.fetch_add(1, Ordering::Relaxed);
        let seed = self.config.cbcs.seed.wrapping_add(idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Session { service: self, rng: StdRng::seed_from_u64(seed), scratch: Default::default() }
    }

    /// The table this service answers queries over.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Handle to the shared cache (snapshot reads, authoritative stats).
    pub fn cache(&self) -> &SharedCache {
        &self.cache
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Snapshot of the service-layer counters.
    pub fn metrics(&self) -> ServiceMetrics {
        ServiceMetrics {
            negative_hits: self.negative_hits.load(Ordering::Relaxed),
            computes: self.computes.load(Ordering::Relaxed),
        }
    }

    /// Inserts a data point (the dynamic-data extension, paper Section
    /// 6.2): the table's indexes take it — a borrowed table is copied
    /// first — and every cached skyline whose constraints it satisfies
    /// folds it in ([`Cache::on_insert`]), published as one new snapshot.
    /// Returns the new row id.
    pub fn insert(&mut self, p: Point) -> Result<RowId> {
        let row = self.table.to_mut().insert(p.clone())?;
        self.cache.publish(|cache, _| cache.on_insert(&p));
        Ok(row)
    }

    /// Deletes a row, dropping the cached results that can no longer be
    /// trusted ([`Cache::on_delete`]) in one new snapshot. Returns the
    /// deleted point, or `None` if the row was not live.
    pub fn delete(&mut self, row: RowId) -> Option<Point> {
        let p = self.table.to_mut().delete(row)?;
        self.cache.publish(|cache, record| {
            cache.on_delete(&p).into_iter().for_each(|id| record.forget(id))
        });
        Some(p)
    }
}

/// A per-client query handle over a [`Service`], which it borrows.
///
/// Owns its pipeline scratch and strategy RNG, so queries from distinct
/// sessions share only the service: they read the published snapshot of
/// its cache and write through the master. Two sessions racing the same
/// miss both compute and both insert; the exact lookup answers later
/// repeats from the lowest id. Obtained from [`Service::session`]; also
/// usable anywhere an [`Executor`] is.
pub struct Session<'s> {
    service: &'s Service<'s>,
    /// Drives the `Random` search strategy.
    rng: StdRng,
    scratch: QueryScratch,
}

impl Session<'_> {
    /// Answers one query: the dimensions check, the index-only emptiness
    /// probe, then the CBCS pipeline over the shared cache.
    pub fn execute(&mut self, req: &QueryRequest) -> Result<QueryOutcome> {
        let service = self.service;
        check_dims(&service.table, &req.constraints)?;

        if service.table.probe_region_empty(&req.constraints.region()) {
            service.negative_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(empty_outcome(req));
        }

        service.computes.fetch_add(1, Ordering::Relaxed);
        Ok(self.pipeline(req))
    }

    /// The CBCS query pipeline (paper Section 6): R\*-tree cache lookup →
    /// search strategy → case classification → specialized solution or
    /// (a)MPR → fetch the missing regions, a miss all of `R_C′`, with the
    /// corner-first step where it pays → merge with retained cached
    /// points → skyline → cache the result.
    ///
    /// The published snapshot is pinned for the search and the plan only:
    /// the plan owns its points, so the snapshot is dropped before the
    /// fetch. Fetch, merge and skyline are timed by the fetch stage.
    fn pipeline(&mut self, req: &QueryRequest) -> QueryOutcome {
        crate::shared::assert_guards_held(0);
        let (service, c) = (self.service, &req.constraints);
        let table = &*service.table;
        let mut stats = QueryStats::default();
        let selection = self.process(&service.cache.snapshot(), c, &mut stats);

        let scratch = &mut self.scratch;
        let mut text = None;
        let skyline = match selection {
            None => {
                stats.cache_miss = true;
                scratch.fetch_stage(table, c, c.region().into(), &[], &mut stats)
            }
            Some((plan, id, item_text)) => {
                stats.cache_hit = true;
                // An index box lies inside its item's constraints, so every
                // candidate overlaps the query: the plan rests on the item.
                service.cache.touch(id);
                text = item_text;
                query_planned(table, c, plan, scratch, &mut stats)
            }
        };

        // An exact hit's result is already cached under these very
        // constraints; re-inserting would duplicate the item and evict an
        // innocent victim on every repeat.
        if stats.case != Some(Overlap::Exact) {
            // The key is cloned before the master guard is taken.
            let key = c.clone();
            stats.evictions = service.cache.publish(|cache, record| {
                let id = cache.insert(key, &skyline);
                record.admit(cache, id)
            });
            stats.insertions = 1;
        }

        QueryOutcome::finish(req, skyline, text, stats)
    }

    /// The processing stage, against one pinned cache state: lookup,
    /// strategy, classification, MPR; the plan and the selected item's id,
    /// or `None` for a miss. The lookup fills the reused id scratch in
    /// walk order, and the strategy ranks the candidates; they are resolved
    /// lazily through the cache, so no per-query `Vec<&CacheItem>` is
    /// built, and the plan owns its points, so nothing borrowed from the
    /// cache survives into the fetch. Phases timed here: cache-lookup
    /// (exact probe + R\*-tree window walk filtered by MBR), case-analysis
    /// (strategy selection), mpr-compute (plan construction).
    fn process(
        &mut self,
        items: &Cache,
        c: &Constraints,
        stats: &mut QueryStats,
    ) -> Option<(QueryPlan, u64, Option<Arc<str>>)> {
        let Session { service, rng, scratch } = self;
        let config = &service.config.cbcs;

        let t0 = Stopwatch::start();
        items.lookup_into(c, &mut scratch.lookup_ids);
        let ids: &[u64] = &scratch.lookup_ids;
        stats.time(Phase::CacheLookup, t0);
        stats.candidates = ids.len();

        #[expect(
            clippy::expect_used,
            reason = "`lookup_into` only emits ids present in the items map, and the cache is \
                      not mutated between lookup and resolution"
        )]
        let item = |id: u64| items.get(id).expect("lookup ids are live");

        let t1 = Stopwatch::start();
        // Scores are clamped to the live rows' box, read from the table's
        // indexes, and only a choice among two or more candidates scores
        // one: an exact hit reads nothing. A table without live rows never
        // gets here, for the indexes prove every region over it empty.
        let bounds = scratch.bounds.get_or_insert_with(|| c.aabb().clone());
        if ids.len() > 1 {
            bounds.set_sides(service.table.live_bounds());
        }
        let picked = config.strategy.select_indexed(ids.len(), |i| item(ids[i]), c, bounds, rng);
        stats.time(Phase::CaseAnalysis, t1);
        let selected = item(ids[picked?]);

        let t2 = Stopwatch::start();
        let plan = cases::plan(&selected.constraints, &selected.skyline, c, config.mpr);
        stats.time(Phase::MprCompute, t2);
        // An exact hit returns the item's skyline as it is, so the
        // item's text of it — rendered here if this is its first
        // exact hit — is the answer's text.
        let text = (plan.overlap == Overlap::Exact).then(|| selected.skyline_text());
        Some((plan, selected.id, text))
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
    use crate::SearchStrategy;
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

    /// A query that bounds no dimension is proven empty once every row
    /// is deleted: a negative hit, nothing computed or cached.
    #[test]
    fn an_unbounded_query_over_no_live_row_is_a_negative_hit() {
        let mut service = Service::open(table(), ServiceConfig::default());
        for row in 0..400 {
            assert!(service.delete(row).is_some());
        }
        let outcome = service
            .session()
            .execute(&QueryRequest::new(Constraints::unbounded(2).unwrap()))
            .unwrap();
        assert!(outcome.skyline.is_empty());
        assert_eq!(outcome.stats.negative_hits, 1);
        assert_eq!(service.metrics().computes, 0);
        assert!(service.cache().is_empty());
    }

    /// The outcome of a MaxOverlap query over the 11 × 11 grid, through
    /// an item unbounded in x and one bounded, once the far-out row
    /// `(1000, 5)` is deleted: from the table before `open`, or through
    /// the service after the two items were cached.
    fn far_out_row_deleted(before_open: bool) -> QueryOutcome {
        let mut points: Vec<Point> = (0..=10)
            .flat_map(|i| (0..=10).map(move |j| Point::from(vec![f64::from(i), f64::from(j)])))
            .collect();
        points.push(Point::from(vec![1000.0, 5.0]));
        let mut t = Table::build(points, TableConfig::default()).unwrap();
        if before_open {
            assert!(t.delete(121).is_some(), "the far-out row");
        }
        let cbcs = CbcsConfig { strategy: SearchStrategy::MaxOverlap, ..CbcsConfig::default() };
        let mut service = Service::open(t, ServiceConfig::with_cbcs(cbcs));
        let inf = f64::INFINITY;
        for pairs in [[(5.0, inf), (0.0, 10.0)], [(0.0, 10.0), (0.0, 10.0)]] {
            let c = Constraints::from_pairs(&pairs).unwrap();
            service.session().execute(&QueryRequest::new(c)).unwrap();
        }
        if !before_open {
            assert!(service.delete(121).is_some(), "the far-out row");
            assert_eq!(service.cache().len(), 2, "neither skyline holds the far-out row");
        }
        let c = Constraints::from_pairs(&[(0.0, inf), (0.0, 10.0)]).unwrap();
        service.session().execute(&QueryRequest::new(c)).unwrap()
    }

    /// Strategy scores are clamped to the live rows' box, not to every
    /// slot's: a row deleted before `open` — as a table loaded with its
    /// tombstones has them — no longer stretches an item unbounded in x.
    /// Under MaxOverlap the bounded item covers the query's clamped box
    /// best (100 against 50); clamped to x ≤ 1000 the unbounded one would
    /// (9 950 against 100), and answer through Case A instead of Case C.
    #[test]
    fn strategy_scores_ignore_rows_deleted_before_open() {
        let outcome = far_out_row_deleted(true);
        assert_eq!(outcome.stats.candidates, 2);
        assert!(matches!(outcome.stats.case, Some(Overlap::CaseC { .. })), "{outcome:?}");
        assert_eq!(outcome.skyline, vec![Point::from(vec![0.0, 0.0])]);
    }

    /// The same for a row deleted through the service after `open`: the
    /// box is the live rows' at query time, whatever the table held when
    /// the service opened, so the answer comes through Case C as above.
    #[test]
    fn strategy_scores_ignore_rows_deleted_after_open() {
        let (after, before) = (far_out_row_deleted(false), far_out_row_deleted(true));
        assert_eq!(after.stats.candidates, 2);
        assert!(matches!(after.stats.case, Some(Overlap::CaseC { .. })), "{after:?}");
        assert_eq!((after.skyline, after.stats.case), (before.skyline, before.stats.case));
    }

    /// A table whose every row was deleted before `open` opens, answers
    /// as a negative hit, and after an insert answers with that row; two
    /// more inserts and a third cached item make the next query score
    /// its candidates against the three live rows' box.
    #[test]
    fn a_table_without_live_rows_opens_and_serves_after_an_insert() {
        let mut t = table();
        for row in 0..400 {
            assert!(t.delete(row).is_some());
        }
        let mut service = Service::open(t, ServiceConfig::default());
        let c = Constraints::unbounded(2).unwrap();
        let outcome = service.session().execute(&QueryRequest::new(c.clone())).unwrap();
        assert_eq!((outcome.skyline.len(), outcome.stats.negative_hits), (0, 1));
        service.insert(Point::from(vec![0.5, 0.5])).unwrap();
        let outcome = service.session().execute(&QueryRequest::new(c.clone())).unwrap();
        assert_eq!(outcome.skyline, vec![Point::from(vec![0.5, 0.5])]);
        assert_eq!(outcome.stats.negative_hits, 0);

        service.insert(Point::from(vec![0.25, 0.75])).unwrap();
        service.insert(Point::from(vec![0.75, 0.25])).unwrap();
        let right = Constraints::from_pairs(&[(0.6, 1.0), (0.0, 1.0)]).unwrap();
        let outcome = service.session().execute(&QueryRequest::new(right)).unwrap();
        assert_eq!(outcome.skyline, vec![Point::from(vec![0.75, 0.25])]);
        let wide = Constraints::from_pairs(&[(0.0, 0.8), (0.0, 1.0)]).unwrap();
        let outcome = service.session().execute(&QueryRequest::new(wide)).unwrap();
        assert_eq!(outcome.stats.candidates, 2, "the unbounded item and the right one");
        let mut skyline = outcome.skyline;
        skyline.sort_by(|a, b| a[0].total_cmp(&b[0]));
        let want = [[0.25, 0.75], [0.5, 0.5], [0.75, 0.25]].map(|p| Point::from(p.to_vec()));
        assert_eq!(skyline, want);
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
        skycheck::sync::thread::scope(|scope| {
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
