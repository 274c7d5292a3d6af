//! Query executors: Baseline, BBS and CBCS behind one interface.
//!
//! All three answer constrained skyline queries over a
//! [`skycache_storage::Table`] and report the statistics the paper's
//! evaluation plots: points read from disk, range queries
//! issued/executed/empty, dominance tests, and the three-stage time
//! breakdown of Figure 10 (*processing* — main-memory selection of range
//! queries; *fetching* — latency to read points; *skyline* — the in-memory
//! skyline computation).
//!
//! Queries enter through [`Executor::execute`] with a [`QueryRequest`] —
//! constraints plus an opt-in recording flag — and return a
//! [`QueryOutcome`]: the skyline (with the cached item's text of it when
//! the cache held the answer as it is), the always-on [`QueryStats`] and
//! (when recording) a [`skycache_obs::QueryReport`]. [`QueryStats`] is
//! the one thing the pipeline writes — plain fields, written directly, so
//! the hot path allocates nothing for observability; the Figure-10
//! [`StageTimes`] and the report are read off it afterwards
//! ([`QueryStats::stages`], [`QueryStats::report`]).
//!
//! The CBCS flow of the paper's Section 6 is written once, in
//! [`crate::service`]: a [`crate::Session`] of a [`crate::Service`] is
//! the one CBCS executor, whether one session runs (the figures, the CLI)
//! or many (the server). This module holds its [`CbcsConfig`] and the
//! stages CBCS runs after the cache: the fetch stage every computed
//! answer, miss or hit, goes through (the corner-first step where the
//! cost model says it pays, then the coalesced remainder fetch), merge and
//! skyline. Only Baseline runs the one constraint range query
//! (`query_naive`). The in-memory skyline stage is SFS, as in the paper's
//! evaluation.
//!
//! Measured CPU time ([`QueryStats::phase_ns`]) and the deterministic
//! simulated I/O latency of the table's [`skycache_storage::CostModel`]
//! ([`QueryStats::fetch_sim_ns`]) are kept in separate fields; the two
//! derived views show their sum (see DESIGN.md: the substitution
//! preserves the paper's cost structure while staying
//! machine-independent).

use std::sync::Arc;
use std::time::Duration;

use skycache_algos::{bbs_constrained, BbsStats, Sfs, SkylineScratch};
use skycache_geom::{rect, subtract};
use skycache_geom::{Aabb, Constraints, Point, PointBlock, Regions};
use skycache_obs::{names, Phase, QueryReport, Registry};
use skycache_rtree::{RStarTree, RTreeParams};
use skycache_storage::{FetchOutcome, FetchPlan, FetchScratch, Table};

use crate::cache::ReplacementPolicy;
use crate::cases::QueryPlan;
use crate::clock::Stopwatch;
use crate::mpr::MprMode;
use crate::stability::Overlap;
use crate::strategy::SearchStrategy;
use crate::{CoreError, Result};

/// One constrained-skyline query, as handed to [`Executor::execute`].
///
/// Built with [`QueryRequest::new`], plus [`QueryRequest::recorded`] to
/// capture a report.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// The query constraints `C`.
    pub constraints: Constraints,
    /// Render a per-query [`QueryReport`] (phase times, counters). Off
    /// by default: the report costs allocations.
    pub record: bool,
}

impl QueryRequest {
    /// A request answering `Sky(S, C)` with the executor's configuration.
    pub fn new(constraints: Constraints) -> Self {
        QueryRequest { constraints, record: false }
    }

    /// Turns on per-query recording ([`QueryOutcome::report`]).
    pub fn recorded(mut self) -> Self {
        self.record = true;
        self
    }
}

/// Everything one query produced.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The constrained skyline `Sky(S, C)`.
    pub skyline: Vec<Point>,
    /// `skyline` as [`crate::render_points`] text, when the answer is a
    /// cached item's skyline unchanged (an exact hit) and the item keeps
    /// that text; `None` everywhere else — render `skyline`.
    pub text: Option<Arc<str>>,
    /// Work and latency counters (always populated).
    pub stats: QueryStats,
    /// [`QueryStats::report`] of `stats`; `Some` iff the request set
    /// [`QueryRequest::record`].
    pub report: Option<QueryReport>,
}

impl QueryOutcome {
    /// Closes a query: the final stats, and their report if `req` asked
    /// for one.
    pub(crate) fn finish(
        req: &QueryRequest,
        skyline: Vec<Point>,
        text: Option<Arc<str>>,
        mut stats: QueryStats,
    ) -> Self {
        stats.result_size = skyline.len() as u64;
        let report = req.record.then(|| stats.report());
        QueryOutcome { skyline, text, stats, report }
    }
}

/// Reusable per-executor buffers for the block-oriented query hot path.
///
/// One instance lives inside each [`crate::Session`] (and in the
/// [`BaselineExecutor`]). After a few queries the buffers reach their
/// high-water marks and steady-state queries run
/// (near-)allocation-free: fetched rows land in the columnar
/// [`FetchScratch`], merge and skyline operate on [`PointBlock`]s, and
/// owned [`Point`]s are materialized exactly once — for the returned
/// skyline, at the public-API boundary.
#[derive(Default)]
pub struct QueryScratch {
    /// Storage-side fetch buffers (row ids + columnar coordinates).
    fetch: FetchScratch,
    /// The corner-first step's buffers.
    corner: CornerScratch,
    /// Skyline-kernel ordering buffer.
    sky: SkylineScratch,
    /// Merge output: the corner's skyline rows, then the retained rows no
    /// read region holds and the fetched rows.
    merged: Option<PointBlock>,
    /// Skyline output block.
    sky_out: Option<PointBlock>,
    /// Cache-lookup scratch: candidate item ids in walk order, reused
    /// across queries so the lookup path allocates nothing in steady
    /// state (mirrors [`FetchScratch`] on the storage side).
    pub(crate) lookup_ids: Vec<u64>,
    /// The table's live-rows box that strategy scores are clamped to,
    /// refilled from the indexes before each scored choice.
    pub(crate) bounds: Option<Aabb>,
}

/// The corner-first step's buffers (DESIGN.md §18), reused across queries
/// so that the step allocates only where a buffer grows.
#[derive(Default)]
struct CornerScratch {
    /// The corner range query's one region (`R_C′` until it is cut), and
    /// whether this query read rows there.
    region: Regions,
    taken: bool,
    /// The corner's upper keys, then one pruning point's `DR` lower corner.
    cut: Vec<f64>,
    /// Pruning candidates: dominated volume inside `R_C′`, skyline row.
    order: Vec<(f64, u32)>,
    regions: Remainder,
}

/// The remainder being pruned and a trial one, beside the predicted
/// nanoseconds of each region fetched by a range query of its own.
#[derive(Default)]
struct Remainder {
    rest: Regions,
    rest_ns: Vec<f64>,
    trial: Regions,
    trial_ns: Vec<f64>,
}

/// Hands out the [`PointBlock`] of a lazily initialized scratch slot, of
/// the right dimensionality, reusing its capacity across queries.
fn reuse_block(slot: &mut Option<PointBlock>, dims: usize) -> &mut PointBlock {
    if !matches!(slot, Some(b) if b.dims() == dims) {
        #[expect(clippy::expect_used, reason = "Table construction enforces dims > 0")]
        let block = PointBlock::new(dims).expect("tables are at least one-dimensional");
        *slot = Some(block);
    }
    #[expect(clippy::expect_used, reason = "the slot was just filled above")]
    slot.as_mut().expect("slot initialized above")
}

/// The Figure-10 stage breakdown of one query ([`QueryStats::stages`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Main-memory planning: cache search, case classification, MPR
    /// computation.
    pub processing: Duration,
    /// Reading points from storage (simulated I/O latency plus measured
    /// executor time).
    pub fetching: Duration,
    /// In-memory skyline computation.
    pub skyline: Duration,
}

impl StageTimes {
    /// Total query latency.
    pub fn total(&self) -> Duration {
        self.processing + self.fetching + self.skyline
    }
}

/// Statistics of one executed query: the one record the pipeline writes.
/// Every field is a plain value the executors add to directly;
/// [`QueryStats::stages`] and [`QueryStats::report`] are read off it.
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Rows of the queried regions read from the heap — the paper's
    /// "points read" metric.
    pub points_read: u64,
    /// Heap tuples fetched by the chosen storage plans (≥ `points_read`;
    /// the latency driver).
    pub heap_fetches: u64,
    /// Range queries handed to storage.
    pub range_queries_issued: u64,
    /// Range queries that touched the heap.
    pub range_queries_executed: u64,
    /// Range queries discarded by index-only emptiness detection.
    pub range_queries_empty: u64,
    /// Range queries saved by the coalescing fetch planner: regions it
    /// charged as part of a neighbor's merged range query because that
    /// was predicted cheaper than a query of their own.
    pub regions_coalesced: u64,
    /// Per-dimension B-tree probes during fetch planning.
    pub index_probes: u64,
    /// Index entries scanned by the chosen storage plans.
    pub index_entries_scanned: u64,
    /// Pairwise dominance tests performed: full row tests only. A pair
    /// the SFS filter's grid pre-test rejects is not counted.
    pub dominance_tests: u64,
    /// Measured time per [`Phase`] in nanoseconds, indexed by
    /// [`Phase::index`] — wall clock only; the simulated disk time of the
    /// fetch phase is [`QueryStats::fetch_sim_ns`].
    pub phase_ns: [u64; Phase::COUNT],
    /// Simulated storage fetch latency (nanoseconds) charged by the cost
    /// model — deterministic, unlike the measured phase times.
    pub fetch_sim_ns: u64,
    /// Whether a cached item was used.
    pub cache_hit: bool,
    /// Whether the cache was searched and offered no usable item (false
    /// for executors without a cache and for regions the service's
    /// indexes prove empty, which never reach the cache).
    pub cache_miss: bool,
    /// Overlap classification of the used cache item, if any.
    pub case: Option<Overlap>,
    /// Number of overlapping cache items the lookup returned.
    pub candidates: usize,
    /// Cached skyline points merged into the result computation.
    pub retained_points: u64,
    /// Cached skyline points invalidated by the new constraints.
    pub removed_points: u64,
    /// Regions in the executed (a)MPR plan.
    pub mpr_regions: u64,
    /// Cached skyline points used for pruning during MPR construction.
    pub mpr_prune_points: u64,
    /// Cached-region pieces invalidated by inverted-logic preprocessing.
    pub mpr_invalidated_pieces: u64,
    /// Result cardinality.
    pub result_size: u64,
    /// Whether this query's result was stored in the cache (0 or 1).
    pub insertions: u64,
    /// Items evicted while this query's result was being cached.
    pub evictions: u64,
    /// Whether a service answered the query empty because the indexes
    /// prove its region holds no row (0 or 1).
    pub negative_hits: u64,
    /// BBS-specific counters (BBS executor only).
    pub bbs: Option<BbsStats>,
}

impl QueryStats {
    /// Whether the used cache item was stable w.r.t. the query (None when
    /// no cache item was used).
    pub fn stable(&self) -> Option<bool> {
        self.case.map(Overlap::is_stable)
    }

    /// Adds the time measured since `since` to `phase`.
    pub(crate) fn time(&mut self, phase: Phase, since: Stopwatch) {
        self.phase_ns[phase.index()] += since.elapsed().as_nanos() as u64;
    }

    /// Folds one storage fetch into the counters and the simulated time.
    fn absorb(&mut self, fetch: FetchOutcome) {
        let f = fetch.stats;
        self.points_read += f.points_read;
        self.heap_fetches += f.heap_fetches;
        self.range_queries_issued += f.range_queries_issued;
        self.range_queries_executed += f.range_queries_executed;
        self.range_queries_empty += f.range_queries_empty;
        self.regions_coalesced += f.regions_coalesced;
        self.index_probes += f.index_probes;
        self.index_entries_scanned += f.index_entries_scanned;
        self.fetch_sim_ns += fetch.simulated_latency.as_nanos() as u64;
    }

    /// What a reader is shown for one phase: its measured time, plus —
    /// the one place the two are added — the simulated disk time for
    /// [`Phase::Fetch`], so the stage keeps the cost structure of the
    /// paper's disk-backed set-up.
    fn shown_ns(&self, phase: Phase) -> u64 {
        let sim = if phase == Phase::Fetch { self.fetch_sim_ns } else { 0 };
        self.phase_ns[phase.index()] + sim
    }

    /// The Figure-10 view: *processing* is the first three phases,
    /// *fetching* the fetch phase (measured plus simulated), *skyline*
    /// merge plus skyline.
    pub fn stages(&self) -> StageTimes {
        let sum =
            |phases: &[Phase]| Duration::from_nanos(phases.iter().map(|&p| self.shown_ns(p)).sum());
        StageTimes {
            processing: sum(&[Phase::CacheLookup, Phase::CaseAnalysis, Phase::MprCompute]),
            fetching: sum(&[Phase::Fetch]),
            skyline: sum(&[Phase::Merge, Phase::Skyline]),
        }
    }

    /// Renders the versioned report: the phases as shown (the fetch phase
    /// is measured plus simulated; [`names::FETCH_SIM_NS`] lets a reader
    /// split it) and every counter under its canonical name. The only
    /// user of [`skycache_obs::names`] in the pipeline.
    pub fn report(&self) -> QueryReport {
        let mut metrics = Registry::new();
        for (name, value) in [
            (names::CACHE_HITS, u64::from(self.cache_hit)),
            (names::CACHE_MISSES, u64::from(self.cache_miss)),
            (names::CACHE_EVICTIONS, self.evictions),
            (names::CACHE_INSERTIONS, self.insertions),
            (names::CACHE_CANDIDATES, self.candidates as u64),
            (names::CACHE_RETAINED_POINTS, self.retained_points),
            (names::CACHE_REMOVED_POINTS, self.removed_points),
            (names::FETCH_REGIONS, self.range_queries_issued),
            (names::FETCH_RQ_EXECUTED, self.range_queries_executed),
            (names::FETCH_RQ_EMPTY, self.range_queries_empty),
            (names::FETCH_POINTS_READ, self.points_read),
            (names::FETCH_HEAP_FETCHES, self.heap_fetches),
            (names::FETCH_INDEX_PROBES, self.index_probes),
            (names::FETCH_INDEX_ENTRIES, self.index_entries_scanned),
            (names::FETCH_REGIONS_COALESCED, self.regions_coalesced),
            (names::FETCH_SIM_NS, self.fetch_sim_ns),
            (names::MPR_REGIONS, self.mpr_regions),
            (names::MPR_PRUNE_POINTS, self.mpr_prune_points),
            (names::MPR_INVALIDATED_PIECES, self.mpr_invalidated_pieces),
            (names::SKYLINE_DOMINANCE_TESTS, self.dominance_tests),
            (names::SKYLINE_RESULT_SIZE, self.result_size),
            (names::SERVE_NEGATIVE_HITS, self.negative_hits),
        ] {
            metrics.add(name, value);
        }
        QueryReport::new(Phase::ALL.map(|p| self.shown_ns(p)), metrics)
    }
}

/// A constrained-skyline query executor.
pub trait Executor {
    /// Answers the request: `Sky(S, C)` for its constraints, honoring its
    /// recording flag.
    fn execute(&mut self, req: &QueryRequest) -> Result<QueryOutcome>;
}

pub(crate) fn check_dims(table: &Table, c: &Constraints) -> Result<()> {
    if table.dims() != c.dims() {
        return Err(CoreError::DimensionMismatch { expected: table.dims(), actual: c.dims() });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

/// The naive method of Börzsönyi et al.: one range query fetching all of
/// `S_C`, then the in-memory skyline algorithm (SFS, as in the paper's
/// evaluation).
pub struct BaselineExecutor<'t> {
    table: &'t Table,
    scratch: QueryScratch,
}

impl<'t> BaselineExecutor<'t> {
    /// Creates a Baseline executor.
    pub fn new(table: &'t Table) -> Self {
        BaselineExecutor { table, scratch: QueryScratch::default() }
    }
}

impl Executor for BaselineExecutor<'_> {
    fn execute(&mut self, req: &QueryRequest) -> Result<QueryOutcome> {
        let c = &req.constraints;
        check_dims(self.table, c)?;

        let mut stats = QueryStats::default();
        let skyline = query_naive(self.table, c, &mut self.scratch, &mut stats);
        Ok(QueryOutcome::finish(req, skyline, None, stats))
    }
}

// ---------------------------------------------------------------------------
// BBS
// ---------------------------------------------------------------------------

/// Simulated latency per R-tree node access (one page read): a random
/// page read on a cold cache — same order as the range executor's
/// per-seek charge, scaled down because R-tree traversals enjoy some
/// upper-level locality.
const BBS_NODE_NS: u64 = 2_000_000;

/// The I/O-optimal BBS method of Papadias et al. over an STR-bulk-loaded
/// R\*-tree of the dataset.
///
/// BBS's branch-and-bound traversal *is* its skyline algorithm: its
/// measured time is the skyline phase, its node accesses are charged as
/// simulated fetch time.
pub struct BbsExecutor<'t> {
    table: &'t Table,
    tree: RStarTree<u32>,
}

impl<'t> BbsExecutor<'t> {
    /// Builds the R-tree of the table's live rows (STR bulk load) and the
    /// executor. Tombstoned slots stay out of the tree, so BBS never
    /// answers with a deleted point.
    pub fn new(table: &'t Table) -> Self {
        let tree = RStarTree::bulk_load_points(
            table.live_points().map(|(row, p)| (p.clone(), row)),
            RTreeParams::default(),
        );
        BbsExecutor { table, tree }
    }
}

impl Executor for BbsExecutor<'_> {
    fn execute(&mut self, req: &QueryRequest) -> Result<QueryOutcome> {
        let c = &req.constraints;
        check_dims(self.table, c)?;
        let mut stats = QueryStats::default();

        let t0 = Stopwatch::start();
        let out = bbs_constrained(&self.tree, c);
        // BBS interleaves I/O and computation; attribute the simulated
        // node-access latency to fetching and the measured CPU time to the
        // skyline stage.
        stats.time(Phase::Skyline, t0);
        stats.fetch_sim_ns = BBS_NODE_NS * out.stats.node_accesses;
        stats.dominance_tests = out.stats.dominance_tests;
        stats.points_read = out.stats.entries_popped - out.stats.node_accesses;
        stats.bbs = Some(out.stats);

        Ok(QueryOutcome::finish(req, out.skyline, None, stats))
    }
}

// ---------------------------------------------------------------------------
// CBCS
// ---------------------------------------------------------------------------

/// Configuration of the CBCS executor.
#[derive(Clone, Debug)]
pub struct CbcsConfig {
    /// Exact MPR or the approximate MPR with `k` nearest neighbors.
    pub mpr: MprMode,
    /// Cache search strategy (Section 6.1).
    pub strategy: SearchStrategy,
    /// Cache capacity (`None` = unbounded, as in the paper's experiments).
    pub capacity: Option<usize>,
    /// Eviction policy when a capacity is set.
    pub policy: ReplacementPolicy,
    /// Seed for the `Random` strategy.
    pub seed: u64,
}

impl Default for CbcsConfig {
    fn default() -> Self {
        CbcsConfig {
            mpr: MprMode::Approximate { k: 1 },
            strategy: SearchStrategy::MaxOverlapSP,
            capacity: None,
            policy: ReplacementPolicy::Lru,
            seed: 0xC0FFEE,
        }
    }
}

/// The naive method's path: one constraint range query into the reusable
/// fetch scratch, then the skyline kernel directly over the columnar
/// rows.
fn query_naive(
    table: &Table,
    c: &Constraints,
    scratch: &mut QueryScratch,
    stats: &mut QueryStats,
) -> Vec<Point> {
    crate::shared::assert_guards_held(0);
    fetch_into(table, &FetchPlan::constrained(c), &mut scratch.fetch, stats);

    let t1 = Stopwatch::start();
    let dims = table.dims();
    let QueryScratch { fetch, sky, sky_out, .. } = scratch;
    let out = reuse_block(sky_out, dims);
    stats.dominance_tests += Sfs.compute_block_into(fetch.rows().coords(), dims, sky, out);
    stats.time(Phase::Skyline, t1);
    out.to_points()
}

/// One storage fetch: runs `plan` into `fetch`'s columnar buffers, times
/// it, and folds the storage counters and the cost model's simulated
/// latency into `stats`.
fn fetch_into(table: &Table, plan: &FetchPlan, fetch: &mut FetchScratch, stats: &mut QueryStats) {
    let t0 = Stopwatch::start();
    let outcome = table.fetch_plan_into(plan, fetch);
    stats.time(Phase::Fetch, t0);
    stats.absorb(outcome);
}

/// A cache hit: the plan's counters, then the fetch stage — or, for a
/// plan that fetches nothing, the retained points as they are.
pub(crate) fn query_planned(
    table: &Table,
    c: &Constraints,
    plan: QueryPlan,
    scratch: &mut QueryScratch,
    stats: &mut QueryStats,
) -> Vec<Point> {
    crate::shared::assert_guards_held(0);
    stats.case = Some(plan.overlap);
    stats.retained_points = plan.retained.len() as u64;
    stats.removed_points = plan.removed_points as u64;
    stats.mpr_regions = plan.regions.len() as u64;
    stats.mpr_prune_points = plan.prune_points_used as u64;
    stats.mpr_invalidated_pieces = plan.invalidated_pieces as u64;
    if plan.needs_skyline {
        scratch.fetch_stage(table, c, plan.regions, plan.retained.as_flat(), stats)
    } else {
        plan.retained.to_points()
    }
}

/// Corner skyline rows tried as pruning points, best first.
const CORNER_CANDIDATES: usize = 8;

impl QueryScratch {
    /// The fetch stage of every computed answer, miss or hit: reads
    /// `regions` — the part of `R_C′` the cache leaves unknown, all of it
    /// on a miss — with one plan (overlapping or abutting index ranges
    /// merge into one range query where that is cheaper; the regions are
    /// disjoint, so each row is read once), merges the rows with the
    /// `retained` ones (flat rows) and runs the skyline kernel over them.
    /// Where the cost model predicts it pays, the corner-first step reads
    /// the lower corner of `R_C′` first ([`QueryScratch::corner_first`]).
    ///
    /// The merge is Theorem 6's union `retained ∪ fetch(MPR)` as a
    /// multiset, so a row must not enter it twice. It holds the corner's
    /// skyline rows (a corner row dominated in the corner is dominated in
    /// `R_C′`), the retained rows that no read region (the corner, then
    /// the remainder) contains, and every fetched row. That is exact
    /// because the fetch emits every live row a read region contains,
    /// once ([`rect::contains`] is its post-filter), and a cached skyline
    /// is `Sky(S, C)` with multiplicity: [`crate::Cache::on_insert`] folds
    /// in every new row, copies included, and [`crate::Cache::on_delete`]
    /// drops each item holding a deleted row's coordinates. So a retained
    /// row inside a read region comes back from the fetch, once per copy.
    /// Numerically equal rows fall in one of the three groups, in their
    /// fetch order, so the skyline's order does not depend on the groups'.
    pub fn fetch_stage(
        &mut self,
        table: &Table,
        c: &Constraints,
        regions: Regions,
        retained: &[f64],
        stats: &mut QueryStats,
    ) -> Vec<Point> {
        crate::shared::assert_guards_held(0);
        let dims = table.dims();
        reuse_block(&mut self.merged, dims).clear();
        let plan = FetchPlan::new(self.corner_first(table, c, regions, stats));
        fetch_into(table, &plan, &mut self.fetch, stats);

        let t0 = Stopwatch::start();
        let read = |row: &[f64]| {
            (self.corner.taken && rect::contains(&self.corner.region[0], row))
                || plan.regions.iter().any(|region| rect::contains(region, row))
        };
        let merged = reuse_block(&mut self.merged, dims);
        let kept = retained.chunks_exact(dims).filter(|row| !read(row));
        for row in kept.chain(self.fetch.rows().coords().chunks_exact(dims)) {
            merged.push_row(row);
        }
        if self.corner.taken {
            // The step fetched its own remainder list: it goes back.
            self.corner.regions.rest = plan.regions;
        }
        stats.time(Phase::Merge, t0);

        let t1 = Stopwatch::start();
        let out = reuse_block(&mut self.sky_out, dims);
        stats.dominance_tests += Sfs.compute_block_into(merged.as_flat(), dims, &mut self.sky, out);
        stats.time(Phase::Skyline, t1);
        // The returned skyline, owned at the public-API boundary.
        out.to_points()
    }

    /// The corner-first step (DESIGN.md §18): when [`CornerScratch::choose`]
    /// predicts it pays, one range query reads the lower corner of `R_C′`,
    /// its skyline goes into the merge block, and those rows `u`, largest
    /// dominated volume inside `R_C′` first, each subtract `DR(u, C′)` from
    /// `regions ∖ corner` if that lowers its predicted cost
    /// ([`Table::predict_region`]), [`CORNER_CANDIDATES`] tried at most.
    /// Returns what is left to fetch — `regions` as they are if the step
    /// does not pay or the corner holds no row, which leaves it not
    /// taken. The choice and the pruning are timed as MPR computation,
    /// the corner read as fetch, its skyline as skyline.
    fn corner_first(
        &mut self,
        table: &Table,
        c: &Constraints,
        regions: Regions,
        stats: &mut QueryStats,
    ) -> Regions {
        let t0 = Stopwatch::start();
        self.corner.taken = self.corner.choose(table, c, &regions);
        stats.time(Phase::MprCompute, t0);
        if !self.corner.taken {
            return regions;
        }
        // The corner's plan borrows its region buffer and gives it back.
        let plan = FetchPlan::new(std::mem::take(&mut self.corner.region));
        fetch_into(table, &plan, &mut self.fetch, stats);
        self.corner.region = plan.regions;
        let (dims, rows) = (table.dims(), self.fetch.rows().coords());
        if rows.is_empty() {
            // No row there, so no retained row either: nothing was read.
            self.corner.taken = false;
            return regions;
        }
        let t1 = Stopwatch::start();
        let candidates = reuse_block(&mut self.merged, dims);
        stats.dominance_tests += Sfs.compute_block_into(rows, dims, &mut self.sky, candidates);
        stats.time(Phase::Skyline, t1);

        let t2 = Stopwatch::start();
        let (s, lo, hi) = (&mut self.corner, c.lo(), c.hi());
        let dominated = |u: &[f64]| -> f64 {
            u.iter().zip(lo.iter().zip(hi)).map(|(&u, (&l, &h))| h - u.max(l)).product()
        };
        s.order.clear();
        // A reused buffer: it grows to its high-water mark once.
        s.order.extend(candidates.rows().enumerate().map(|(i, u)| (dominated(u), i as u32)));
        s.order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut cost: f64 = s.regions.rest_ns.iter().sum();
        for &(_, i) in s.order.iter().take(CORNER_CANDIDATES) {
            // `DR(u, C′)` is the box from `max(u, C̲′)` to `C̄′`.
            for ((key, &u), &l) in s.cut.iter_mut().zip(candidates.row(i as usize)).zip(lo) {
                *key = u.max(l);
            }
            let trial = s.regions.carve(table, &s.cut, hi);
            if trial < cost {
                s.regions.keep_trial();
                cost = trial;
            }
        }
        stats.time(Phase::MprCompute, t2);
        // Lent to the fetch; `fetch_stage` gives it back.
        std::mem::take(&mut s.regions.rest)
    }
}

impl CornerScratch {
    /// The corner-first step's choice, on predicted cost alone
    /// ([`Table::predict_region`]): whether to read the corner `[C̲′, cut]`
    /// of `R_C′` predicted to hold one seek's worth of rows
    /// ([`Table::corner_cut`]) — left in `self.region` — because reading
    /// it and then `regions ∖ corner ∖ [cut, C̄′]` is predicted to cost
    /// less than reading `regions`. `regions ∖ corner` is left as the
    /// remainder.
    fn choose(&mut self, table: &Table, c: &Constraints, regions: &Regions) -> bool {
        let rows = table.config().cost_model.seek_rows();
        let (lo, hi, r) = (c.lo(), c.hi(), &mut self.regions);
        self.region.clear();
        self.region.push_closed(lo, hi);
        self.cut.resize(lo.len(), 0.0);
        // Any row of a non-empty corner dominates [cut, C̄′]: go on only if
        // that space is predicted to hold two seeks' worth of rows.
        let Some(dominated) = table.corner_cut(&self.region[0], rows, &mut self.cut) else {
            return false;
        };
        if dominated < 2.0 * rows {
            return false;
        }
        self.region.clear();
        self.region.push_closed(lo, &self.cut);
        let corner = table.predict_region(&self.region[0]).ns;
        r.rest.clear();
        r.rest_ns.clear();
        // A reused buffer: it grows to its high-water mark once.
        r.rest.extend(regions.iter());
        // A reused buffer: it grows to its high-water mark once.
        r.rest_ns.extend(regions.iter().map(|region| table.predict_region(region).ns));
        let before: f64 = r.rest_ns.iter().sum();
        r.carve(table, lo, &self.cut);
        r.keep_trial();
        corner + r.carve(table, &self.cut, hi) < before
    }
}

impl Remainder {
    /// Carves the closed box `[lo, hi]` out of the remainder into the
    /// trial list ([`subtract::carve`]) and returns the trial's predicted
    /// cost. Only the pieces are priced: a region the box misses keeps its
    /// cost.
    fn carve(&mut self, table: &Table, lo: &[f64], hi: &[f64]) -> f64 {
        let (out, costs) = (&mut self.trial, &mut self.trial_ns);
        out.clear();
        costs.clear();
        for (r, &ns) in self.rest.iter().zip(&self.rest_ns) {
            let at = out.len();
            if subtract::carve(r, lo, hi, out) {
                // A reused buffer: it grows to its high-water mark once.
                costs.extend(out.iter().skip(at).map(|piece| table.predict_region(piece).ns));
            } else {
                // A reused buffer: it grows to its high-water mark once.
                costs.push(ns);
            }
        }
        costs.iter().sum()
    }

    /// Makes the trial list the remainder. A copy, not a swap: each
    /// buffer keeps its role, so its high-water mark is its role's and
    /// not a function of how many trials were kept.
    fn keep_trial(&mut self) {
        self.rest.clear();
        self.rest.extend(self.trial.iter());
        self.rest_ns.clear();
        self.rest_ns.extend_from_slice(&self.trial_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::service::{Service, ServiceConfig};
    use skycache_storage::TableConfig;

    fn p(coords: &[f64]) -> Point {
        Point::from(coords.to_vec())
    }

    fn grid_table() -> Table {
        // 20x20 grid over [0, 1.9]^2 with step 0.1.
        let points: Vec<Point> = (0..20)
            .flat_map(|i| (0..20).map(move |j| p(&[f64::from(i) / 10.0, f64::from(j) / 10.0])))
            .collect();
        Table::build(points, TableConfig::default()).unwrap()
    }

    fn c(pairs: &[(f64, f64)]) -> Constraints {
        Constraints::from_pairs(pairs).unwrap()
    }

    fn run(ex: &mut impl Executor, cc: &Constraints) -> QueryOutcome {
        ex.execute(&QueryRequest::new(cc.clone())).unwrap()
    }

    /// The CBCS executor: a session of this service.
    fn open(table: &Table, config: CbcsConfig) -> Service<'_> {
        Service::open(table, ServiceConfig::with_cbcs(config))
    }

    /// The skyline of the corner the fetch stage read, if it took the
    /// corner step: the corner region read again into a fresh buffer.
    fn corner_skyline(table: &Table, scratch: &QueryScratch) -> Vec<f64> {
        let mut fetch = FetchScratch::default();
        if scratch.corner.taken {
            table.fetch_plan_into(&FetchPlan::new(scratch.corner.region.clone()), &mut fetch);
        }
        let (dims, mut out) = (table.dims(), PointBlock::new(table.dims()).unwrap());
        Sfs.compute_block_into(fetch.rows().coords(), dims, &mut SkylineScratch::new(), &mut out);
        out.as_flat().to_vec()
    }

    #[test]
    fn baseline_computes_constrained_skyline() {
        let table = grid_table();
        let mut ex = BaselineExecutor::new(&table);
        let res = run(&mut ex, &c(&[(0.5, 1.0), (0.5, 1.0)]));
        // The grid's constrained skyline is the single corner (0.5, 0.5).
        assert_eq!(res.skyline, vec![p(&[0.5, 0.5])]);
        assert!(res.stats.points_read > 0);
        assert_eq!(res.stats.range_queries_issued, 1);
    }

    #[test]
    fn executors_agree() {
        let table = grid_table();
        let mut baseline = BaselineExecutor::new(&table);
        let mut bbs = BbsExecutor::new(&table);
        let service = open(&table, CbcsConfig::default());
        let mut cbcs = service.session();
        for cc in [
            c(&[(0.3, 1.2), (0.2, 0.8)]),
            c(&[(0.35, 1.2), (0.2, 0.8)]),
            c(&[(0.35, 1.4), (0.2, 0.8)]),
            c(&[(0.0, 1.9), (0.0, 1.9)]),
        ] {
            let mut a = run(&mut baseline, &cc).skyline;
            let mut b = run(&mut bbs, &cc).skyline;
            let mut d = run(&mut cbcs, &cc).skyline;
            let key = |x: &Point| (x[0].to_bits(), x[1].to_bits());
            a.sort_by_key(key);
            b.sort_by_key(key);
            d.sort_by_key(key);
            assert_eq!(a, b, "BBS diverged on {cc:?}");
            assert_eq!(a, d, "CBCS diverged on {cc:?}");
        }
    }

    /// A 10 × 10 integer grid with `(0, 0)` deleted: BBS must answer from
    /// the live rows, as Baseline does, not from every heap slot.
    #[test]
    fn bbs_skips_deleted_rows() {
        let points: Vec<Point> =
            (0..10).flat_map(|i| (0..10).map(move |j| p(&[f64::from(i), f64::from(j)]))).collect();
        let mut table = Table::build(points, TableConfig::default()).unwrap();
        assert_eq!(table.delete(0), Some(p(&[0.0, 0.0])));
        let cc = c(&[(0.0, 9.0), (0.0, 9.0)]);
        let mut want = run(&mut BaselineExecutor::new(&table), &cc).skyline;
        let mut got = run(&mut BbsExecutor::new(&table), &cc).skyline;
        let key = |x: &Point| (x[0].to_bits(), x[1].to_bits());
        want.sort_by_key(key);
        got.sort_by_key(key);
        assert_eq!(want, vec![p(&[0.0, 1.0]), p(&[1.0, 0.0])]);
        assert_eq!(got, want);
    }

    #[test]
    fn cbcs_first_query_misses_then_hits() {
        let table = grid_table();
        let service = open(&table, CbcsConfig::default());
        let mut cbcs = service.session();
        let c1 = c(&[(0.2, 1.0), (0.2, 1.0)]);
        let r1 = run(&mut cbcs, &c1);
        assert!(!r1.stats.cache_hit);
        assert_eq!(service.cache().len(), 1);

        // Case (c): widen the upper bound of dim 0.
        let c2 = c(&[(0.2, 1.2), (0.2, 1.0)]);
        let r2 = run(&mut cbcs, &c2);
        assert!(r2.stats.cache_hit);
        assert_eq!(r2.stats.case, Some(Overlap::CaseC { dim: 0 }));
        assert!(r2.stats.points_read < r1.stats.points_read);
    }

    #[test]
    fn cbcs_case_b_needs_no_fetch() {
        let table = grid_table();
        let service = open(&table, CbcsConfig::default());
        let mut cbcs = service.session();
        let c1 = c(&[(0.2, 1.0), (0.2, 1.0)]);
        run(&mut cbcs, &c1);
        let c2 = c(&[(0.2, 0.8), (0.2, 1.0)]);
        let r2 = run(&mut cbcs, &c2);
        assert_eq!(r2.stats.case, Some(Overlap::CaseB { dim: 0 }));
        assert_eq!(r2.stats.points_read, 0);
        assert_eq!(r2.stats.range_queries_issued, 0);
        assert_eq!(r2.stats.dominance_tests, 0);
    }

    /// Lowering two upper bounds of a cached box is no named case, but its
    /// MPR is empty as Case (b)'s is: the retained rows are the answer,
    /// with no range query and no dominance test.
    #[test]
    fn cbcs_empty_mpr_hit_runs_no_skyline() {
        let table = twin_plane_table();
        let service = open(&table, CbcsConfig::default());
        let mut cbcs = service.session();
        run(&mut cbcs, &c(&[(2.0, 9.0); 3]));
        let c2 = c(&[(2.0, 9.0), (2.0, 7.0), (2.0, 6.0)]);
        let r2 = run(&mut cbcs, &c2);
        assert_eq!(r2.stats.case, Some(Overlap::GeneralStable));
        assert_eq!((r2.stats.mpr_regions, r2.stats.range_queries_issued), (0, 0));
        assert_eq!((r2.stats.points_read, r2.stats.dominance_tests), (0, 0));
        let key = |x: &Point| x.coords().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut got = r2.skyline;
        let mut want = run(&mut BaselineExecutor::new(&table), &c2).skyline;
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert!(want.len() > 1);
        assert_eq!(got, want);
    }

    #[test]
    fn cbcs_exact_hit_is_free() {
        let table = grid_table();
        let service = open(&table, CbcsConfig::default());
        let mut cbcs = service.session();
        let c1 = c(&[(0.2, 1.0), (0.2, 1.0)]);
        let r1 = run(&mut cbcs, &c1);
        let r2 = run(&mut cbcs, &c1);
        assert_eq!(r2.stats.case, Some(Overlap::Exact));
        assert_eq!(r2.stats.points_read, 0);
        assert_eq!(r2.skyline, r1.skyline);
    }

    #[test]
    fn cbcs_matches_baseline_on_unstable_chain() {
        let table = grid_table();
        let mut baseline = BaselineExecutor::new(&table);
        let service = open(&table, CbcsConfig::default());
        let mut cbcs = service.session();
        let chain = [
            c(&[(0.0, 1.5), (0.0, 1.5)]),
            c(&[(0.3, 1.5), (0.0, 1.5)]), // case (d): lower increased
            c(&[(0.3, 1.5), (0.4, 1.5)]), // case (d) again
            c(&[(0.2, 1.5), (0.4, 1.5)]), // case (a)
        ];
        for cc in &chain {
            let mut a = run(&mut baseline, cc).skyline;
            let mut b = run(&mut cbcs, cc).skyline;
            let key = |x: &Point| (x[0].to_bits(), x[1].to_bits());
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a, b, "diverged on {cc:?}");
        }
    }

    /// `-0.0` and `0.0` are one coordinate: a cached query bounded above
    /// by `x ≤ -0.0` leaves `x > 0` unknown to the next query, not
    /// `x ≥ 0`. The plan is `(0, 1] × [0, 0.25)` alone — the part of
    /// `R_C′` the cached row `(0, 0.25)` does not dominate — and without
    /// pruning it does not overlap the column `[0, -0.0] × (0.5, 1]`.
    #[test]
    fn signed_zero_bounds_leave_no_overlapping_regions() {
        let points: Vec<Point> = (0..10)
            .flat_map(|i| (1..=10).map(move |j| p(&[f64::from(i) / 4.0, f64::from(j) / 4.0])))
            .collect();
        let table = Table::build(points, TableConfig::default()).unwrap();
        let (c1, c2) = (c(&[(-1.0, -0.0), (0.0, 0.5)]), c(&[(0.0, 1.0), (0.0, 1.0)]));
        let want = run(&mut BaselineExecutor::new(&table), &c2).skyline;
        for (k, regions) in [(1, 1), (0, 2)] {
            let config = CbcsConfig { mpr: MprMode::Approximate { k }, ..Default::default() };
            let service = open(&table, config);
            let mut cbcs = service.session();
            assert_eq!(run(&mut cbcs, &c1).skyline, vec![p(&[0.0, 0.25])]);
            let r2 = run(&mut cbcs, &c2);
            assert!(r2.stats.cache_hit);
            assert_eq!(r2.stats.mpr_regions, regions, "k = {k}");
            assert_eq!(r2.skyline, want);
        }
    }

    /// aMPR(0) prunes nothing with the retained points, and raising both
    /// lower bounds removes the staircase's two end rows: the invalid
    /// cover, the bounding box of what they dominated in `R_C′`, is all of
    /// `C′`. The stage reads every retained row again, and each must
    /// enter the merge once: the merge is the corner's skyline and the
    /// fetched rows.
    #[test]
    fn cbcs_no_duplicates_with_small_k() {
        // The integer points of `[0, 19]²` on or above `x + y = 10`.
        let staircase = (0..20).flat_map(|x| (0..20).map(move |y| [x, y]));
        let points: Vec<Point> =
            staircase.filter(|q| q[0] + q[1] >= 10).map(|q| p(&q.map(f64::from))).collect();
        let table = Table::build(points, TableConfig::default()).unwrap();
        let (c_old, c_new) = (c(&[(2.0, 10.0); 2]), c(&[(3.0, 10.0); 2]));
        let cached = run(&mut BaselineExecutor::new(&table), &c_old).skyline;
        let cached = PointBlock::from_points(&cached).unwrap();
        let plan = crate::cases::plan(&c_old, &cached, &c_new, MprMode::Approximate { k: 0 });
        let retained = plan.retained.len();
        assert_eq!((cached.len(), retained), (7, 5));
        let (mut scratch, mut stats) = (QueryScratch::default(), QueryStats::default());
        let mut sky = query_planned(&table, &c_new, plan, &mut scratch, &mut stats);
        let corner = corner_skyline(&table, &scratch).len() / 2;
        let merged = scratch.merged.as_ref().unwrap().len();
        assert_eq!(merged, corner + scratch.fetch.rows().len(), "no retained row was read again");

        let key = |x: &Point| (x[0].to_bits(), x[1].to_bits());
        sky.sort_by_key(key);
        let mut want = run(&mut BaselineExecutor::new(&table), &c_new).skyline;
        want.sort_by_key(key);
        assert_eq!(sky, want);
        sky.dedup();
        assert_eq!(sky.len(), want.len(), "duplicate points in result");
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let table = grid_table();
        let mut ex = BaselineExecutor::new(&table);
        let bad = Constraints::from_pairs(&[(0.0, 1.0)]).unwrap();
        assert!(matches!(
            ex.execute(&QueryRequest::new(bad)),
            Err(CoreError::DimensionMismatch { expected: 2, actual: 1 })
        ));
    }

    /// The integer points of `[0, 9]³` on or above the plane
    /// `x + y + z = 12`, every one stored twice: a box's skyline is the
    /// plane's points in it.
    fn twin_plane_table() -> Table {
        let cell = (0..10).map(f64::from);
        let points: Vec<Point> = cell
            .clone()
            .flat_map(|x| {
                cell.clone().flat_map(move |y| (0..10).map(move |z| [x, y, f64::from(z)]))
            })
            .filter(|q| q.iter().sum::<f64>() >= 12.0)
            .flat_map(|q| [p(&q), p(&q)])
            .collect();
        Table::build(points, TableConfig::default()).unwrap()
    }

    /// The merge keeps a retained row only outside the regions the stage
    /// read: the merged rows are the retained rows, the corner's skyline
    /// and the fetched rows, minus one read copy per bit-identical
    /// retained row, and the answer is Baseline's. Both hits are unstable
    /// under aMPR(0), whose invalid cover re-reads retained rows: 3 twin
    /// rows on the first, which stays off the corner step, and every
    /// retained row on the second, whose corner read holds some of them.
    #[test]
    fn merge_drops_retained_rows_the_stage_read() {
        use std::collections::BTreeMap;
        fn bits(row: &[f64]) -> Vec<u64> {
            row.iter().map(|v| v.to_bits()).collect()
        }
        fn sorted<'a>(rows: impl Iterator<Item = &'a [f64]>) -> Vec<Vec<u64>> {
            let mut rows: Vec<_> = rows.map(bits).collect();
            rows.sort();
            rows
        }
        let table = twin_plane_table();
        for (hi, corner_taken, dropped) in [(6.0, false, 6), (9.0, true, 42)] {
            let c_old = c(&[(2.0, hi); 3]);
            let c_new = c(&[(3.0, hi), (2.0, hi), (2.0, hi)]);
            let cached = run(&mut BaselineExecutor::new(&table), &c_old).skyline;
            let cached = PointBlock::from_points(&cached).unwrap();
            let plan = crate::cases::plan(&c_old, &cached, &c_new, MprMode::Approximate { k: 0 });
            let retained = plan.retained.clone();
            let (mut scratch, mut stats) = (QueryScratch::default(), QueryStats::default());
            let got = query_planned(&table, &c_new, plan, &mut scratch, &mut stats);
            assert_eq!(scratch.corner.taken, corner_taken, "C̄ = {hi}");

            let corner = corner_skyline(&table, &scratch);
            let mut copies: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
            for row in retained.rows() {
                *copies.entry(bits(row)).or_default() += 1;
            }
            let fetched: Vec<&[f64]> = corner
                .chunks_exact(3)
                .chain(scratch.fetch.rows().coords().chunks_exact(3))
                .collect();
            let mut want = retained.as_flat().to_vec();
            for row in &fetched {
                match copies.get_mut(&bits(row)) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => want.extend_from_slice(row),
                }
            }
            let merged = scratch.merged.as_ref().unwrap();
            assert_eq!(merged.len() + dropped, retained.len() + fetched.len(), "C̄ = {hi}");
            assert_eq!(sorted(merged.rows()), sorted(want.chunks_exact(3)), "C̄ = {hi}");

            let want = run(&mut BaselineExecutor::new(&table), &c_new).skyline;
            let (got, want) = (got.iter().map(Point::coords), want.iter().map(Point::coords));
            assert_eq!(sorted(got), sorted(want), "C̄ = {hi}");
        }
    }

    #[test]
    fn regions_coalesced_maps_into_stats() {
        let mut stats = QueryStats::default();
        let fetch = skycache_storage::FetchStats { regions_coalesced: 3, ..Default::default() };
        stats.absorb(FetchOutcome { stats: fetch, simulated_latency: Duration::from_nanos(7) });
        assert_eq!(stats.regions_coalesced, 3);
        assert_eq!(stats.fetch_sim_ns, 7);
        assert_eq!(stats.report().counter(names::FETCH_REGIONS_COALESCED), 3);
    }

    #[test]
    fn stage_times_total() {
        let t = StageTimes {
            processing: Duration::from_millis(1),
            fetching: Duration::from_millis(2),
            skyline: Duration::from_millis(3),
        };
        assert_eq!(t.total(), Duration::from_millis(6));
    }

    #[test]
    fn request_without_recording_has_no_report() {
        let table = grid_table();
        let service = open(&table, CbcsConfig::default());
        let mut cbcs = service.session();
        let out = cbcs.execute(&QueryRequest::new(c(&[(0.2, 1.0), (0.2, 1.0)]))).unwrap();
        assert!(out.report.is_none());
    }

    #[test]
    fn recorded_request_reports_spans_and_counters() {
        let table = grid_table();
        let service = open(&table, CbcsConfig::default());
        let mut cbcs = service.session();
        let c1 = c(&[(0.2, 1.0), (0.2, 1.0)]);
        let miss = cbcs.execute(&QueryRequest::new(c1.clone()).recorded()).unwrap().report.unwrap();
        assert_eq!(miss.counter(names::CACHE_MISSES), 1);
        assert_eq!(miss.counter(names::CACHE_HITS), 0);
        assert_eq!(miss.counter(names::CACHE_INSERTIONS), 1);
        assert!(miss.counter(names::FETCH_POINTS_READ) > 0);
        assert!(miss.phase_ns(Phase::Skyline) > 0);

        // Case (a) hit (lower bound widened): MPR regions must be
        // fetched, and the cache counters appear.
        let c2 = c(&[(0.1, 1.0), (0.2, 1.0)]);
        let hit = cbcs.execute(&QueryRequest::new(c2).recorded()).unwrap().report.unwrap();
        assert_eq!(hit.counter(names::CACHE_HITS), 1);
        assert_eq!(hit.counter(names::CACHE_MISSES), 0);
        assert!(hit.counter(names::CACHE_RETAINED_POINTS) > 0);
        assert!(hit.counter(names::MPR_REGIONS) > 0);
        // The report carries the same totals as the always-on stats.
        let out = cbcs.execute(&QueryRequest::new(c1).recorded()).unwrap();
        let report = out.report.unwrap();
        assert_eq!(report.counter(names::FETCH_POINTS_READ), out.stats.points_read);
        assert_eq!(report.counter(names::SKYLINE_RESULT_SIZE), out.stats.result_size);
    }

    #[test]
    fn recording_reports_evictions() {
        let table = grid_table();
        let config = CbcsConfig { capacity: Some(1), ..CbcsConfig::default() };
        let service = open(&table, config);
        let mut cbcs = service.session();
        run(&mut cbcs, &c(&[(0.2, 1.0), (0.2, 1.0)]));
        // Disjoint constraints: a miss whose insert evicts the first item.
        let out =
            cbcs.execute(&QueryRequest::new(c(&[(1.2, 1.9), (1.2, 1.9)])).recorded()).unwrap();
        let report = out.report.unwrap();
        assert_eq!(report.counter(names::CACHE_EVICTIONS), 1);
        assert_eq!(service.cache().with_read(Cache::evictions), 1);
    }
}
