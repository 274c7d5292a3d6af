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
use skycache_geom::{Constraints, HyperRect, Interval, Point, PointBlock};
use skycache_obs::{names, Phase, QueryReport, Registry};
use skycache_rtree::{RStarTree, RTreeParams};
use skycache_storage::{FetchOutcome, FetchPlan, FetchScratch, RowId, Table};

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
pub(crate) struct QueryScratch {
    /// Storage-side fetch buffers (row ids + columnar coordinates).
    pub(crate) fetch: FetchScratch,
    /// The corner-first step's buffers.
    corner: CornerScratch,
    /// Skyline-kernel ordering buffer.
    sky: SkylineScratch,
    /// Merge output: retained ∪ fetched rows, deduplicated.
    merged: Option<PointBlock>,
    /// Skyline output block.
    sky_out: Option<PointBlock>,
    /// Bounding box of the retained points: lower corner, then upper.
    merge_box: Vec<f64>,
    /// Indices of retained points sorted by coordinate bit pattern.
    merge_order: Vec<u32>,
    /// Per retained point: fetched duplicate copies still to drop.
    dup_budget: Vec<u32>,
    /// Cache-lookup scratch: cover-ordered candidate item ids, reused
    /// across queries so the lookup path allocates nothing in steady
    /// state (mirrors [`FetchScratch`] on the storage side).
    pub(crate) lookup_ids: Vec<u64>,
}

impl QueryScratch {
    /// Row ids of the last fetch stage's reads: the corner's, if it read
    /// one, then the remainder's.
    pub(crate) fn fetched_ids(&self) -> Vec<RowId> {
        let corner = if self.corner.taken { self.corner.fetch.rows().ids() } else { &[] };
        [corner, self.fetch.rows().ids()].concat()
    }
}

/// The corner-first step's buffers (DESIGN.md §18), reused across queries
/// so that in steady state it allocates only the regions it hands to
/// storage.
#[derive(Default)]
struct CornerScratch {
    /// The corner range query's rows, and whether this query read them.
    fetch: FetchScratch,
    taken: bool,
    /// The corner's upper keys, then one pruning point's `DR` lower corner.
    cut: Vec<f64>,
    /// Pruning candidates: dominated volume inside `R_C′`, skyline row.
    order: Vec<(f64, u32)>,
    regions: Remainder,
}

/// The remainder being pruned and a trial one: region lists of `d`
/// intervals per region, beside the predicted nanoseconds of each region
/// fetched by a range query of its own.
#[derive(Default)]
struct Remainder {
    rest: Vec<Interval>,
    rest_ns: Vec<f64>,
    trial: Vec<Interval>,
    trial_ns: Vec<f64>,
}

/// Hands out a cleared [`PointBlock`] of the right dimensionality from a
/// lazily initialized scratch slot, reusing its capacity across queries.
fn reuse_block(slot: &mut Option<PointBlock>, dims: usize) -> &mut PointBlock {
    if !matches!(slot, Some(b) if b.dims() == dims) {
        // skylint: allow(no-panic-paths) — Table construction enforces dims > 0.
        *slot = Some(PointBlock::new(dims).expect("tables are at least one-dimensional"));
    }
    // skylint: allow(no-panic-paths) — the slot was just filled above.
    let block = slot.as_mut().expect("slot initialized above");
    block.clear();
    block
}

/// Total order on coordinate rows by bit pattern — identity is `to_bits`
/// equality per coordinate (`-0.0 ≠ 0.0`, NaN payloads distinct). Only
/// grouping matters; the order itself is arbitrary but consistent.
fn cmp_bits(a: &[f64], b: &[f64]) -> std::cmp::Ordering {
    a.iter().map(|v| v.to_bits()).cmp(b.iter().map(|v| v.to_bits()))
}

/// Fills `merged` with the retained rows (flat, `merged`'s stride)
/// followed by the fetched rows that survive deduplication, dropping one
/// fetched copy per identical retained row: with the approximate MPR,
/// regions not pruned by a retained point `u` may re-fetch `u`'s stored
/// row, and a corner read may re-fetch any retained row; keeping both
/// copies would duplicate `u` in the result.
///
/// Only a fetched row inside the retained rows' bounding box can be such
/// a copy — a row bit-identical to a retained one is numerically inside
/// it — and few are, so every other row is copied straight through, and
/// the sorted index of the retained rows is built when the first fetched
/// row lands inside the box, if one does. `bbox`, `order` and `budget`
/// are reusable buffers.
fn merge_rows<'a>(
    retained: &[f64],
    fetched: impl Iterator<Item = &'a [f64]>,
    merged: &mut PointBlock,
    bbox: &mut Vec<f64>,
    order: &mut Vec<u32>,
    budget: &mut Vec<u32>,
) {
    // Lower corner then upper corner; empty (nothing is inside) until a
    // retained row widens it.
    let dims = merged.dims();
    let kept = |idx: u32| &retained[idx as usize * dims..(idx as usize + 1) * dims];
    bbox.clear();
    bbox.resize(dims, f64::INFINITY);
    bbox.resize(2 * dims, f64::NEG_INFINITY);
    let (lo, hi) = bbox.split_at_mut(dims);
    for row in retained.chunks_exact(dims) {
        merged.push_row(row);
        for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(row) {
            *l = l.min(v);
            *h = h.max(v);
        }
    }
    let mut indexed = false;
    for row in fetched {
        if !row.iter().zip(lo.iter().zip(hi.iter())).all(|(v, (l, h))| l <= v && v <= h) {
            merged.push_row(row);
            continue;
        }
        if !indexed {
            indexed = true;
            order.clear();
            // skylint: allow(hot-path-alloc) — a reused buffer: it grows to its high-water mark once.
            order.extend(0..(retained.len() / dims) as u32);
            order.sort_unstable_by(|&a, &b| cmp_bits(kept(a), kept(b)).then(a.cmp(&b)));
            budget.clear();
            budget.resize(order.len(), 1);
        }
        let start = order.partition_point(|&idx| cmp_bits(kept(idx), row).is_lt());
        let mut taken = false;
        for &idx in &order[start..] {
            if cmp_bits(kept(idx), row).is_ne() {
                break;
            }
            if budget[idx as usize] > 0 {
                budget[idx as usize] -= 1;
                taken = true;
                break;
            }
        }
        if !taken {
            merged.push_row(row);
        }
    }
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
    /// Rows matching their region after post-filtering.
    pub rows_matched: u64,
    /// Per-dimension B-tree probes during fetch planning.
    pub index_probes: u64,
    /// Index entries scanned by the chosen storage plans.
    pub index_entries_scanned: u64,
    /// Distinct heap pages the fetched rows sit on. Derived after the
    /// query and only for a recorded request (0 otherwise): it costs a
    /// pass over the fetched row ids.
    pub pages_touched: u64,
    /// Pairwise dominance tests performed.
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
    /// Cached items individually tested for overlap during the lookup
    /// (0 when the cache-wide bounding box short-circuits the search).
    pub overlap_scans: u64,
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
        self.rows_matched += f.rows_matched;
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
            (names::CACHE_OVERLAP_SCANS, self.overlap_scans),
            (names::CACHE_RETAINED_POINTS, self.retained_points),
            (names::CACHE_REMOVED_POINTS, self.removed_points),
            (names::FETCH_REGIONS, self.range_queries_issued),
            (names::FETCH_RQ_EXECUTED, self.range_queries_executed),
            (names::FETCH_RQ_EMPTY, self.range_queries_empty),
            (names::FETCH_POINTS_READ, self.points_read),
            (names::FETCH_HEAP_FETCHES, self.heap_fetches),
            (names::FETCH_ROWS_MATCHED, self.rows_matched),
            (names::FETCH_INDEX_PROBES, self.index_probes),
            (names::FETCH_INDEX_ENTRIES, self.index_entries_scanned),
            (names::FETCH_PAGES_TOUCHED, self.pages_touched),
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
        if req.record {
            let fetched = self.scratch.fetch.rows();
            stats.pages_touched = self.table.pages_touched_ids(fetched.ids());
        }
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

/// A cache hit: the plan's counters, then the fetch stage — or, for an
/// exact hit or Case (b), the retained points as they are.
pub(crate) fn query_planned(
    table: &Table,
    c: &Constraints,
    plan: QueryPlan,
    scratch: &mut QueryScratch,
    stats: &mut QueryStats,
) -> Vec<Point> {
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
    /// on a miss — with a *coalescing* plan (overlapping or abutting index
    /// ranges merge into one range query; rows are deduplicated across
    /// regions), merges the rows with the `retained` ones (flat rows) and
    /// runs the skyline kernel over them. Where the cost model predicts it
    /// pays, the corner-first step reads the lower corner of `R_C′` first
    /// ([`QueryScratch::corner_first`]).
    pub(crate) fn fetch_stage(
        &mut self,
        table: &Table,
        c: &Constraints,
        regions: Vec<HyperRect>,
        retained: &[f64],
        stats: &mut QueryStats,
    ) -> Vec<Point> {
        let dims = table.dims();
        let regions = self.corner_first(table, c, regions, stats);
        fetch_into(table, &FetchPlan::remainder(regions), &mut self.fetch, stats);

        let t0 = Stopwatch::start();
        let corner = if self.corner.taken { self.corner.fetch.rows().coords() } else { &[] };
        let fetched = self.fetch.rows().coords().chunks_exact(dims);
        let merged = reuse_block(&mut self.merged, dims);
        let (bbox, order, budget) =
            (&mut self.merge_box, &mut self.merge_order, &mut self.dup_budget);
        merge_rows(retained, corner.chunks_exact(dims).chain(fetched), merged, bbox, order, budget);
        stats.time(Phase::Merge, t0);

        let t1 = Stopwatch::start();
        let out = reuse_block(&mut self.sky_out, dims);
        stats.dominance_tests += Sfs.compute_block_into(merged.as_flat(), dims, &mut self.sky, out);
        stats.time(Phase::Skyline, t1);
        // skylint: allow(hot-path-alloc) — the returned skyline, owned at the public-API boundary.
        out.to_points()
    }

    /// The corner-first step (DESIGN.md §18): when [`CornerScratch::choose`]
    /// predicts it pays, one range query reads the lower corner of `R_C′`,
    /// and the corner's skyline rows `u`, largest dominated volume inside
    /// `R_C′` first, each subtract `DR(u, C′)` from `regions ∖ corner` if
    /// that lowers its predicted cost ([`Table::predict_region`]),
    /// [`CORNER_CANDIDATES`] tried at most. Returns what is left to fetch —
    /// `regions` as they are if the step does not pay or the corner holds
    /// no row. The choice and the pruning are timed as MPR computation,
    /// the corner read as fetch, its skyline as skyline.
    fn corner_first(
        &mut self,
        table: &Table,
        c: &Constraints,
        regions: Vec<HyperRect>,
        stats: &mut QueryStats,
    ) -> Vec<HyperRect> {
        let t0 = Stopwatch::start();
        let corner = self.corner.choose(table, c, &regions);
        stats.time(Phase::MprCompute, t0);
        self.corner.taken = corner.is_some();
        let Some(corner) = corner else { return regions };
        // skylint: allow(hot-path-alloc) — the corner read's one-region list.
        fetch_into(table, &FetchPlan::new(vec![corner]), &mut self.corner.fetch, stats);
        let (dims, rows) = (table.dims(), self.corner.fetch.rows().coords());
        if rows.is_empty() {
            return regions;
        }
        let t1 = Stopwatch::start();
        let candidates = reuse_block(&mut self.sky_out, dims);
        stats.dominance_tests += Sfs.compute_block_into(rows, dims, &mut self.sky, candidates);
        stats.time(Phase::Skyline, t1);

        let t2 = Stopwatch::start();
        let (s, lo, hi) = (&mut self.corner, c.lo(), c.hi());
        let dominated = |u: &[f64]| -> f64 {
            u.iter().zip(lo.iter().zip(hi)).map(|(&u, (&l, &h))| h - u.max(l)).product()
        };
        s.order.clear();
        // skylint: allow(hot-path-alloc) — a reused buffer: it grows to its high-water mark once.
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
        let rest = s.regions.rest.chunks_exact(dims);
        // skylint: allow(hot-path-alloc) — the regions handed to storage, one allocation each.
        let regions = rest.map(|r| HyperRect::from_intervals(r.to_vec())).collect();
        stats.time(Phase::MprCompute, t2);
        regions
    }
}

impl CornerScratch {
    /// The corner-first step's choice, on predicted cost alone
    /// ([`Table::predict_region`]): the corner `[C̲′, cut]` of `R_C′`
    /// predicted to hold one seek's worth of rows ([`Table::corner_cut`]),
    /// if reading it and then `regions ∖ corner ∖ [cut, C̄′]` is predicted
    /// to cost less than reading `regions` — with `regions ∖ corner` left
    /// as the remainder — else `None`.
    fn choose(
        &mut self,
        table: &Table,
        c: &Constraints,
        regions: &[HyperRect],
    ) -> Option<HyperRect> {
        let rows = table.config().cost_model.seek_rows();
        let (lo, hi, r) = (c.lo(), c.hi(), &mut self.regions);
        // The trial list holds `R_C′`, then the corner, until the first carve.
        r.trial.clear();
        // skylint: allow(hot-path-alloc) — a reused buffer: it grows to its high-water mark once.
        r.trial.extend(lo.iter().zip(hi).map(|(&l, &h)| Interval::closed(l, h)));
        self.cut.resize(lo.len(), 0.0);
        // Any row of a non-empty corner dominates [cut, C̄′]: go on only if
        // that space is predicted to hold two seeks' worth of rows.
        if table.corner_cut(&r.trial, rows, &mut self.cut)? < 2.0 * rows {
            return None;
        }
        for (iv, &key) in r.trial.iter_mut().zip(&self.cut) {
            *iv = Interval::closed(iv.lo(), key);
        }
        let corner = table.predict_region(&r.trial).ns;
        r.rest.clear();
        r.rest_ns.clear();
        regions.iter().for_each(|region| r.rest.extend_from_slice(region.intervals()));
        // skylint: allow(hot-path-alloc) — a reused buffer: it grows to its high-water mark once.
        r.rest_ns.extend(regions.iter().map(|region| table.predict_region(region.intervals()).ns));
        let before: f64 = r.rest_ns.iter().sum();
        r.carve(table, lo, &self.cut);
        r.keep_trial();
        let pays = corner + r.carve(table, &self.cut, hi) < before;
        pays.then(|| HyperRect::closed(lo, &self.cut))
    }
}

impl Remainder {
    /// Carves the closed box `[lo, hi]` out of the remainder into the
    /// trial list — pairwise disjoint pieces, carved and ordered as
    /// [`skycache_geom::subtract::subtract_box_into`] carves them, without
    /// its allocation per piece — and returns the trial's predicted cost. Only the pieces are priced: a
    /// region the box misses keeps its cost. A region the box meets is
    /// narrowed in place at the end of the list, its pieces copied out
    /// behind it, and dropped once the box covers the rest.
    fn carve(&mut self, table: &Table, lo: &[f64], hi: &[f64]) -> f64 {
        let (d, side) = (lo.len(), |i: usize| Interval::closed(lo[i], hi[i]));
        let (out, costs) = (&mut self.trial, &mut self.trial_ns);
        out.clear();
        costs.clear();
        for (r, &ns) in self.rest.chunks_exact(d).zip(&self.rest_ns) {
            let at = out.len();
            out.extend_from_slice(r);
            if !r.iter().enumerate().all(|(i, iv)| iv.intersects(&side(i))) {
                // skylint: allow(hot-path-alloc) — a reused buffer: it grows to its high-water mark once.
                costs.push(ns);
                continue;
            }
            for i in 0..d {
                let iv = out[at + i];
                for piece in [iv.below(lo[i], true), iv.above(hi[i], true)] {
                    if !piece.is_empty() {
                        out.extend_from_within(at..at + d);
                        let last = out.len() - d + i;
                        out[last] = piece;
                    }
                }
                out[at + i] = iv.intersect(&side(i));
            }
            out.drain(at..at + d);
            // skylint: allow(hot-path-alloc) — a reused buffer: it grows to its high-water mark once.
            costs.extend(out[at..].chunks_exact(d).map(|piece| table.predict_region(piece).ns));
        }
        costs.iter().sum()
    }

    /// Makes the trial list the remainder.
    fn keep_trial(&mut self) {
        std::mem::swap(&mut self.rest, &mut self.trial);
        std::mem::swap(&mut self.rest_ns, &mut self.trial_ns);
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

    /// Vec-based reference for [`merge_rows`]: retained points followed by
    /// the fetched ones, minus one fetched copy per identical retained
    /// point.
    fn merge_dedup(retained: Vec<Point>, fetched: Vec<Point>) -> Vec<Point> {
        use std::collections::BTreeMap;
        if retained.is_empty() {
            return fetched;
        }
        let mut counts: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
        for p in &retained {
            let key: Vec<u64> = p.coords().iter().map(|c| c.to_bits()).collect();
            *counts.entry(key).or_insert(0) += 1;
        }
        let mut merged = retained;
        merged.reserve(fetched.len());
        for p in fetched {
            let key: Vec<u64> = p.coords().iter().map(|c| c.to_bits()).collect();
            match counts.get_mut(&key) {
                Some(n) if *n > 0 => *n -= 1, // drop this duplicate copy
                _ => merged.push(p),
            }
        }
        merged
    }

    fn run(ex: &mut impl Executor, cc: &Constraints) -> QueryOutcome {
        ex.execute(&QueryRequest::new(cc.clone())).unwrap()
    }

    /// The CBCS executor: a session of this service.
    fn open(table: &Table, config: CbcsConfig) -> Service<'_> {
        Service::open(table, ServiceConfig::with_cbcs(config))
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

    #[test]
    fn cbcs_no_duplicates_with_small_k() {
        // aMPR(0) prunes nothing: every retained point's region is
        // re-fetched, and dedup must kill the copies.
        let table = grid_table();
        let config = CbcsConfig { mpr: MprMode::Approximate { k: 0 }, ..CbcsConfig::default() };
        let service = open(&table, config);
        let mut cbcs = service.session();
        run(&mut cbcs, &c(&[(0.2, 1.0), (0.2, 1.0)]));
        let res = run(&mut cbcs, &c(&[(0.1, 1.0), (0.2, 1.0)]));
        let mut sky = res.skyline.clone();
        sky.sort_by_key(|x| (x[0].to_bits(), x[1].to_bits()));
        sky.dedup();
        assert_eq!(sky.len(), res.skyline.len(), "duplicate points in result");
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

    #[test]
    fn merge_rows_matches_merge_dedup() {
        // Rows fetched into the columnar scratch, merged block-natively,
        // must equal the Vec-based merge bit for bit — including the
        // duplicate-budget semantics with repeated retained points, and
        // wherever the fetched rows lie relative to the retained rows'
        // bounding box. Besides the grid the table holds three copies of
        // (0.35, 0.45) and a (0.0, 0.45) row.
        let mut points: Vec<Point> = (0..20)
            .flat_map(|i| (0..20).map(move |j| p(&[f64::from(i) / 10.0, f64::from(j) / 10.0])))
            .collect();
        points.extend([p(&[0.35, 0.45]), p(&[0.35, 0.45]), p(&[0.35, 0.45]), p(&[0.0, 0.45])]);
        let table = Table::build(points, TableConfig::default()).unwrap();
        let mut fetch_scratch = skycache_storage::FetchScratch::new();
        let cc = c(&[(0.0, 0.5), (0.2, 0.5)]);
        table.fetch_plan_into(&FetchPlan::constrained(&cc), &mut fetch_scratch);
        let buf = fetch_scratch.rows();
        let fetched: Vec<Point> = (0..buf.len()).map(|i| p(buf.row(i))).collect();
        assert_eq!(fetched.iter().filter(|f| **f == p(&[0.35, 0.45])).count(), 3);

        let bits = |pts: &[Point]| -> Vec<Vec<u64>> {
            pts.iter().map(|q| q.coords().iter().map(|v| v.to_bits()).collect()).collect()
        };
        // The buffers are reused across cases, as the engine reuses them.
        let mut bbox = Vec::new();
        let mut order = Vec::new();
        let mut budget = Vec::new();
        for (retained, dropped) in [
            // Empty retained block: the box is empty, nothing is inside.
            (vec![], 0),
            // Every fetched row outside the box: no index is built.
            (vec![p(&[9.0, 9.0]), p(&[8.0, 9.5])], 0),
            // Fetched rows outside, inside and on the faces of the box
            // [0.2, 0.4] x [0.2, 0.4]; its corners are fetched copies.
            (vec![p(&[0.2, 0.4]), p(&[0.4, 0.2])], 2),
            (vec![p(&[0.3, 0.4]), p(&[9.0, 9.0])], 1),
            (vec![p(&[0.3, 0.4]), p(&[0.3, 0.4]), p(&[0.2, 0.2])], 2),
            // More fetched copies (three) than budget (one, then two).
            (vec![p(&[0.35, 0.45]), p(&[0.1, 0.3])], 2),
            (vec![p(&[0.35, 0.45]), p(&[0.35, 0.45])], 2),
            // -0.0 retained, 0.0 fetched: inside the box (on its face)
            // but not identical, so both rows are kept.
            (vec![p(&[-0.0, 0.45]), p(&[0.1, 0.5])], 1),
        ] {
            let want = merge_dedup(retained.clone(), fetched.clone());
            assert_eq!(want.len(), retained.len() + fetched.len() - dropped, "{retained:?}");
            let mut merged = PointBlock::new(2).unwrap();
            let mut retained_block = PointBlock::new(2).unwrap();
            for rp in &retained {
                retained_block.push(rp);
            }
            let fetched_rows = buf.coords().chunks_exact(2);
            let flat = retained_block.as_flat();
            merge_rows(flat, fetched_rows, &mut merged, &mut bbox, &mut order, &mut budget);
            assert_eq!(bits(&merged.to_points()), bits(&want), "retained = {retained:?}");
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
    fn merge_dedup_drops_one_copy_per_retained() {
        let retained = vec![p(&[1.0, 1.0]), p(&[2.0, 2.0])];
        let fetched = vec![p(&[1.0, 1.0]), p(&[1.0, 1.0]), p(&[3.0, 3.0])];
        let merged = merge_dedup(retained, fetched);
        // 2 retained + (1 duplicate of [1,1] kept — the data really holds
        // two copies) + [3,3].
        assert_eq!(merged.len(), 4);
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
        assert!(miss.counter(names::FETCH_PAGES_TOUCHED) > 0);
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
