//! Allocation-count regression tests for the block-oriented hot path,
//! plus the exact fetch counters of the same seeded runs.
//!
//! This test binary installs a counting global allocator (`repro` and
//! every other binary run on the system allocator), so allocation events
//! here are exact and deterministic: the workloads are seeded, the engine
//! is single-threaded, and the counters are per thread, so a window
//! counts the thread that opened it and nothing libtest or a parallel
//! test allocates on another. Four properties are pinned:
//!
//! 1. allocs/query on the cached steady-state workload stays under a
//!    fixed ceiling — reintroducing a per-point clone anywhere in the
//!    fetch → merge → skyline pipeline costs one alloc per point per
//!    stage and blows the bound immediately (through the server, the
//!    same quantity is skybench's `core.service.allocs_per_query`);
//! 2. exact-hit replays (no fetch, no merge) stay under a fixed
//!    ceiling, pinning the residual per-query cost of answering
//!    straight from the cache — result materialization at the API
//!    boundary plus the hit's one `touch` (exact hits never re-insert
//!    their item) — and the reply to one allocates at most twice, the
//!    cached item keeping its text; a replayed query the indexes prove
//!    empty is answered by the probe, never by the cache;
//! 3. points read, range queries issued / executed / coalesced and
//!    dominance tests over both paper workloads are exact: the planner,
//!    the coalescing fetch and the skyline filter are seeded end to end,
//!    so any drift is a behaviour change;
//! 4. the storage estimates the fetch stage plans with (`Table::predict`,
//!    `Table::corner_cut`) allocate nothing;
//! 5. every hot kernel allocates nothing in steady state — the dominance
//!    tests, the storage fetch, the cache lookup and its exact probe, the
//!    R*-tree's equal-box walk and the strategy scoring — except the
//!    aMPR's invalid cover, which allocates exactly the region it
//!    returns, and the fetch stage, which allocates exactly the skyline
//!    it returns — for hand-picked inputs and over seeded workloads at
//!    d = 2 to 6, after one warm pass;
//! 6. hostile input — truncated or bit-flipped table files, request
//!    lines of every prefix, random bytes and huge tokens — is an error
//!    or a valid value, never a panic, and allocates within a fixed
//!    multiple of its own length.
//!
//! The ceilings are deliberately loose (~2× observed) so unrelated
//! changes don't trip them, while per-point regressions — hundreds of
//! extra allocations per query at this scale — still fail loudly.

// The counting allocator below is the only `unsafe` in the workspace
// (the library crates take `unsafe_code = "forbid"` from the workspace
// lints).
#![deny(clippy::undocumented_unsafe_blocks)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Barrier;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skycache_bench::{independent_queries, interactive_queries, run_queries, synthetic_table};
use skycache_core::engine::{QueryScratch, QueryStats};
use skycache_core::mpr::invalid_cover;
use skycache_core::{
    cases, Cache, CacheItem, MprMode, Overlap, QueryRequest, SearchStrategy, Service, ServiceConfig,
};
use skycache_datagen::{Distribution, SyntheticGen};
use skycache_geom::dominance::dominates_raw;
use skycache_geom::{dominated_by_any_rows, dominates, dominates_rows, Aabb, Kernel};
use skycache_geom::{subtract, Constraints, Point, PointBlock, Regions};
use skycache_rtree::RStarTree;
use skycache_serve::proto;
use skycache_storage::{CostModel, FetchPlan, FetchScratch, StorageError, Table, TableConfig};

/// Counting wrapper around the system allocator: counts heap-allocation
/// *events* (alloc, realloc, alloc_zeroed — frees are not counted) and
/// the bytes they request in monotone counters of the allocating thread;
/// measure deltas via [`allocations`] and [`allocated_bytes`].
struct CountingAlloc;

thread_local! {
    /// Allocation events and bytes requested on this thread. Const-
    /// initialised and without a destructor, so the allocator reads and
    /// bumps them without allocating, at any point of a thread's life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: defers entirely to the system allocator; the counters are
// thread-local cells with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: caller upholds GlobalAlloc's contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds GlobalAlloc's contract for `ptr`/`layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: caller upholds GlobalAlloc's contract for `ptr`/`layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: caller upholds GlobalAlloc's contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap-allocation events on this thread since it started (monotone;
/// take deltas).
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes requested on this thread since it started (monotone; take
/// deltas).
fn allocated_bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Allocation events of this thread during `f`, with its result.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let a0 = allocations();
    let r = f();
    (allocations() - a0, r)
}

/// A window counts the thread that opened it: an allocation another
/// thread makes while the window is open lands in that thread's own
/// window, not in this one.
#[test]
fn a_window_counts_only_its_own_thread() {
    let (opened, allocated) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|scope| {
        let other = scope.spawn(|| {
            opened.wait();
            let (allocs, buffer) = counted(|| vec![7u8; 4096]);
            allocated.wait();
            (allocs, buffer.len())
        });
        let (allocs, ()) = counted(|| {
            opened.wait();
            allocated.wait();
        });
        assert_eq!(allocs, 0, "another thread's allocation landed in this window");
        assert_eq!(other.join().expect("the other thread finishes"), (1, 4096));
    });
}

const DIMS: usize = 4;
const N: usize = 100_000;
const QUERIES: usize = 100;

fn table() -> Table {
    synthetic_table(Distribution::Independent, DIMS, N, 42)
}

/// One cold-start run of a workload through one session of a fresh
/// service: allocs/query plus the summed points read, range queries
/// issued / executed / coalesced and dominance tests. The cache warms
/// within the first few queries, so the run is dominated by the cached
/// steady state.
fn cold_run(table: &Table, queries: &[Constraints]) -> (f64, [u64; 5]) {
    let service = Service::open(table, ServiceConfig::default());
    let mut session = service.session();
    let a0 = allocations();
    let records = run_queries(&mut session, queries);
    let allocs = allocations() - a0;
    let hits = records.iter().filter(|r| r.cache_hit).count();
    assert!(hits * 2 > queries.len(), "workload must be cache-dominated, got {hits} hits");
    let mut counts = [0u64; 5];
    for r in &records {
        counts[0] += r.points_read;
        counts[1] += r.range_queries_issued;
        counts[2] += r.range_queries_executed;
        counts[3] += r.regions_coalesced;
        counts[4] += r.dominance_tests;
    }
    (allocs as f64 / queries.len() as f64, counts)
}

/// Allocs/query when re-running a workload the cache has already
/// answered: every query is an exact hit, or proven empty by the indexes.
fn replay_allocs_per_query(table: &Table, queries: &[Constraints]) -> f64 {
    let service = Service::open(table, ServiceConfig::default());
    let mut session = service.session();
    run_queries(&mut session, queries); // warmup: populate cache + scratch
    let a0 = allocations();
    let records = run_queries(&mut session, queries);
    let allocs = allocations() - a0;
    assert!(
        records.iter().all(|r| r.cache_hit || r.negative_hits == 1),
        "replay must be all cache hits and proven empties"
    );
    allocs as f64 / queries.len() as f64
}

#[test]
fn steady_state_cached_path_allocs_stay_under_ceiling() {
    let table = table();
    let queries = interactive_queries(&table, QUERIES, 17, None);
    let (allocs, counts) = cold_run(&table, &queries);
    assert!(
        allocs <= BLOCK_CEILING,
        "cached steady state regressed to {allocs:.1} allocs/query (ceiling {BLOCK_CEILING})"
    );
    // 40 of the 100 queries are provably empty: each is one issued range
    // query the indexes answer, and reads nothing. The others issue their
    // plan's regions, plus the corner read where the corner-first step
    // pays (DESIGN.md §18). `executed` counts the range queries a unit is
    // *charged* — the cheapest covering set, not one per walk (DESIGN.md
    // §12): 26 regions share a merged one. The dominance tests are full
    // row tests: the skyline filter's grid pre-test (DESIGN.md §13) skips
    // the rest, and without it they were 642 355. A plan that fetches
    // nothing runs no skyline, and the final skyline filters the corner's
    // skyline rows, not every corner row: with both they were 59 551.
    assert_eq!(counts, [19_686, 297, 144, 26, 57_829], "interactive counters moved");
}

#[test]
fn independent_workload_fetch_counters_are_exact() {
    let table = table();
    let queries = independent_queries(&table, QUERIES, 19, None);
    let (_, counts) = cold_run(&table, &queries);
    // As above: 26 of the 100 queries are provably empty, and 86 regions
    // share a merged range query. Without the grid pre-test the
    // dominance tests were 1 045 413; with every corner row in the final
    // skyline's input they were 144 050 (no plan here fetches nothing).
    assert_eq!(counts, [65_513, 1_218, 959, 86, 142_425], "independent counters moved");
}

#[test]
fn exact_hit_replay_allocs_stay_under_ceiling() {
    let table = table();
    let queries = interactive_queries(&table, QUERIES, 17, None);
    let replay = replay_allocs_per_query(&table, &queries);
    assert!(
        replay <= REPLAY_CEILING,
        "exact-hit replay regressed to {replay:.1} allocs/query (ceiling {REPLAY_CEILING})"
    );
}

/// An exact hit brings its reply text with it (the cached item keeps
/// it), so `proto::query_reply` is a header and a copy: one allocation
/// for the line, a second allowed for the header's formatting, however
/// many points the answer has. Rendering them again costs the sort's
/// `Vec` on top, and the points' formatting every time.
#[test]
fn an_exact_hit_reply_allocates_at_most_twice() {
    let table = table();
    let queries = interactive_queries(&table, QUERIES, 17, None);
    let service = Service::open(&table, ServiceConfig::default());
    let mut session = service.session();
    run_queries(&mut session, &queries);
    let mut points = 0;
    for c in &queries {
        let outcome = session.execute(&QueryRequest::new(c.clone())).expect("query succeeds");
        let exact = outcome.stats.case == Some(Overlap::Exact);
        assert!(exact || outcome.stats.negative_hits == 1, "a replayed query is an exact hit");
        let a0 = allocations();
        let reply = proto::query_reply(&outcome);
        let allocs = allocations() - a0;
        assert!(allocs <= 2, "{allocs} allocations for a reply of {} bytes", reply.len());
        points += outcome.skyline.len();
    }
    assert!(points > queries.len(), "the replies must carry points");
}

/// A computed answer (a miss, or a hit that is not exact) is rendered
/// into the reply line: one allocation for the line, one for the sort's
/// `Vec` of rows and one growth of the line for the points, however many
/// there are — the coordinate writer allocates nothing per coordinate.
#[test]
fn a_computed_reply_allocates_at_most_three_times() {
    let table = table();
    let queries = independent_queries(&table, QUERIES, 19, None);
    let service = Service::open(&table, ServiceConfig::default());
    let mut session = service.session();
    let mut points = 0;
    for c in &queries {
        let outcome = session.execute(&QueryRequest::new(c.clone())).expect("query succeeds");
        assert!(outcome.text.is_none(), "a first run of distinct queries has no exact hit");
        let a0 = allocations();
        let reply = proto::query_reply(&outcome);
        let allocs = allocations() - a0;
        assert!(allocs <= 3, "{allocs} allocations for a reply of {} bytes", reply.len());
        points += outcome.skyline.len();
    }
    assert!(points > 10 * queries.len(), "the replies must carry points");
}

/// Single- and several-region fetch plans over an interactive workload's
/// queries: each query alone, and each query together with the part of
/// the next one outside it (`a` plus `b ∖ a`, disjoint as every plan's
/// regions are).
fn workload_plans(table: &Table) -> Vec<FetchPlan> {
    let queries = interactive_queries(table, QUERIES, 17, None);
    let pairs = queries.iter().zip(queries.iter().skip(1));
    pairs
        .flat_map(|(a, b)| {
            let mut regions = Regions::from_iter([a.region()]);
            subtract::carve(&b.region(), a.lo(), a.hi(), &mut regions);
            [FetchPlan::constrained(a), FetchPlan::new(regions)]
        })
        .collect()
}

/// The fetch stage's estimates read the indexes only: pricing a plan
/// (`Table::predict`) and cutting a query region's corner
/// (`Table::corner_cut`) allocate nothing, over single- and several-region
/// plans of a whole workload.
#[test]
fn predicting_a_plan_allocates_nothing() {
    let table = table();
    let plans = workload_plans(&table);
    let rows = table.config().cost_model.seek_rows();
    let mut cut = vec![0.0; DIMS];
    let (mut ns, mut cuts) = (0.0, 0);
    let a0 = allocations();
    for plan in &plans {
        ns += table.predict(plan).ns;
        cuts += usize::from(table.corner_cut(&plan.regions[0], rows, &mut cut).is_some());
    }
    let allocs = allocations() - a0;
    assert_eq!(allocs, 0, "predicting {} plans allocated", plans.len());
    assert!(ns > 0.0 && cuts > 0, "the plans must be priced and cut");
}

/// The lookup itself — `Cache::lookup_into` with a reused scratch ids
/// vector — must be allocation-free in steady state: the exact probe
/// and the R*-tree window walk with its MBR filter run without touching
/// the allocator once the scratch vector has grown to its working
/// capacity. A single stray `Vec`/`format!` in that path costs ≥ 1 alloc
/// per lookup and fails at once.
#[test]
fn warm_cache_lookup_is_allocation_free() {
    let table = table();
    let queries = interactive_queries(&table, QUERIES, 17, None);
    let sample: Vec<_> = table.all_points().iter().take(8).cloned().collect();

    let mut cache = Cache::new(DIMS);
    for c in queries.iter().take(32) {
        cache.insert(c.clone(), &sample);
    }

    let mut ids: Vec<u64> = Vec::new();
    for c in &queries {
        cache.lookup_into(c, &mut ids); // warm: grow scratch to capacity
    }

    let rounds = 10;
    let a0 = allocations();
    let mut found = 0usize;
    for _ in 0..rounds {
        for c in &queries {
            cache.lookup_into(c, &mut ids);
            found += ids.len();
        }
    }
    let allocs = allocations() - a0;
    assert!(found > 0, "lookups must actually surface candidates");
    assert_eq!(allocs, 0, "{} warm lookups allocated", rounds * queries.len());
}

/// ~2× the observed steady-state cost (194.4 allocs/query).
const BLOCK_CEILING: f64 = 370.0;
/// ~2× the observed exact-hit replay cost (77.8 allocs/query — exact
/// hits re-materialize the full result, so this scales with result
/// size, not points read; the measured replay is every item's first
/// exact hit, so it includes rendering each item's reply text once,
/// three allocations; a hit's `touch` writes the master's replacement
/// record and copies no item — 80.8 while the first touch after a
/// publish copied the item away from the snapshot; every query builds
/// its region for the emptiness probe).
const REPLAY_CEILING: f64 = 150.0;

/// The published cache of one workload run, and the queries of another
/// over the same table: the items and probes the kernels below are
/// driven with, so a probe meets items it overlaps without equalling.
fn warm_cache_and_probes(table: &Table) -> (Arc<Cache>, Vec<Constraints>) {
    let service = Service::open(table, ServiceConfig::default());
    run_queries(&mut service.session(), &interactive_queries(table, QUERIES, 17, None));
    (service.cache().snapshot(), interactive_queries(table, QUERIES, 23, None))
}

/// A dominance test between two points.
type PairKernel = dyn Fn(&Point, &Point) -> bool;

/// The dominance kernels — the reference and the lane-blocked test, over
/// rows and over points, and the block scan — allocate nothing.
#[test]
fn dominance_kernels_allocate_nothing() {
    let table = table();
    let points = &table.all_points()[..300];
    let block = PointBlock::from_points(points).expect("non-empty rows");
    let pairs = || points.iter().flat_map(|s| points.iter().map(move |t| (s, t)));
    let count = |kernel: &PairKernel| counted(|| pairs().filter(|&(s, t)| kernel(s, t)).count());
    let (allocs, want) = count(&|s, t| dominates_raw(s.coords(), t.coords()));
    assert_eq!(allocs, 0, "dominates_raw allocated");
    assert!(want > 0, "the pairs must include dominance");
    let kernels: [(&str, &PairKernel); 4] = [
        ("dominates_rows", &|s, t| dominates_rows(s.coords(), t.coords())),
        ("dominates", &|s, t| dominates(s, t)),
        ("Kernel::Scalar.dominates", &|s, t| Kernel::Scalar.dominates(s.coords(), t.coords())),
        ("Kernel::Wide.dominates", &|s, t| Kernel::Wide.dominates(s.coords(), t.coords())),
    ];
    for (name, kernel) in kernels {
        assert_eq!(count(kernel), (0, want), "{name}: allocations, dominating pairs");
    }
    let (allocs, dominated) =
        counted(|| points.iter().filter(|t| dominated_by_any_rows(t.coords(), &block)).count());
    assert_eq!(allocs, 0, "dominated_by_any_rows allocated");
    assert!(dominated > 0 && dominated < points.len(), "{dominated} rows dominated");
}

/// `Table::fetch_plan_into` reads into the caller's scratch: once that
/// has grown over a workload's plans, fetching them again allocates
/// nothing, single- and several-region plans alike.
#[test]
fn fetching_a_plan_allocates_nothing_in_steady_state() {
    let table = table();
    let plans = workload_plans(&table);
    let mut scratch = FetchScratch::default();
    for plan in &plans {
        table.fetch_plan_into(plan, &mut scratch);
    }
    let (allocs, read) = counted(|| {
        plans
            .iter()
            .map(|plan| table.fetch_plan_into(plan, &mut scratch).stats.points_read)
            .sum::<u64>()
    });
    assert_eq!(allocs, 0, "fetching {} plans allocated", plans.len());
    assert!(read > 0, "the plans must read rows");
}

/// An exact lookup — `Cache::lookup_into`'s probe, `Cache::exact_id`,
/// one `RStarTree::for_each_equal` descent — allocates nothing once the
/// ids vector holds one id, and the bare tree walk allocates nothing.
#[test]
fn exact_probes_allocate_nothing() {
    let table = table();
    let (cache, _) = warm_cache_and_probes(&table);
    let items: Vec<_> = cache.iter().collect();
    assert!(items.len() > 16, "the run must cache items");

    let mut ids = Vec::with_capacity(1);
    let (allocs, exact) = counted(|| {
        items
            .iter()
            .filter(|it| {
                cache.lookup_into(&it.constraints, &mut ids);
                ids == [it.id]
            })
            .count()
    });
    assert_eq!((allocs, exact), (0, items.len()), "exact lookups: allocations, exact answers");

    let mut tree = RStarTree::new(DIMS);
    for it in &items {
        tree.insert(it.constraints.aabb().clone(), it.id);
    }
    let (allocs, found) = counted(|| {
        let mut found = 0;
        for it in &items {
            tree.for_each_equal(it.constraints.aabb(), |_| found += 1);
        }
        found
    });
    assert_eq!((allocs, found), (0, items.len()), "for_each_equal: allocations, boxes found");
}

/// Candidate scoring — by overlap (`clamped_overlap`), stability, case
/// rank (`classify`), weighted bound changes or corner distance —
/// allocates nothing.
#[test]
fn strategy_scoring_allocates_nothing() {
    let table = table();
    let (cache, queries) = warm_cache_and_probes(&table);
    let bounds = Aabb::bounding(table.all_points()).expect("non-empty table");
    let mut ids = Vec::new();
    let candidates: Vec<Vec<u64>> = queries
        .iter()
        .map(|c| {
            cache.lookup_into(c, &mut ids);
            ids.clone()
        })
        .collect();
    assert!(candidates.iter().any(|ids| ids.len() > 1), "scoring needs several candidates");
    let mut rng = StdRng::seed_from_u64(3);
    for strategy in [
        SearchStrategy::MaxOverlap,
        SearchStrategy::MaxOverlapSP,
        SearchStrategy::Prioritized1D,
        SearchStrategy::prioritized_nd_std(),
        SearchStrategy::OptimumDistance,
    ] {
        let item = |id: u64| cache.get(id).expect("lookup ids are live");
        let (allocs, picked) = counted(|| {
            let picks = queries.iter().zip(&candidates).filter_map(|(c, ids)| {
                strategy.select_indexed(ids.len(), |i| item(ids[i]), c, &bounds, &mut rng)
            });
            picks.count()
        });
        assert_eq!(allocs, 0, "{} scoring allocated", strategy.label());
        assert!(picked > 0);
    }
}

/// The aMPR's invalid cover folds the removed rows straight into the
/// region it returns: exactly one allocation when there is a cover,
/// none when there is not.
#[test]
fn the_invalid_cover_allocates_only_its_region() {
    let table = table();
    let (cache, queries) = warm_cache_and_probes(&table);
    let mut covers = 0;
    for item in cache.iter() {
        for c in &queries {
            let removed = item.skyline.rows().filter(|row| !c.satisfies_coords(row));
            let (allocs, cover) = counted(|| invalid_cover(removed, &item.constraints, c));
            assert_eq!(allocs, u64::from(cover.is_some()), "item {} under {c:?}", item.id);
            covers += usize::from(cover.is_some());
        }
    }
    assert!(covers > 0, "some removed rows must invalidate space");
}

/// A query's cache candidates, best covering first: largest index-box
/// overlap with the query, then lowest id.
fn by_cover<'c>(c: &Constraints, mut items: Vec<&'c CacheItem>) -> Vec<&'c CacheItem> {
    let area = |item: &CacheItem| item.index_box().overlap_area(c.aabb());
    items.sort_by(|a, b| area(b).total_cmp(&area(a)).then(a.id.cmp(&b.id)));
    items
}

/// Which of a query's candidates, given in walk order, to plan hits on.
type Pick = for<'c> fn(&Constraints, Vec<&'c CacheItem>) -> Vec<&'c CacheItem>;

/// A seeded workload generator of `skycache_bench`.
type Workload = fn(&Table, usize, u64, Option<usize>) -> Vec<Constraints>;

/// One fetch-stage input: the query, the regions to fetch and the
/// retained rows.
type StageInput<'q> = (&'q Constraints, Regions, PointBlock);

/// The fetch stage's inputs for `queries` over `cache`: each query as a
/// miss, then as a planned hit on each candidate `pick` takes, where that
/// needs a fetch.
fn stage_inputs<'q>(cache: &Cache, queries: &'q [Constraints], pick: Pick) -> Vec<StageInput<'q>> {
    let approximate = MprMode::Approximate { k: 1 };
    let mut ids = Vec::new();
    let mut inputs = Vec::new();
    for c in queries {
        let empty = PointBlock::new(c.dims()).expect("dims > 0");
        inputs.push((c, Regions::from(c.region()), empty));
        cache.lookup_into(c, &mut ids);
        let walk = ids.iter().filter_map(|&id| cache.get(id)).collect();
        for item in pick(c, walk) {
            let plan = cases::plan(&item.constraints, &item.skyline, c, approximate);
            if plan.needs_skyline {
                inputs.push((c, plan.regions, plan.retained));
            }
        }
    }
    inputs
}

/// Runs `inputs` through a fresh scratch once to warm it, then again
/// counted, checking that each input allocates exactly its answer: one
/// `Vec` and one allocation per skyline point. Returns the inputs that
/// merged retained rows, the skyline points, and the inputs whose range
/// queries are not their regions, one each: those the corner-first step
/// changed.
fn warm_then_replay(table: &Table, inputs: Vec<StageInput<'_>>) -> (usize, usize, usize) {
    let mut scratch = QueryScratch::default();
    let mut stats = QueryStats::default();
    for (c, regions, retained) in inputs.clone() {
        scratch.fetch_stage(table, c, regions, retained.as_flat(), &mut stats);
    }
    let (mut hits, mut points, mut cornered) = (0, 0, 0);
    for (c, regions, retained) in inputs {
        hits += usize::from(!retained.is_empty());
        let mut stats = QueryStats::default();
        let issued = regions.len() as u64;
        let (allocs, skyline) =
            counted(|| scratch.fetch_stage(table, c, regions, retained.as_flat(), &mut stats));
        let answer = skyline.len() as u64 + u64::from(!skyline.is_empty());
        assert_eq!(allocs, answer, "{} skyline points under {c:?}", skyline.len());
        points += skyline.len();
        cornered += usize::from(stats.range_queries_issued != issued);
    }
    (hits, points, cornered)
}

/// The fetch stage — corner-first choice, fetch, merge with the retained
/// rows, skyline — works in the session's scratch: once that has grown
/// over a workload, a miss or a planned hit allocates exactly its answer,
/// one `Vec` and one allocation per skyline point. Each query comes as a
/// miss and as a hit on the best-covering candidate (largest index-box
/// overlap with the query, then lowest id); then, in a scratch of its
/// own, as a miss and as a hit on the lookup's first candidate in walk
/// order.
#[test]
fn the_fetch_stage_allocates_only_its_answer() {
    let table = table();
    let (cache, queries) = warm_cache_and_probes(&table);
    let best: Pick = |c, walk| by_cover(c, walk).into_iter().take(1).collect();
    let first: Pick = |_, walk| walk.into_iter().take(1).collect();
    for pick in [best, first] {
        let (hits, points, _) = warm_then_replay(&table, stage_inputs(&cache, &queries, pick));
        assert!(hits > 0 && points > 0, "the stage must merge retained rows and answer");
    }
}

/// The same over seeded workloads: interactive and independent, d = 2 to
/// 6, under the default cost model and one whose seek costs two rows'
/// fetch, so that the corner-first step is taken and not taken. Each of
/// the 1 000 queries comes as a miss and as a hit on each of its
/// candidates in walk order, then, in a scratch of its own, on each in
/// best-covering order.
#[test]
fn the_fetch_stage_allocates_only_its_answer_over_workloads() {
    let cheap_seeks = CostModel { seek_ns: 300_000, ..CostModel::default() };
    let walk: Pick = |_, walk| walk;
    let cover: Pick = by_cover;
    let workloads: [Workload; 2] = [interactive_queries, independent_queries];
    let (mut queries, mut inputs, mut hits, mut points, mut cornered) = (0, 0, 0, 0, 0);
    for dims in 2..=6 {
        let rows = SyntheticGen::new(Distribution::Independent, dims, 40 + dims as u64);
        let rows = rows.generate(1_000);
        for cost_model in [CostModel::default(), cheap_seeks] {
            let table = Table::build(rows.clone(), TableConfig { cost_model }).expect("valid");
            for workload in workloads {
                let service = Service::open(&table, ServiceConfig::default());
                run_queries(&mut service.session(), &workload(&table, 20, 7, None));
                let (cache, probes) = (service.cache().snapshot(), workload(&table, 50, 11, None));
                queries += probes.len();
                for pick in [walk, cover] {
                    let stage = stage_inputs(&cache, &probes, pick);
                    inputs += stage.len();
                    let (h, p, k) = warm_then_replay(&table, stage);
                    (hits, points, cornered) = (hits + h, points + p, cornered + k);
                }
            }
        }
    }
    assert!(queries >= 1_000, "{queries} queries");
    assert!(hits > 0 && points > 0, "the stage must merge retained rows and answer");
    assert!(cornered > 0 && cornered < inputs, "corner step changed {cornered} of {inputs} inputs");
}

/// A per-run file path in the system's temporary directory.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("skycache-alloc-{}-{name}.skyc", std::process::id()))
}

/// FNV-1a, the table file's checksum, so a test can corrupt a header
/// and still reach the parser.
fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rewrites the trailing checksum of a table file image.
fn reseal(image: &mut [u8]) {
    let payload = image.len() - 8;
    let checksum = fnv1a(&image[..payload]);
    image[payload..].copy_from_slice(&checksum.to_le_bytes());
}

/// Loads `image` through `path`: the result and the bytes allocated
/// while loading.
fn load_image(path: &Path, image: &[u8]) -> (u64, Result<Table, StorageError>) {
    std::fs::write(path, image).expect("temp file is writable");
    let b0 = allocated_bytes();
    let loaded = Table::load(path);
    (allocated_bytes() - b0, loaded)
}

/// Header layout of a table file: magic, version, dims, the cost model's
/// four words, then the slot count.
const COST_MODEL: std::ops::Range<usize> = 12..44;
const N_SLOTS: std::ops::Range<usize> = 44..52;

/// A table file cut short at any byte, a flipped bit anywhere in its
/// header (checksum recomputed, so the parser sees it) or a hostile slot
/// count or dimensionality is an error, not a panic, and the load
/// allocates at most a fixed multiple of the file before it fails. The
/// cost model's words are the one header field every value of which is
/// valid: a flip there loads, under the flipped model.
#[test]
fn hostile_table_files_are_errors_within_a_bounded_allocation() {
    let path = temp_path("hostile");
    let table = synthetic_table(Distribution::Independent, 3, 40, 5);
    table.save(&path).expect("save");
    let image = std::fs::read(&path).expect("read back");
    let bound = |len: usize| 2 * len as u64 + 1024;
    let mut cases: Vec<(String, Vec<u8>)> =
        (0..image.len()).map(|k| (format!("truncated at {k}"), image[..k].to_vec())).collect();
    let mut flip = |label: String, at: usize, bytes: &[u8]| {
        let mut hostile = image.clone();
        hostile[at..at + bytes.len()].copy_from_slice(bytes);
        reseal(&mut hostile);
        cases.push((label, hostile));
    };
    for bit in 0..N_SLOTS.end * 8 {
        let mut byte = [image[bit / 8]];
        byte[0] ^= 1 << (bit % 8);
        flip(format!("header bit {bit} flipped"), bit / 8, &byte);
    }
    let rest = (image.len() - N_SLOTS.end - 8) as u64;
    for n in [41, 80, 8 * rest - 7, 8 * rest, 1 << 32, 1 << 61, u64::MAX / 24 + 1, u64::MAX] {
        flip(format!("n_slots = {n}"), N_SLOTS.start, &n.to_le_bytes());
    }
    for dims in [0u32, 1, 2, 4, 24, 1 << 16, u32::MAX] {
        flip(format!("dims = {dims}"), 8, &dims.to_le_bytes());
    }
    for (label, hostile) in &cases {
        let (bytes, loaded) = load_image(&path, hostile);
        let model_bit = label
            .strip_prefix("header bit ")
            .and_then(|b| b.split(' ').next()?.parse::<usize>().ok())
            .is_some_and(|bit| COST_MODEL.contains(&(bit / 8)));
        match loaded {
            Ok(t) => assert!(model_bit, "{label}: loaded a table of {} rows", t.len()),
            Err(e) => {
                assert!(!model_bit, "{label}: a cost model loads, got {e}");
                assert!(bytes <= bound(hostile.len()), "{label}: {bytes} bytes before {e}");
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Request lines a client may send — every prefix of each verb's valid
/// line, random printable bytes, huge numbers and huge dimensionalities
/// — parse to an error or a valid request, never a panic, and parsing
/// allocates within a fixed multiple of the line's length.
#[test]
fn hostile_request_lines_are_errors_within_a_bounded_allocation() {
    let valid = ["Q 0.1 0.9 0.2 0.8", "Q * 0.5 -1e3 * record", "STATS", "PING", "QUIT"];
    let mut lines: Vec<String> =
        valid.iter().flat_map(|l| (0..=l.len()).map(|k| l[..k].to_owned())).collect();
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..2_000 {
        let len = rng.gen_range(0..48);
        let mut line: String = (0..len).map(|_| char::from(rng.gen_range(b' '..=b'~'))).collect();
        if rng.gen_bool(0.5) {
            line.insert_str(0, "Q ");
        }
        lines.push(line);
    }
    lines.push(format!("Q {} {}", "9".repeat(400), "1e999"));
    lines.push(format!("Q -{} 0", "1".repeat(10_000)));
    lines.push(format!("Q{}", " 0 1".repeat(10_000)));
    lines.push(format!("Q{} record", " * *".repeat(50_000)));
    lines.push(format!("Q{}", " 1 0".repeat(10_000)));
    let mut parsed = 0;
    for line in &lines {
        let b0 = allocated_bytes();
        let request = proto::parse_request(line);
        let bytes = allocated_bytes() - b0;
        assert!(bytes <= 64 * line.len() as u64 + 256, "{bytes} bytes parsing {line:.80?}");
        match request {
            Ok(proto::Request::Query { constraints, .. }) => {
                assert!(constraints.dims() >= 1);
                parsed += 1;
            }
            Ok(_) => parsed += 1,
            Err(message) => assert!(!message.is_empty(), "an empty error for {line:.80?}"),
        }
    }
    assert!(parsed > valid.len(), "the valid lines and some prefixes must parse");
}
