//! Allocation-count regression tests for the block-oriented hot path,
//! plus the exact fetch counters of the same seeded runs.
//!
//! This test binary installs a counting global allocator (`repro` and
//! every other binary run on the system allocator), so allocation events
//! here are exact and deterministic: the workloads are seeded, the engine
//! is single-threaded, and the tests serialize on [`SERIAL`] because the
//! counter is process-wide. Four properties are pinned:
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
//! 3. points read and range queries issued / executed / coalesced over
//!    both paper workloads are exact: the planner and the coalescing
//!    fetch are seeded end to end, so any drift is a behaviour change;
//! 4. the storage estimates the fetch stage plans with (`Table::predict`,
//!    `Table::corner_cut`) allocate nothing.
//!
//! The ceilings are deliberately loose (~2× observed) so unrelated
//! changes don't trip them, while per-point regressions — hundreds of
//! extra allocations per query at this scale — still fail loudly.

// The counting allocator below is the only `unsafe` in the scanned tree
// (every library crate root carries `#![forbid(unsafe_code)]`).
#![deny(clippy::undocumented_unsafe_blocks)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use skycache_bench::{independent_queries, interactive_queries, run_queries, synthetic_table};
use skycache_core::{Cache, Overlap, QueryRequest, Service, ServiceConfig};
use skycache_datagen::Distribution;
use skycache_geom::Constraints;
use skycache_serve::proto;
use skycache_storage::{FetchPlan, Table};

/// Counting wrapper around the system allocator: counts heap-allocation
/// *events* (alloc, realloc, alloc_zeroed — frees are not counted) in a
/// process-wide monotone counter; measure deltas via [`allocations`].
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a
// Relaxed atomic with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds GlobalAlloc's contract for `ptr`/`layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract for `ptr`/`layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap-allocation events since process start (monotone; take deltas).
fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const DIMS: usize = 4;
const N: usize = 100_000;
const QUERIES: usize = 100;

/// The allocation counter is process-wide and libtest runs tests on
/// parallel threads: every test holds this for its whole body so no
/// other test's allocations land in its measurement window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A test that failed while holding the lock leaves no state behind.
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn table() -> Table {
    synthetic_table(Distribution::Independent, DIMS, N, 42)
}

/// One cold-start run of a workload through one session of a fresh
/// service: allocs/query plus the summed points read and range queries
/// issued / executed / coalesced. The cache warms within the first few
/// queries, so the run is dominated by the cached steady state.
fn cold_run(table: &Table, queries: &[Constraints]) -> (f64, [u64; 4]) {
    let service = Service::open(table, ServiceConfig::default());
    let mut session = service.session();
    let a0 = allocations();
    let records = run_queries(&mut session, queries);
    let allocs = allocations() - a0;
    let hits = records.iter().filter(|r| r.cache_hit).count();
    assert!(hits * 2 > queries.len(), "workload must be cache-dominated, got {hits} hits");
    let mut fetch = [0u64; 4];
    for r in &records {
        fetch[0] += r.points_read;
        fetch[1] += r.range_queries_issued;
        fetch[2] += r.range_queries_executed;
        fetch[3] += r.regions_coalesced;
    }
    (allocs as f64 / queries.len() as f64, fetch)
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
    let _serial = serial();
    let table = table();
    let queries = interactive_queries(&table, QUERIES, 17, None);
    let (allocs, fetch) = cold_run(&table, &queries);
    assert!(
        allocs <= BLOCK_CEILING,
        "cached steady state regressed to {allocs:.1} allocs/query (ceiling {BLOCK_CEILING})"
    );
    // 40 of the 100 queries are provably empty: each is one issued range
    // query the indexes answer, and reads nothing. The others issue their
    // plan's regions, plus the corner read where the corner-first step
    // pays (DESIGN.md §18). `executed` counts the range queries a unit is
    // *charged* — the cheapest covering set, not one per walk (DESIGN.md
    // §12): 26 regions share a merged one.
    assert_eq!(fetch, [19_686, 297, 144, 26], "interactive fetch counters moved");
}

#[test]
fn independent_workload_fetch_counters_are_exact() {
    let _serial = serial();
    let table = table();
    let queries = independent_queries(&table, QUERIES, 19, None);
    let (_, fetch) = cold_run(&table, &queries);
    // As above: 26 of the 100 queries are provably empty, and 86 regions
    // share a merged range query.
    assert_eq!(fetch, [65_513, 1_218, 959, 86], "independent fetch counters moved");
}

#[test]
fn exact_hit_replay_allocs_stay_under_ceiling() {
    let _serial = serial();
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
    let _serial = serial();
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

/// The fetch stage's estimates read the indexes only: pricing a plan
/// (`Table::predict`) and cutting a query region's corner
/// (`Table::corner_cut`) allocate nothing, over single- and two-region
/// plans of a whole workload.
#[test]
fn predicting_a_plan_allocates_nothing() {
    let _serial = serial();
    let table = table();
    let queries = interactive_queries(&table, QUERIES, 17, None);
    let plans: Vec<FetchPlan> = queries
        .iter()
        .zip(queries.iter().skip(1))
        .flat_map(|(a, b)| {
            [
                FetchPlan::constrained(a),
                FetchPlan::new([a.region(), b.region()].into_iter().collect()),
            ]
        })
        .collect();
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
/// vector — must be allocation-free in steady state: the exact probe,
/// the R*-tree window walk with its MBR filter, and the cover-order sort
/// all run without touching the allocator once the scratch vector has
/// grown to its working capacity. A single stray `Vec`/`format!` in that path
/// costs ≥ 1 alloc per lookup and trips the near-zero ceiling at once.
#[test]
fn warm_cache_lookup_is_allocation_free() {
    let _serial = serial();
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
    let per_lookup = allocs as f64 / (rounds * queries.len()) as f64;
    assert!(found > 0, "lookups must actually surface candidates");
    assert!(
        per_lookup <= LOOKUP_CEILING,
        "warm lookup regressed to {per_lookup:.2} allocs/lookup (ceiling {LOOKUP_CEILING})"
    );
}

/// ~2× the observed steady-state cost (194.4 allocs/query).
const BLOCK_CEILING: f64 = 370.0;
/// ~2× the observed exact-hit replay cost (80.8 allocs/query — exact
/// hits re-materialize the full result, so this scales with result
/// size, not points read; the measured replay is every item's first
/// exact hit, so it includes rendering each item's reply text once,
/// three allocations, and its first `touch` copying the item away from
/// the published snapshot; every query builds its region for the
/// emptiness probe).
const REPLAY_CEILING: f64 = 150.0;
/// Warm lookups are allocation-free; anything above rounding noise
/// (a fraction of an alloc per lookup amortized over the run) fails.
const LOOKUP_CEILING: f64 = 0.5;
