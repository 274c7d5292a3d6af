//! The observability layer must be a pure observer.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Recording is invisible.** Running the same query sequence with
//!    per-query recording on and off produces identical skylines and
//!    identical deterministic statistics, across the cache search
//!    strategies the paper evaluates.
//! 2. **The report is a rendering.** Every name in `obs::names` shows one
//!    `QueryStats` field, on every executor, and the report's fetch phase
//!    is the one place measured and simulated time are summed.
//! 3. **The report format is frozen.** `skyobs-report/6` JSON is pinned
//!    byte-for-byte by a golden file; any change to the rendering is a
//!    schema change and must bump the version tag.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test code: a failed expectation fails the test"
)]
#![allow(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    reason = "the golden files are found through the environment, and `UPDATE_GOLDEN` rewrites them"
)]

use skycache::core::{
    BaselineExecutor, BbsExecutor, CbcsConfig, Executor, Overlap, QueryOutcome, QueryRequest,
    QueryStats, SearchStrategy, Service, ServiceConfig,
};
use skycache::datagen::{DimStats, Distribution, InteractiveWorkload, SyntheticGen};
use skycache::geom::{Constraints, Point};
use skycache::obs::{names, Phase};
use skycache::storage::{CostModel, Table, TableConfig};

fn sorted(mut v: Vec<Point>) -> Vec<Point> {
    v.sort_by_key(|p| p.coords().iter().map(|c| c.to_bits()).collect::<Vec<u64>>());
    v
}

fn table_for(dims: usize, n: usize, seed: u64) -> Table {
    let points = SyntheticGen::new(Distribution::Independent, dims, seed).generate(n);
    let config = TableConfig { cost_model: CostModel::free() };
    Table::build(points, config).unwrap()
}

fn interactive(table: &Table, n: usize, seed: u64) -> Vec<Constraints> {
    let stats = DimStats::compute(table.all_points());
    InteractiveWorkload::new(stats)
        .generate(n, seed)
        .queries()
        .iter()
        .map(|q| q.constraints.clone())
        .collect()
}

/// Every deterministic field of [`QueryStats`]: all of it except the
/// measured phase times.
fn deterministic(stats: &QueryStats) -> String {
    format!("{:?}", QueryStats { phase_ns: [0; Phase::COUNT], ..stats.clone() })
}

#[test]
fn recording_is_invisible_across_modes_and_strategies() {
    let table = table_for(3, 3_000, 101);
    let queries = interactive(&table, 40, 103);

    for strategy in [
        SearchStrategy::MaxOverlapSP,
        SearchStrategy::Prioritized1D,
        SearchStrategy::prioritized_nd_std(),
    ] {
        let config =
            CbcsConfig { strategy: strategy.clone(), capacity: Some(4), ..Default::default() };
        let plain_service = Service::open(&table, ServiceConfig::with_cbcs(config.clone()));
        let recorded_service = Service::open(&table, ServiceConfig::with_cbcs(config));
        let (mut plain, mut recorded) = (plain_service.session(), recorded_service.session());
        let (mut evictions, mut mpr_regions) = (0, 0);
        for (i, c) in queries.iter().enumerate() {
            let off = plain.execute(&QueryRequest::new(c.clone())).unwrap();
            let on = recorded.execute(&QueryRequest::new(c.clone()).recorded()).unwrap();
            assert!(off.report.is_none(), "unrecorded request produced a report");
            let report = on.report.expect("recorded request yields a report");

            assert_eq!(
                sorted(off.skyline),
                sorted(on.skyline),
                "{strategy:?}: query {i} skyline diverged under recording"
            );
            assert_eq!(
                deterministic(&off.stats),
                deterministic(&on.stats),
                "{strategy:?}: query {i} stats diverged under recording"
            );
            assert_eq!(report.counter(names::CACHE_EVICTIONS), off.stats.evictions);
            evictions += off.stats.evictions;
            mpr_regions += off.stats.mpr_regions;
        }
        // Every counter is there without recording, not only the ones a
        // report used to be needed for.
        assert!(evictions > 0, "{strategy:?}: a capacity of 4 must evict over 40 queries");
        assert!(mpr_regions > 0, "{strategy:?}: an interactive chain must plan MPR regions");
    }
}

type Field = fn(&QueryStats) -> u64;

/// One row per constant of `obs::names`: the name and the [`QueryStats`]
/// field it renders.
const COUNTERS: [(&str, Field); 22] = [
    (names::CACHE_HITS, |s| u64::from(s.cache_hit)),
    (names::CACHE_MISSES, |s| u64::from(s.cache_miss)),
    (names::CACHE_EVICTIONS, |s| s.evictions),
    (names::CACHE_INSERTIONS, |s| s.insertions),
    (names::CACHE_CANDIDATES, |s| s.candidates as u64),
    (names::CACHE_RETAINED_POINTS, |s| s.retained_points),
    (names::CACHE_REMOVED_POINTS, |s| s.removed_points),
    (names::FETCH_REGIONS, |s| s.range_queries_issued),
    (names::FETCH_RQ_EXECUTED, |s| s.range_queries_executed),
    (names::FETCH_RQ_EMPTY, |s| s.range_queries_empty),
    (names::FETCH_POINTS_READ, |s| s.points_read),
    (names::FETCH_HEAP_FETCHES, |s| s.heap_fetches),
    (names::FETCH_INDEX_PROBES, |s| s.index_probes),
    (names::FETCH_INDEX_ENTRIES, |s| s.index_entries_scanned),
    (names::FETCH_REGIONS_COALESCED, |s| s.regions_coalesced),
    (names::FETCH_SIM_NS, |s| s.fetch_sim_ns),
    (names::MPR_REGIONS, |s| s.mpr_regions),
    (names::MPR_PRUNE_POINTS, |s| s.mpr_prune_points),
    (names::MPR_INVALIDATED_PIECES, |s| s.mpr_invalidated_pieces),
    (names::SKYLINE_DOMINANCE_TESTS, |s| s.dominance_tests),
    (names::SKYLINE_RESULT_SIZE, |s| s.result_size),
    (names::SERVE_NEGATIVE_HITS, |s| s.negative_hits),
];

/// Checks one recorded outcome's report against its stats, row by row,
/// and notes which rows it showed a non-zero value for.
fn check_rendering(who: &str, outcome: &QueryOutcome, produced: &mut [bool; COUNTERS.len()]) {
    let stats = &outcome.stats;
    let report = outcome.report.as_ref().expect("recorded request yields a report");
    for (row, (name, field)) in COUNTERS.iter().enumerate() {
        assert_eq!(report.counter(name), field(stats), "{who}: {name}");
        produced[row] |= field(stats) > 0;
    }

    // Measured and simulated fetch time are two fields; both views show
    // their sum, and no other phase gains anything.
    let fetch = stats.phase_ns[Phase::Fetch.index()] + stats.fetch_sim_ns;
    assert_eq!(stats.stages().fetching.as_nanos(), u128::from(fetch), "{who}: stages");
    for phase in Phase::ALL {
        let want = if phase == Phase::Fetch { fetch } else { stats.phase_ns[phase.index()] };
        assert_eq!(report.phase_ns(phase), want, "{who}: {phase:?}");
    }
    let shown: u64 = Phase::ALL.iter().map(|&p| report.phase_ns(p)).sum();
    assert_eq!(stats.stages().total().as_nanos(), u128::from(shown), "{who}: total");
}

#[test]
fn report_renders_every_named_field_on_every_executor() {
    // The table above covers `names` exactly: a constant without a row
    // (and so without a producer) fails here.
    let declared: Vec<&str> = include_str!("../crates/obs/src/names.rs")
        .lines()
        .filter(|l| l.starts_with("pub const "))
        .map(|l| l.split('"').nth(1).expect("a name constant is a string literal"))
        .collect();
    let covered: Vec<&str> = COUNTERS.iter().map(|(name, _)| *name).collect();
    assert_eq!(sorted_names(declared), sorted_names(covered));

    // Default cost model, so simulated time is there to be shown.
    let points = SyntheticGen::new(Distribution::Independent, 3, 101).generate(3_000);
    let table = Table::build(points, TableConfig::default()).unwrap();
    let queries = interactive(&table, 40, 103);
    let mut produced = [false; COUNTERS.len()];

    let small = CbcsConfig { capacity: Some(4), ..Default::default() };
    let service = Service::open(&table, ServiceConfig::with_cbcs(small));
    let mut cbcs = service.session();
    for c in queries.iter().chain(&queries) {
        let outcome = cbcs.execute(&QueryRequest::new(c.clone()).recorded()).unwrap();
        check_rendering("cbcs", &outcome, &mut produced);
    }

    let mut baseline = BaselineExecutor::new(&table);
    let mut bbs = BbsExecutor::new(&table);
    let mut bbs_sim_ns = 0;
    for c in &queries {
        let req = QueryRequest::new(c.clone()).recorded();
        check_rendering("baseline", &baseline.execute(&req).unwrap(), &mut produced);
        let outcome = bbs.execute(&req).unwrap();
        check_rendering("bbs", &outcome, &mut produced);
        // All of BBS's fetch time is simulated node accesses.
        assert_eq!(outcome.stats.phase_ns[Phase::Fetch.index()], 0);
        bbs_sim_ns += outcome.stats.fetch_sim_ns;
    }
    assert!(bbs_sim_ns > 0, "BBS's node accesses must show in fetch_sim_ns");

    // A session: a computed query, then a region no row can fall in —
    // proven empty by the indexes on every ask.
    let service = Service::open(&table, ServiceConfig::default());
    let mut session = service.session();
    let nowhere = Constraints::from_pairs(&[(2.0, 3.0), (2.0, 3.0), (2.0, 3.0)]).unwrap();
    for (c, negative) in [(&queries[0], 0), (&nowhere, 1), (&nowhere, 1)] {
        let outcome = session.execute(&QueryRequest::new(c.clone()).recorded()).unwrap();
        check_rendering("session", &outcome, &mut produced);
        assert_eq!(outcome.stats.negative_hits, negative);
    }

    // Every row has a producer among the runs above.
    let silent: Vec<&str> = COUNTERS
        .iter()
        .map(|(name, _)| *name)
        .zip(produced)
        .filter(|(_, seen)| !seen)
        .map(|(name, _)| name)
        .collect();
    assert!(silent.is_empty(), "no run produced {silent:?}");
}

fn sorted_names(mut v: Vec<&str>) -> Vec<&str> {
    v.sort_unstable();
    v
}

/// Pins the `skyobs-report/6` rendering byte-for-byte. Regenerate the
/// golden file with `UPDATE_GOLDEN=1 cargo test --test observability`
/// after a deliberate schema bump.
#[test]
fn report_json_matches_golden_file() {
    let stats = QueryStats {
        points_read: 420,
        heap_fetches: 512,
        range_queries_issued: 3,
        range_queries_executed: 2,
        range_queries_empty: 1,
        regions_coalesced: 1,
        index_probes: 9,
        index_entries_scanned: 2_048,
        dominance_tests: 1_337,
        phase_ns: [1_200, 800, 15_000, 300_000, 4_000, 90_000],
        fetch_sim_ns: 2_200_000,
        cache_hit: true,
        cache_miss: false,
        case: Some(Overlap::GeneralStable),
        candidates: 7,
        retained_points: 12,
        removed_points: 5,
        mpr_regions: 3,
        mpr_prune_points: 4,
        mpr_invalidated_pieces: 2,
        result_size: 17,
        insertions: 1,
        evictions: 2,
        negative_hits: 0,
        bbs: None,
    };

    let got = stats.report().to_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/skyobs_report.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("golden file is writable");
    }
    let want = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        got, want,
        "skyobs-report/6 bytes changed; if deliberate, bump REPORT_SCHEMA \
         and regenerate with UPDATE_GOLDEN=1"
    );
}
