//! The observability layer must be a pure observer.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Recording is invisible.** Running the same query sequence with
//!    per-query recording on and off produces identical skylines and
//!    identical deterministic statistics, across the cache search
//!    strategies the paper evaluates.
//! 2. **The report format is frozen.** `skyobs-report/1` JSON is pinned
//!    byte-for-byte by a golden file; any change to the rendering is a
//!    schema change and must bump the version tag.

use skycache::core::{
    CbcsConfig, CbcsExecutor, Executor, QueryRequest, QueryStats, SearchStrategy,
};
use skycache::datagen::{DimStats, Distribution, InteractiveWorkload, SyntheticGen};
use skycache::geom::{Constraints, Point};
use skycache::obs::{names, Phase, QueryRecorder, Recorder};
use skycache::storage::{CostModel, Table, TableConfig};

fn sorted(mut v: Vec<Point>) -> Vec<Point> {
    v.sort_by_key(|p| p.coords().iter().map(|c| c.to_bits()).collect::<Vec<u64>>());
    v
}

fn table_for(dims: usize, n: usize, seed: u64) -> Table {
    let points = SyntheticGen::new(Distribution::Independent, dims, seed).generate(n);
    let config = TableConfig { cost_model: CostModel::free(), ..Default::default() };
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

/// Every deterministic field of [`QueryStats`] — everything except the
/// wall-clock stage times.
fn deterministic(stats: &QueryStats) -> impl PartialEq + std::fmt::Debug {
    (
        stats.cache_hit,
        stats.case,
        stats.candidates,
        stats.retained_points,
        stats.removed_points,
        (
            stats.points_read,
            stats.heap_fetches,
            stats.range_queries_issued,
            stats.range_queries_executed,
            stats.range_queries_empty,
        ),
        stats.dominance_tests,
        stats.result_size,
    )
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
        let config = CbcsConfig { strategy: strategy.clone(), ..Default::default() };
        let mut plain = CbcsExecutor::new(&table, config.clone());
        let mut recorded = CbcsExecutor::new(&table, config);
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

            // The report's canonical counters mirror the legacy stats.
            assert_eq!(report.counter(names::FETCH_POINTS_READ), on.stats.points_read);
            assert_eq!(report.counter(names::SKYLINE_DOMINANCE_TESTS), on.stats.dominance_tests);
            assert_eq!(
                report.counter(names::CACHE_HITS) == 1,
                on.stats.cache_hit,
                "{strategy:?}: query {i} hit flag mismatch"
            );
        }
    }
}

/// Pins the `skyobs-report/1` rendering byte-for-byte. Regenerate the
/// golden file with `UPDATE_GOLDEN=1 cargo test --test observability`
/// after a deliberate schema bump.
#[test]
fn report_json_matches_golden_file() {
    use std::time::Duration;

    let mut rec = QueryRecorder::new();
    rec.record_span(Phase::CacheLookup, Duration::from_nanos(1_200));
    rec.record_span(Phase::CaseAnalysis, Duration::from_nanos(800));
    rec.record_span(Phase::MprCompute, Duration::from_nanos(15_000));
    rec.record_span(Phase::Fetch, Duration::from_micros(2_500));
    rec.record_span(Phase::Merge, Duration::from_nanos(4_000));
    rec.record_span(Phase::Skyline, Duration::from_micros(90));
    rec.add_counter(names::CACHE_HITS, 1);
    rec.add_counter(names::CACHE_CANDIDATES, 7);
    rec.add_counter(names::MPR_REGIONS, 3);
    rec.add_counter(names::FETCH_REGIONS, 3);
    rec.add_counter(names::FETCH_POINTS_READ, 420);
    rec.add_counter(names::SKYLINE_DOMINANCE_TESTS, 1_337);
    rec.add_counter(names::SKYLINE_RESULT_SIZE, 17);
    rec.set_gauge(names::ALLOC_PER_QUERY, 255.0);
    rec.set_gauge(names::CACHE_COVER_FRACTION, 0.75);
    rec.observe_value(names::FETCH_LATENCY_NS, 1_000.0);
    rec.observe_value(names::FETCH_LATENCY_NS, 3_000.0);
    rec.observe_value(names::FETCH_LATENCY_NS, 2_000.0);

    let got = rec.into_report().to_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/skyobs_report.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("golden file is writable");
    }
    let want = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        got, want,
        "skyobs-report/1 bytes changed; if deliberate, bump REPORT_SCHEMA \
         and regenerate with UPDATE_GOLDEN=1"
    );
}

/// Merging reports must add phase times and counters.
#[test]
fn merged_reports_aggregate_phases_and_counters() {
    use std::time::Duration;

    let mut a = QueryRecorder::new();
    a.record_span(Phase::Fetch, Duration::from_nanos(100));
    a.add_counter(names::CACHE_HITS, 1);
    let mut b = QueryRecorder::new();
    b.record_span(Phase::Fetch, Duration::from_nanos(250));
    b.add_counter(names::CACHE_MISSES, 1);

    let mut total = a.into_report();
    total.merge(&b.into_report());
    assert_eq!(total.phase_ns(Phase::Fetch), 350);
    assert_eq!(total.counter(names::CACHE_HITS), 1);
    assert_eq!(total.counter(names::CACHE_MISSES), 1);
}
