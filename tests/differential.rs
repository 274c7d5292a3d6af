//! End-to-end differential tests: every executor configuration must
//! produce exactly the same constrained skylines as the naive Baseline on
//! realistic workloads over every data distribution.
//!
//! This is the repository's main correctness gate for the paper pipeline:
//! a bug anywhere in stability classification, the case solutions, MPR
//! splitting, aMPR approximation, caching, strategy selection, storage
//! planning, the R\*-tree, or the skyline algorithms shows up here as a
//! skyline mismatch.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test code: a failed expectation fails the test"
)]

mod common;

use skycache::core::{
    BaselineExecutor, BbsExecutor, CbcsConfig, Executor, MprMode, QueryRequest, ReplacementPolicy,
    SearchStrategy, Service, ServiceConfig,
};
use skycache::datagen::{
    DimStats, Distribution, IndependentWorkload, InteractiveWorkload, SyntheticGen,
};
use skycache::geom::{Constraints, Point};
use skycache::storage::{CostModel, Table, TableConfig};

fn sort_key(p: &Point) -> Vec<u64> {
    p.coords().iter().map(|c| c.to_bits()).collect()
}

fn sorted(mut v: Vec<Point>) -> Vec<Point> {
    v.sort_by_key(sort_key);
    v
}

fn table_for(dist: Distribution, dims: usize, n: usize, seed: u64) -> Table {
    let points = SyntheticGen::new(dist, dims, seed).generate(n);
    let config = TableConfig { cost_model: CostModel::free() };
    Table::build(points, config).unwrap()
}

/// Runs `queries` through one session of a fresh service with `config`,
/// checking each skyline against Baseline's.
fn assert_matches_baseline(
    table: &Table,
    queries: &[Constraints],
    config: CbcsConfig,
    label: &str,
) {
    let service = Service::open(table, ServiceConfig::with_cbcs(config));
    let mut cbcs = service.session();
    let mut baseline = BaselineExecutor::new(table);
    for (i, c) in queries.iter().enumerate() {
        let want = sorted(baseline.execute(&QueryRequest::new(c.clone())).unwrap().skyline);
        let got = sorted(cbcs.execute(&QueryRequest::new(c.clone())).unwrap().skyline);
        assert_eq!(
            got.len(),
            want.len(),
            "{label}: query {i} ({c:?}) cardinality {} != {}",
            got.len(),
            want.len()
        );
        assert_eq!(got, want, "{label}: query {i} ({c:?}) skyline mismatch");
    }
}

fn interactive_queries(table: &Table, n: usize, seed: u64) -> Vec<Constraints> {
    let stats = DimStats::compute(table.all_points());
    InteractiveWorkload::new(stats)
        .generate(n, seed)
        .queries()
        .iter()
        .map(|q| q.constraints.clone())
        .collect()
}

fn independent_queries(table: &Table, n: usize, seed: u64) -> Vec<Constraints> {
    let stats = DimStats::compute(table.all_points());
    IndependentWorkload::new(stats)
        .generate(n, seed)
        .queries()
        .iter()
        .map(|q| q.constraints.clone())
        .collect()
}

#[test]
fn cbcs_exact_mpr_matches_baseline_interactive_all_distributions() {
    for dist in [Distribution::Independent, Distribution::Correlated, Distribution::AntiCorrelated]
    {
        let table = table_for(dist, 3, 4_000, 11);
        let queries = interactive_queries(&table, 60, 21);
        let config = CbcsConfig { mpr: MprMode::Exact, ..Default::default() };
        assert_matches_baseline(&table, &queries, config, &format!("exact-MPR/{dist:?}"));
    }
}

#[test]
fn cbcs_ampr_matches_baseline_for_all_k() {
    let table = table_for(Distribution::Independent, 4, 4_000, 13);
    let queries = interactive_queries(&table, 50, 23);
    for k in [0, 1, 3, 6, 10] {
        let config = CbcsConfig { mpr: MprMode::Approximate { k }, ..Default::default() };
        assert_matches_baseline(&table, &queries, config, &format!("aMPR({k})"));
    }
}

#[test]
fn cbcs_matches_baseline_under_every_strategy() {
    let table = table_for(Distribution::Independent, 3, 3_000, 17);
    let queries = interactive_queries(&table, 40, 29);
    for strategy in [
        SearchStrategy::Random,
        SearchStrategy::MaxOverlap,
        SearchStrategy::MaxOverlapSP,
        SearchStrategy::Prioritized1D,
        SearchStrategy::prioritized_nd_std(),
        SearchStrategy::prioritized_nd_bad(),
        SearchStrategy::OptimumDistance,
    ] {
        let label = strategy.label();
        let config =
            CbcsConfig { mpr: MprMode::Approximate { k: 2 }, strategy, ..Default::default() };
        assert_matches_baseline(&table, &queries, config, &label);
    }
}

#[test]
fn cbcs_matches_baseline_on_independent_workload_with_warm_cache() {
    let table = table_for(Distribution::Independent, 3, 3_000, 19);
    let queries = independent_queries(&table, 80, 31);
    let config = CbcsConfig {
        mpr: MprMode::Approximate { k: 3 },
        strategy: SearchStrategy::prioritized_nd_std(),
        ..Default::default()
    };
    assert_matches_baseline(&table, &queries, config, "independent");
}

#[test]
fn bbs_matches_baseline_on_workload() {
    let table = table_for(Distribution::AntiCorrelated, 3, 3_000, 23);
    let queries = interactive_queries(&table, 30, 37);
    let mut baseline = BaselineExecutor::new(&table);
    let mut bbs = BbsExecutor::new(&table);
    for (i, c) in queries.iter().enumerate() {
        let want = sorted(baseline.execute(&QueryRequest::new(c.clone())).unwrap().skyline);
        let got = sorted(bbs.execute(&QueryRequest::new(c.clone())).unwrap().skyline);
        assert_eq!(got, want, "BBS query {i} mismatch");
    }
}

#[test]
fn cbcs_with_bounded_cache_stays_correct() {
    let table = table_for(Distribution::Independent, 3, 2_000, 29);
    let queries = interactive_queries(&table, 60, 41);
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Lcu] {
        let config = CbcsConfig { capacity: Some(4), policy, ..Default::default() };
        let cbcs = config;
        assert_matches_baseline(&table, &queries, cbcs, &format!("{policy:?}-cap4"));
    }
}

#[test]
fn cbcs_handles_degenerate_and_empty_regions() {
    let table = table_for(Distribution::Independent, 2, 1_000, 31);
    let mut baseline = BaselineExecutor::new(&table);
    let service = Service::open(&table, ServiceConfig::default());
    let mut cbcs = service.session();
    let queries = [
        // Empty region (outside the data space).
        Constraints::from_pairs(&[(2.0, 3.0), (2.0, 3.0)]).unwrap(),
        // Degenerate (zero-width) region.
        Constraints::from_pairs(&[(0.5, 0.5), (0.0, 1.0)]).unwrap(),
        // Full space.
        Constraints::from_pairs(&[(0.0, 1.0), (0.0, 1.0)]).unwrap(),
        // Overlapping the empty region cached earlier.
        Constraints::from_pairs(&[(1.5, 2.5), (1.5, 2.5)]).unwrap(),
    ];
    for (i, c) in queries.iter().enumerate() {
        let want = sorted(baseline.execute(&QueryRequest::new(c.clone())).unwrap().skyline);
        let got = sorted(cbcs.execute(&QueryRequest::new(c.clone())).unwrap().skyline);
        assert_eq!(got, want, "query {i} mismatch");
    }
}

#[test]
fn cbcs_reads_fewer_points_than_baseline_on_refinement_chains() {
    // The paper's headline effect: on interactive chains, CBCS touches far
    // fewer points than Baseline.
    let table = table_for(Distribution::Independent, 3, 20_000, 37);
    let queries = interactive_queries(&table, 100, 43);
    let mut baseline = BaselineExecutor::new(&table);
    let config = CbcsConfig { mpr: MprMode::Approximate { k: 1 }, ..Default::default() };
    let service = Service::open(&table, ServiceConfig::with_cbcs(config));
    let mut cbcs = service.session();
    let mut base_read = 0u64;
    let mut cbcs_read = 0u64;
    for c in &queries {
        base_read += baseline.execute(&QueryRequest::new(c.clone())).unwrap().stats.points_read;
        cbcs_read += cbcs.execute(&QueryRequest::new(c.clone())).unwrap().stats.points_read;
    }
    assert!(
        cbcs_read * 2 < base_read,
        "expected >2x fewer points read: CBCS {cbcs_read} vs Baseline {base_read}"
    );
}

#[test]
fn every_policy_and_capacity_matches_baseline() {
    // Every replacement policy × capacity, through a one-session service:
    // the skyline is Baseline's, row for row as a multiset, on uniform
    // data, where every row is stored twice, where the two copies differ
    // in their zeros' signs, at 1e17 where neighbouring cells round to
    // ties, and on subnormals — all 500 queries, the ones the indexes
    // prove empty and the ones open to ±∞ included. Default cost model
    // for uniform data and the last two tables, so the corner-first step
    // prices its choices as it does in production, on non-uniform
    // coordinates too.
    let points = SyntheticGen::new(Distribution::Independent, 3, 53).generate(2_000);
    let uniform = Table::build(points, TableConfig::default()).unwrap();
    let mut queries = interactive_queries(&uniform, 60, 59);
    queries.extend(independent_queries(&uniform, 40, 61));
    let twins = common::twin_grid_table(3, 300, 1);
    let zeros = common::signed_zero_table(3, 300, 3);
    let huge = common::coord_table(3, 300, 5, common::huge);
    let subnormal = common::coord_table(3, 300, 7, common::subnormal);

    for (name, table, queries) in [
        ("uniform", &uniform, queries),
        ("twins", &twins, common::grid_boxes(3, 100, 2)),
        ("signed zeros", &zeros, common::signed_zero_boxes(3, 100, 4)),
        ("1e17 ties", &huge, common::open_sided_boxes(3, 100, 6, common::huge)),
        ("subnormals", &subnormal, common::open_sided_boxes(3, 100, 8, common::subnormal)),
    ] {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Lcu] {
            for capacity in [None, Some(8)] {
                let cbcs = CbcsConfig { policy, capacity, ..Default::default() };
                let label = format!("{name}/{policy:?}/cap {capacity:?}");
                assert_matches_baseline(table, &queries, cbcs, &label);
            }
        }
    }
}

#[test]
fn corner_first_reads_less_than_the_constrained_data() {
    // A miss over [lo, hi]³, then a hit whose three lower bounds moved
    // down (a general overlap): the rows near the lower corner prune most
    // of R_C′, so each reads under half of S_C′ — the parent's miss read
    // all of it, its hit the 3/4 of R_C′ outside the cached box — and
    // answers exactly like Baseline, where every row is stored twice too.
    let uniform = table_for(Distribution::Independent, 3, 20_000, 67);
    let twins = common::twin_grid_table(3, 3_000, 3);
    let cube = |lo: f64, hi: f64| Constraints::from_pairs(&[(lo, hi); 3]).unwrap();
    for (name, table, cached, query) in [
        ("uniform", &uniform, cube(0.4, 0.9), cube(0.1, 0.9)),
        ("twins", &twins, cube(4.0, 11.0), cube(1.0, 11.0)),
    ] {
        let mut baseline = BaselineExecutor::new(table);
        for warm in [None, Some(&cached)] {
            let service = Service::open(table, ServiceConfig::default());
            let mut cbcs = service.session();
            if let Some(c) = warm {
                cbcs.execute(&QueryRequest::new(c.clone())).unwrap();
            }
            let want = baseline.execute(&QueryRequest::new(query.clone())).unwrap();
            let got = cbcs.execute(&QueryRequest::new(query.clone())).unwrap();
            let s_c = want.stats.points_read;
            assert_eq!(got.stats.cache_hit, warm.is_some(), "{name}");
            assert!(
                got.stats.points_read * 2 < s_c,
                "{name}, hit {}: read {} of |S_C′| = {s_c}",
                warm.is_some(),
                got.stats.points_read
            );
            assert_eq!(sorted(got.skyline), sorted(want.skyline), "{name}, hit {}", warm.is_some());
        }
    }
}
