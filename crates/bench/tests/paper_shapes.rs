//! The paper's shapes, pinned on simulated I/O and exact counts only
//! (deterministic: no measured clock enters), each in the set-up of the
//! `repro` figure it comes from, with that figure's seeds, at |S| = 50 k.
//!
//! * Fig. 5: answering from the cache must cost less simulated I/O than
//!   the from-scratch range query, and a stable hit less than an unstable
//!   one. Both inverted once without a test noticing, when every
//!   coalesced unit was charged its whole merged slice.
//! * Fig. 6: under the exact MPR, an unstable hit issues more range
//!   queries than a stable one.
//! * Fig. 9: exact MPR's range queries grow by orders of magnitude with
//!   the dimensionality, while aMPR(1)'s stay few (at |S| = 5 k, as in
//!   the figure).
//! * Fig. 10: a Case 2 hit is free, and a Case 3 hit fetches less than a
//!   Case 1 hit.

use skycache_bench::{
    filter_by_case, interactive_queries, run_queries, split_by_stability, summarize,
    synthetic_table,
};
use skycache_core::{
    BaselineExecutor, CbcsConfig, MprMode, Overlap, QueryStats, SearchStrategy, Service,
    ServiceConfig,
};
use skycache_datagen::Distribution;

/// Mean simulated fetch nanoseconds per query.
fn mean_sim_ns<'a>(records: impl IntoIterator<Item = &'a QueryStats>) -> u64 {
    let sims: Vec<u64> = records.into_iter().map(|r| r.fetch_sim_ns).collect();
    sims.iter().sum::<u64>() / sims.len() as u64
}

#[test]
fn cbcs_beats_baseline_and_stable_hits_beat_unstable_ones() {
    let table = synthetic_table(Distribution::Independent, 5, 50_000, 42);
    let queries = interactive_queries(&table, 100, 17, None);

    let baseline = run_queries(&mut BaselineExecutor::new(&table), &queries);
    let service = Service::open(&table, ServiceConfig::default());
    let cbcs = run_queries(&mut service.session(), &queries);
    let (baseline_ns, cbcs_ns) = (mean_sim_ns(&baseline), mean_sim_ns(&cbcs));
    assert!(cbcs_ns < baseline_ns, "CBCS {cbcs_ns} ns/query vs Baseline {baseline_ns} ns/query");

    let (stable, unstable) = split_by_stability(&cbcs);
    assert!(stable.len() >= 10 && unstable.len() >= 10, "too few hits of either kind");
    let (stable_ns, unstable_ns) = (mean_sim_ns(stable), mean_sim_ns(unstable));
    assert!(stable_ns < unstable_ns, "stable {stable_ns} ns/hit vs unstable {unstable_ns} ns/hit");
}

/// Fig. 6's set-up: independent data, d = 3, 100 interactive queries, at
/// its smallest |S| (50 k), with the exact MPR. Its unstable hits issue
/// more range queries per hit than its stable ones (21.9 against 18.2
/// here, over 15 and 36 hits) — the paper's "prohibitive amount of range
/// queries". Smaller tables flip the order (8.9 against 13.6 at 5 k,
/// 14.5 against 15.9 at 20 k).
#[test]
fn exact_mpr_unstable_hits_issue_more_range_queries_than_stable_ones() {
    let table = synthetic_table(Distribution::Independent, 3, 50_000, 42);
    let queries = interactive_queries(&table, 100, 17, None);
    let config = CbcsConfig { mpr: MprMode::Exact, ..Default::default() };
    let service = Service::open(&table, ServiceConfig::with_cbcs(config));
    let records = run_queries(&mut service.session(), &queries);

    let (stable, unstable) = split_by_stability(&records);
    assert!(stable.len() >= 10 && unstable.len() >= 10, "too few hits of either kind");
    let (stable_rq, unstable_rq) = (summarize(stable).avg_rq, summarize(unstable).avg_rq);
    assert!(
        unstable_rq > stable_rq,
        "exact MPR: unstable {unstable_rq} range queries/hit vs stable {stable_rq}"
    );
}

/// Mean range queries issued per cache hit in `repro fig9`'s interactive
/// set-up: independent data, |S| = 5 k, 60 chained queries,
/// `MaxOverlapSP`.
fn fig9_rq_per_hit(dims: usize, mpr: MprMode) -> f64 {
    let table = synthetic_table(Distribution::Independent, dims, 5_000, 42);
    let queries = interactive_queries(&table, 60, 17, None);
    let config = CbcsConfig { mpr, strategy: SearchStrategy::MaxOverlapSP, ..Default::default() };
    let service = Service::open(&table, ServiceConfig::with_cbcs(config));
    let records = run_queries(&mut service.session(), &queries);
    summarize(filter_by_case(&records, |_| true)).avg_rq
}

/// Fig. 9: exact MPR carves the dominance region of every retained
/// cached skyline point out of the new region, and each carve may split
/// every piece left into up to d more, so its range queries per hit
/// explode with d (1.5 at d = 2, 358 at d = 5 here). aMPR(1) carves with
/// one point and covers the invalidated space with boxes, so it issues a
/// handful at every d.
#[test]
fn exact_mpr_range_queries_explode_with_d_while_ampr_stays_small() {
    let (low, high) = (fig9_rq_per_hit(2, MprMode::Exact), fig9_rq_per_hit(5, MprMode::Exact));
    assert!(high >= 100.0 * low, "exact MPR: {low} range queries/hit at d = 2, {high} at d = 5");
    for dims in 2..=5 {
        let ampr = fig9_rq_per_hit(dims, MprMode::Approximate { k: 1 });
        assert!(ampr <= 10.0, "aMPR(1): {ampr} range queries/hit at d = {dims}");
    }
}

/// Fig. 10's set-up: independent data, d = 3, `Prioritized1D` (which
/// surfaces the single-bound cases), 100 interactive queries; at 50 k
/// they give 9 Case 1, 6 Case 2 and 15 Case 3 hits. A Case 2 hit — one
/// upper bound lowered — is answered from the cached skyline alone
/// (Theorem 3): it reads no point and issues no range query. A Case 3
/// hit — one upper bound raised — needs only the part of the added slab
/// that no cached skyline point dominates, so its mean simulated fetch
/// time sits below a Case 1 hit's, whose added slab lies below the cached
/// points in that dimension.
#[test]
fn case_2_hits_are_free_and_case_3_fetches_less_than_case_1() {
    let table = synthetic_table(Distribution::Independent, 3, 50_000, 42);
    let queries = interactive_queries(&table, 100, 17, None);
    let config = CbcsConfig { strategy: SearchStrategy::Prioritized1D, ..Default::default() };
    let service = Service::open(&table, ServiceConfig::with_cbcs(config));
    let records = run_queries(&mut service.session(), &queries);

    let case_1 = filter_by_case(&records, |c| matches!(c, Overlap::CaseA { .. }));
    let case_2 = filter_by_case(&records, |c| matches!(c, Overlap::CaseB { .. }));
    let case_3 = filter_by_case(&records, |c| matches!(c, Overlap::CaseC { .. }));
    let hits = [case_1.len(), case_2.len(), case_3.len()];
    assert!(hits.iter().all(|&n| n >= 5), "too few Case 1 / 2 / 3 hits: {hits:?}");

    for r in &case_2 {
        assert_eq!((r.points_read, r.range_queries_issued), (0, 0), "a Case 2 hit fetched");
    }
    let (case_1_ns, case_3_ns) = (mean_sim_ns(case_1), mean_sim_ns(case_3));
    assert!(case_3_ns < case_1_ns, "Case 3 {case_3_ns} ns/hit vs Case 1 {case_1_ns} ns/hit");
}
