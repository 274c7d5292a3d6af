//! The paper's shapes, pinned on simulated I/O and exact counts only
//! (deterministic: no measured clock enters), each in the set-up of the
//! `repro` figure it comes from, with that figure's seeds, at |S| = 50 k.
//!
//! * Fig. 5: answering from the cache must cost less simulated I/O than
//!   the from-scratch range query, and a stable hit less than an unstable
//!   one. Both inverted once without a test noticing, when every
//!   coalesced unit was charged its whole merged slice.
//! * Fig. 10: a Case 2 hit is free, and a Case 3 hit fetches less than a
//!   Case 1 hit.

use skycache_bench::{
    filter_by_case, interactive_queries, run_queries, split_by_stability, synthetic_table,
};
use skycache_core::{
    BaselineExecutor, CbcsConfig, Overlap, QueryStats, SearchStrategy, Service, ServiceConfig,
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
