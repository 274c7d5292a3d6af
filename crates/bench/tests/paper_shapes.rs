//! The paper's headline, pinned on simulated time only (deterministic:
//! no measured clock enters): in the set-up `repro fig5` prints first —
//! independent data, d = 5, |S| = 50 k, 100 interactive queries, its
//! seeds — answering from the cache must cost less simulated I/O than the
//! from-scratch range query, and a stable hit less than an unstable one
//! (paper Fig. 5). Both inverted once without a test noticing, when every
//! coalesced unit was charged its whole merged slice.

use skycache_bench::{interactive_queries, run_queries, split_by_stability, synthetic_table};
use skycache_core::{BaselineExecutor, QueryStats, Service, ServiceConfig};
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
