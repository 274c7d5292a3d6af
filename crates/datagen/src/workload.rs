//! Query workload generation (paper Section 7.1).
//!
//! The paper evaluates with two workloads over the same query generator:
//!
//! 1. **Interactive exploratory search** — a user poses an initial query
//!    and then refines it 1–10 times, each refinement changing a single
//!    randomly chosen dimension and direction by 5–10%. Chains are
//!    concatenated until the desired number of queries is reached.
//! 2. **Independent queries** — every query is generated like an initial
//!    query (a fresh "user").
//!
//! Initial constraints are drawn per dimension with `C̲[i]` and `C̄[i]`
//! "set randomly between 0 and 3 standard deviations from the mean of
//! dimension i": each bound is drawn uniformly from
//! `[mean − 3σ, mean + 3σ]` and the two draws are ordered, modelling that
//! average-valued items are the most likely search targets (and matching
//! the query selectivities the paper reports, e.g. Baseline reading ~3% of
//! a 5-D dataset in its Figure 8a).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skycache_geom::float::exact_eq;
use skycache_geom::{Constraints, Point};

/// Per-dimension mean and standard deviation of a dataset, the anchor for
/// workload generation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DimStats {
    /// Arithmetic mean of the dimension.
    pub mean: f64,
    /// Standard deviation of the dimension.
    pub std: f64,
}

impl DimStats {
    /// Computes per-dimension statistics of a non-empty dataset.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn compute(points: &[Point]) -> Vec<DimStats> {
        assert!(!points.is_empty(), "cannot profile an empty dataset");
        let dims = points[0].dims();
        let n = points.len() as f64;
        let mut mean = vec![0.0; dims];
        for p in points {
            for (i, &c) in p.coords().iter().enumerate() {
                mean[i] += c;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; dims];
        for p in points {
            for (i, &c) in p.coords().iter().enumerate() {
                var[i] += (c - mean[i]) * (c - mean[i]);
            }
        }
        mean.into_iter().zip(var).map(|(mean, v)| DimStats { mean, std: (v / n).sqrt() }).collect()
    }
}

/// One query of a workload, annotated with its position in a refinement
/// chain (`step == 0` is the chain's initial query).
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// The constraints to query.
    pub constraints: Constraints,
    /// Index of the refinement chain this query belongs to.
    pub chain: usize,
    /// Position within the chain; 0 for the initial query.
    pub step: usize,
}

/// A generated sequence of queries.
#[derive(Clone, Debug, Default)]
pub struct Workload {
    queries: Vec<QuerySpec>,
}

impl Workload {
    /// The queries in issue order.
    pub fn queries(&self) -> &[QuerySpec] {
        &self.queries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// Shared knobs of both workload generators.
#[derive(Clone, Debug)]
struct GenParams {
    /// Constrain only the first `constrained_dims` dimensions; the rest are
    /// unbounded (used by the dimensionality experiment, Fig. 7).
    constrained_dims: usize,
    /// Half-width multiplier: bounds drawn within `0..sigma_span` standard
    /// deviations of the mean.
    sigma_span: f64,
}

#[expect(clippy::expect_used, reason = "lo/hi are min/max of the same two samples")]
fn initial_constraints<R: Rng>(rng: &mut R, stats: &[DimStats], params: &GenParams) -> Constraints {
    let dims = stats.len();
    let mut lo = vec![f64::NEG_INFINITY; dims];
    let mut hi = vec![f64::INFINITY; dims];
    for (i, s) in stats.iter().enumerate().take(params.constrained_dims) {
        // Degenerate dimensions still get a non-empty box.
        let spread = if s.std > 0.0 { s.std } else { s.mean.abs().max(1.0) * 0.01 };
        let a = s.mean + rng.gen_range(-params.sigma_span..params.sigma_span) * spread;
        let b = s.mean + rng.gen_range(-params.sigma_span..params.sigma_span) * spread;
        lo[i] = a.min(b);
        hi[i] = a.max(b);
    }
    Constraints::new(lo, hi).expect("lo <= hi by construction")
}

/// The four possible single-bound refinements, matching the cases of
/// Section 4.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Refinement {
    DecreaseLower,
    DecreaseUpper,
    IncreaseUpper,
    IncreaseLower,
}

const REFINEMENTS: [Refinement; 4] = [
    Refinement::DecreaseLower,
    Refinement::DecreaseUpper,
    Refinement::IncreaseUpper,
    Refinement::IncreaseLower,
];

fn refine<R: Rng>(
    rng: &mut R,
    c: &Constraints,
    stats: &[DimStats],
    params: &GenParams,
) -> Constraints {
    // Retry until a refinement yields a valid, changed box (shrinking moves
    // on an almost-empty dimension are clamped and may be rejected).
    for _ in 0..64 {
        let dim = rng.gen_range(0..params.constrained_dims);
        let kind = REFINEMENTS[rng.gen_range(0..4)];
        let (lo, hi) = (c.lo()[dim], c.hi()[dim]);
        // 5–10% of the current constraint width; for unbounded dimensions
        // fall back to the dimension's spread.
        let base_width =
            if lo.is_finite() && hi.is_finite() { hi - lo } else { 6.0 * stats[dim].std };
        let delta = base_width.max(f64::MIN_POSITIVE) * rng.gen_range(0.05..0.10);
        let (new_lo, new_hi) = match kind {
            Refinement::DecreaseLower => (lo - delta, hi),
            Refinement::IncreaseLower => ((lo + delta).min(hi), hi),
            Refinement::DecreaseUpper => (lo, (hi - delta).max(lo)),
            Refinement::IncreaseUpper => (lo, hi + delta),
        };
        if new_lo > new_hi || (exact_eq(new_lo, lo) && exact_eq(new_hi, hi)) {
            continue;
        }
        if let Ok(next) = c.with_dim(dim, new_lo, new_hi) {
            return next;
        }
    }
    c.clone()
}

/// Generator for the interactive exploratory search workload.
#[derive(Clone, Debug)]
pub struct InteractiveWorkload {
    stats: Vec<DimStats>,
    params: GenParams,
}

impl InteractiveWorkload {
    /// Creates a generator anchored on the dataset statistics.
    pub fn new(stats: Vec<DimStats>) -> Self {
        let constrained_dims = stats.len();
        InteractiveWorkload { stats, params: GenParams { constrained_dims, sigma_span: 3.0 } }
    }

    /// Constrains only the first `k` dimensions (Fig. 7 setup); the rest
    /// stay unbounded in every generated query.
    pub fn constrained_dims(mut self, k: usize) -> Self {
        assert!(k > 0 && k <= self.stats.len());
        self.params.constrained_dims = k;
        self
    }

    /// Generates chains of refined queries until `total` queries exist.
    ///
    /// Each chain is an initial query followed by 1–10 refinements, per
    /// the paper's generator.
    pub fn generate(&self, total: usize, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queries = Vec::with_capacity(total);
        let mut chain = 0usize;
        while queries.len() < total {
            let mut current = initial_constraints(&mut rng, &self.stats, &self.params);
            queries.push(QuerySpec { constraints: current.clone(), chain, step: 0 });
            let refinements = rng.gen_range(1..=10usize);
            for step in 1..=refinements {
                if queries.len() >= total {
                    break;
                }
                current = refine(&mut rng, &current, &self.stats, &self.params);
                queries.push(QuerySpec { constraints: current.clone(), chain, step });
            }
            chain += 1;
        }
        Workload { queries }
    }
}

/// Generator for the independent (multi-user) workload: every query is an
/// initial query from a fresh "user".
#[derive(Clone, Debug)]
pub struct IndependentWorkload {
    stats: Vec<DimStats>,
    params: GenParams,
}

impl IndependentWorkload {
    /// Creates a generator anchored on the dataset statistics.
    pub fn new(stats: Vec<DimStats>) -> Self {
        let constrained_dims = stats.len();
        IndependentWorkload { stats, params: GenParams { constrained_dims, sigma_span: 3.0 } }
    }

    /// Constrains only the first `k` dimensions.
    pub fn constrained_dims(mut self, k: usize) -> Self {
        assert!(k > 0 && k <= self.stats.len());
        self.params.constrained_dims = k;
        self
    }

    /// Generates `total` independent queries.
    pub fn generate(&self, total: usize, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        let queries = (0..total)
            .map(|chain| QuerySpec {
                constraints: initial_constraints(&mut rng, &self.stats, &self.params),
                chain,
                step: 0,
            })
            .collect();
        Workload { queries }
    }
}

/// Generator for a Zipf-skewed, session-correlated workload: a fixed
/// pool of base queries is drawn up front, and every issued query picks
/// a base by Zipf rank (`weight(r) ∝ 1/rᔆ` over the pool ordered by
/// rank), so a handful of "hot" regions dominate the stream — the
/// popularity skew real multi-user traffic shows and the regime where
/// frequency-aware cache replacement (LCU) separates from pure recency
/// (LRU).
///
/// With probability [`ZipfWorkload::refine_prob`], an issued query is
/// additionally refined once (same single-bound mutation as the
/// interactive workload) to model session drift around a hot region;
/// the refinement perturbs the issued copy only, never the pool.
///
/// With [`ZipfWorkload::rotate_every`] set, the rank→base assignment
/// additionally shifts by a quarter of the pool every period, so the
/// *identity* of the hot queries drifts over the stream (trending
/// traffic). Popularity drift is the regime where a policy that never
/// forgets (use-count eviction) pins formerly-hot items.
///
/// [`QuerySpec::chain`] carries the pool index of the base query
/// (equal to the Zipf rank while rotation is off) and
/// [`QuerySpec::step`] is 0 for verbatim pool queries, 1 for drifted
/// ones.
#[derive(Clone, Debug)]
pub struct ZipfWorkload {
    stats: Vec<DimStats>,
    params: GenParams,
    pool: usize,
    exponent: f64,
    refine_prob: f64,
    rotate_every: usize,
}

impl ZipfWorkload {
    /// Creates a generator anchored on the dataset statistics with a
    /// pool of 200 base queries, exponent 1.1 and 5% drift.
    pub fn new(stats: Vec<DimStats>) -> Self {
        let constrained_dims = stats.len();
        ZipfWorkload {
            stats,
            params: GenParams { constrained_dims, sigma_span: 3.0 },
            pool: 200,
            exponent: 1.1,
            refine_prob: 0.05,
            rotate_every: 0,
        }
    }

    /// Constrains only the first `k` dimensions.
    pub fn constrained_dims(mut self, k: usize) -> Self {
        assert!(k > 0 && k <= self.stats.len());
        self.params.constrained_dims = k;
        self
    }

    /// Sets the base-query pool size (must be nonzero).
    pub fn pool(mut self, pool: usize) -> Self {
        assert!(pool > 0, "pool must be nonzero");
        self.pool = pool;
        self
    }

    /// Sets the Zipf exponent `s` (`weight(r) ∝ 1/rᔆ`; larger = more
    /// skew; must be finite and non-negative).
    pub fn exponent(mut self, s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "exponent must be finite and non-negative");
        self.exponent = s;
        self
    }

    /// Sets the probability that an issued query drifts one refinement
    /// away from its base (must lie in `[0, 1]`).
    pub fn refine_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must lie in [0, 1]");
        self.refine_prob = p;
        self
    }

    /// Shifts which pool entries are hot every `period` issued queries
    /// (`0` disables rotation, the default): each period moves the
    /// rank→base assignment forward by `pool / 4` (minimum 1), so the
    /// popular set drifts deterministically over the stream.
    pub fn rotate_every(mut self, period: usize) -> Self {
        self.rotate_every = period;
        self
    }

    /// Generates `total` Zipf-distributed queries.
    pub fn generate(&self, total: usize, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        let bases: Vec<Constraints> = (0..self.pool)
            .map(|_| initial_constraints(&mut rng, &self.stats, &self.params))
            .collect();
        // Cumulative Zipf weights over ranks 1..=pool; a uniform draw in
        // [0, cum.last()) binary-searches to its rank.
        let mut cum = Vec::with_capacity(self.pool);
        let mut acc = 0.0f64;
        for rank in 1..=self.pool {
            acc += (rank as f64).powf(-self.exponent);
            cum.push(acc);
        }
        let queries = (0..total)
            .map(|i| {
                let u: f64 = rng.gen_range(0.0..acc);
                let rank = cum.partition_point(|&c| c <= u);
                let offset =
                    i.checked_div(self.rotate_every).map_or(0, |r| r * (self.pool / 4).max(1));
                let idx = (rank + offset) % self.pool;
                #[expect(
                    clippy::expect_used,
                    reason = "rank < pool (partition_point over the pool-sized table) \
                              and the offset is reduced mod pool"
                )]
                let base = bases.get(idx).expect("index stays inside the pool");
                if rng.gen_bool(self.refine_prob) {
                    let drifted = refine(&mut rng, base, &self.stats, &self.params);
                    QuerySpec { constraints: drifted, chain: idx, step: 1 }
                } else {
                    QuerySpec { constraints: base.clone(), chain: idx, step: 0 }
                }
            })
            .collect();
        Workload { queries }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact expectations on exactly computed values")]
mod tests {
    use super::*;
    use crate::{Distribution, SyntheticGen};

    fn stats_3d() -> Vec<DimStats> {
        let pts = SyntheticGen::new(Distribution::Independent, 3, 9).generate(5_000);
        DimStats::compute(&pts)
    }

    #[test]
    fn dim_stats_on_known_data() {
        let pts = vec![
            Point::from(vec![0.0, 10.0]),
            Point::from(vec![2.0, 10.0]),
            Point::from(vec![4.0, 10.0]),
        ];
        let s = DimStats::compute(&pts);
        assert!((s[0].mean - 2.0).abs() < 1e-12);
        assert!((s[0].std - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s[1].mean, 10.0);
        assert_eq!(s[1].std, 0.0);
    }

    #[test]
    fn interactive_reaches_total_and_is_deterministic() {
        let gen = InteractiveWorkload::new(stats_3d());
        let w = gen.generate(100, 42);
        assert_eq!(w.len(), 100);
        let w2 = gen.generate(100, 42);
        for (a, b) in w.queries().iter().zip(w2.queries()) {
            assert_eq!(a.constraints, b.constraints);
        }
    }

    #[test]
    fn interactive_chains_change_one_dim_per_step() {
        let gen = InteractiveWorkload::new(stats_3d());
        let w = gen.generate(200, 7);
        for pair in w.queries().windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if a.chain != b.chain {
                continue; // new chain, fresh initial query
            }
            assert_eq!(b.step, a.step + 1);
            let mut changed = 0;
            for i in 0..3 {
                let lo_diff = a.constraints.lo()[i] != b.constraints.lo()[i];
                let hi_diff = a.constraints.hi()[i] != b.constraints.hi()[i];
                if lo_diff || hi_diff {
                    changed += 1;
                    // Only one bound of the dimension changes.
                    assert!(lo_diff != hi_diff, "both bounds changed in dim {i}");
                }
            }
            assert_eq!(changed, 1, "exactly one dimension per refinement");
        }
    }

    #[test]
    fn refinement_magnitude_is_5_to_10_percent() {
        let gen = InteractiveWorkload::new(stats_3d());
        let w = gen.generate(300, 3);
        for pair in w.queries().windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if a.chain != b.chain {
                continue;
            }
            for i in 0..3 {
                let width = a.constraints.hi()[i] - a.constraints.lo()[i];
                let lo_d = (a.constraints.lo()[i] - b.constraints.lo()[i]).abs();
                let hi_d = (a.constraints.hi()[i] - b.constraints.hi()[i]).abs();
                let d = lo_d.max(hi_d);
                if d > 0.0 && width > 0.0 {
                    let pct = d / width;
                    assert!((0.049..0.101).contains(&pct), "refinement changed dim {i} by {pct}");
                }
            }
        }
    }

    #[test]
    fn independent_queries_are_fresh_per_query() {
        let gen = IndependentWorkload::new(stats_3d());
        let w = gen.generate(50, 5);
        assert_eq!(w.len(), 50);
        assert!(w.queries().iter().all(|q| q.step == 0));
        // Chains all distinct.
        let chains: std::collections::BTreeSet<_> = w.queries().iter().map(|q| q.chain).collect();
        assert_eq!(chains.len(), 50);
    }

    #[test]
    fn constrained_dims_leaves_rest_unbounded() {
        let pts = SyntheticGen::new(Distribution::Independent, 8, 10).generate(2_000);
        let stats = DimStats::compute(&pts);
        let w = InteractiveWorkload::new(stats).constrained_dims(5).generate(60, 1);
        for q in w.queries() {
            for i in 5..8 {
                assert_eq!(q.constraints.lo()[i], f64::NEG_INFINITY);
                assert_eq!(q.constraints.hi()[i], f64::INFINITY);
            }
            for i in 0..5 {
                assert!(q.constraints.lo()[i].is_finite());
                assert!(q.constraints.hi()[i].is_finite());
            }
        }
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let gen = ZipfWorkload::new(stats_3d()).pool(50).exponent(1.2).refine_prob(0.1);
        let w = gen.generate(1_000, 11);
        assert_eq!(w.len(), 1_000);
        let w2 = gen.generate(1_000, 11);
        for (a, b) in w.queries().iter().zip(w2.queries()) {
            assert_eq!(a.constraints, b.constraints);
            assert_eq!((a.chain, a.step), (b.chain, b.step));
        }
        // Skew: rank 0 must dominate any deep-tail rank by a wide margin.
        let count = |rank: usize| w.queries().iter().filter(|q| q.chain == rank).count();
        assert!(count(0) >= 5 * count(40).max(1), "rank 0: {}, rank 40: {}", count(0), count(40));
        // All ranks index the pool.
        assert!(w.queries().iter().all(|q| q.chain < 50));
    }

    #[test]
    fn zipf_repeats_base_queries_verbatim_and_drifts_some() {
        let gen = ZipfWorkload::new(stats_3d()).pool(20).refine_prob(0.25);
        let w = gen.generate(400, 3);
        let verbatim: Vec<_> = w.queries().iter().filter(|q| q.step == 0).collect();
        let drifted = w.queries().iter().filter(|q| q.step == 1).count();
        assert!(drifted > 40 && drifted < 180, "drift count {drifted} outside ~25% band");
        // Every verbatim issue of the same rank is the identical box —
        // the exact-hit repetition the cache feeds on.
        for q in &verbatim {
            let twin = verbatim.iter().find(|p| p.chain == q.chain).unwrap();
            assert_eq!(twin.constraints, q.constraints);
        }
    }

    #[test]
    fn zipf_rotation_shifts_the_hot_base() {
        let gen =
            ZipfWorkload::new(stats_3d()).pool(16).exponent(1.5).refine_prob(0.0).rotate_every(100);
        let w = gen.generate(200, 7);
        let hot = |qs: &[QuerySpec]| {
            let mut counts = [0usize; 16];
            for q in qs {
                counts[q.chain] += 1;
            }
            (0..16).max_by_key(|&i| counts[i]).unwrap()
        };
        // Rank 0 dominates each period; the period offset is pool/4 = 4.
        let first = hot(&w.queries()[..100]);
        let second = hot(&w.queries()[100..]);
        assert_eq!(first, 0, "rank 0 maps to base 0 before any rotation");
        assert_eq!(second, 4, "one rotation shifts the hot base by pool/4");
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let gen = ZipfWorkload::new(stats_3d()).pool(10).exponent(0.0).refine_prob(0.0);
        let w = gen.generate(2_000, 9);
        for rank in 0..10 {
            let n = w.queries().iter().filter(|q| q.chain == rank).count();
            assert!((120..=280).contains(&n), "rank {rank} drawn {n} times under uniform weights");
        }
    }

    #[test]
    fn initial_bounds_within_three_sigma_of_mean() {
        let stats = stats_3d();
        let w = IndependentWorkload::new(stats.clone()).generate(100, 2);
        let mut brackets_mean = 0usize;
        for q in w.queries() {
            for (i, s) in stats.iter().enumerate() {
                assert!(q.constraints.lo()[i] <= q.constraints.hi()[i]);
                assert!(q.constraints.lo()[i] >= s.mean - 3.0 * s.std);
                assert!(q.constraints.hi()[i] <= s.mean + 3.0 * s.std);
                if q.constraints.lo()[i] <= s.mean && s.mean <= q.constraints.hi()[i] {
                    brackets_mean += 1;
                }
            }
        }
        // Both bounds are independent draws, so roughly half the boxes
        // straddle the mean — not all of them.
        assert!(brackets_mean > 50 && brackets_mean < 290, "{brackets_mean}");
    }
}
