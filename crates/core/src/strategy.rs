//! Cache search strategies (paper Section 6.1).
//!
//! When a query's region overlaps several cached items' MBRs, a strategy
//! picks the item to answer from. The paper compares seven; all are
//! implemented here and benchmarked in `skycache-bench` (Figure 11).

use rand::Rng;

use skycache_geom::float::exact_eq;
use skycache_geom::{Aabb, Constraints};

use crate::cache::CacheItem;
use crate::stability::{classify, is_stable, Overlap};

/// A cache search strategy.
#[derive(Clone, Debug, PartialEq)]
pub enum SearchStrategy {
    /// Uniformly random choice among the overlapping items.
    Random,
    /// Maximum constraint-region overlap volume with the query.
    MaxOverlap,
    /// Like `MaxOverlap`, but stable items (Theorem 1) are always
    /// preferred over unstable ones, regardless of overlap ("SP" =
    /// stability preference).
    MaxOverlapSP,
    /// Prefers simple single-bound cases in the paper's fixed order —
    /// Case 2, Case 3, Case 1, general stable, Case 4, general unstable —
    /// with ties broken by `MaxOverlap`.
    Prioritized1D,
    /// Scores the four case types independently (`weights[0..4]` penalize
    /// case 1–4 changes respectively) and penalizes each changed bound by
    /// its case weight; minimal total penalty wins, ties broken by
    /// `MaxOverlap`. The paper's *Std* variant is `(10, 0, 5, 20)`, the
    /// deliberately bad one `(10, 50, 30, 0)`.
    PrioritizedND {
        /// Penalties for case-1..case-4 bound changes.
        weights: [f64; 4],
    },
    /// Picks the item whose lower constraint corner is closest to the
    /// query's lower corner.
    OptimumDistance,
}

impl SearchStrategy {
    /// The paper's `PrioritizednD (Std)` weights.
    pub fn prioritized_nd_std() -> Self {
        SearchStrategy::PrioritizedND { weights: [10.0, 0.0, 5.0, 20.0] }
    }

    /// The paper's `PrioritizednD (Bad)` weights, included to show that
    /// the case scoring matters.
    pub fn prioritized_nd_bad() -> Self {
        SearchStrategy::PrioritizedND { weights: [10.0, 50.0, 30.0, 0.0] }
    }

    /// Label used in benchmark output.
    pub fn label(&self) -> String {
        match self {
            SearchStrategy::Random => "Random".into(),
            SearchStrategy::MaxOverlap => "MaxOverlap".into(),
            SearchStrategy::MaxOverlapSP => "MaxOverlapSP".into(),
            SearchStrategy::Prioritized1D => "Prioritized1D".into(),
            SearchStrategy::PrioritizedND { weights } => {
                let is = |w: [f64; 4]| weights.iter().zip(w).all(|(&a, b)| exact_eq(a, b));
                if is([10.0, 0.0, 5.0, 20.0]) {
                    "PrioritizednD(Std)".into()
                } else if is([10.0, 50.0, 30.0, 0.0]) {
                    "PrioritizednD(Bad)".into()
                } else {
                    format!(
                        "PrioritizednD({},{},{},{})",
                        weights[0], weights[1], weights[2], weights[3]
                    )
                }
            }
            SearchStrategy::OptimumDistance => "OptimumDistance".into(),
        }
    }

    /// Chooses among the `n` candidates `get(0..n)` (all overlapping the
    /// query per the cache lookup, in any order). Returns a candidate
    /// index, or `None` when `n` is 0. The accessor lets the engine
    /// resolve candidate ids lazily through the cache without building a
    /// per-query `Vec<&CacheItem>`.
    ///
    /// Each candidate is scored once, with its strategy's key (a pair of
    /// `f64`, larger better); the largest wins, and a tie goes to the
    /// candidate first in the *cover order*: larger overlap between its
    /// index box ([`CacheItem::index_box`]) and the query region, then
    /// lower id. `Random` draws a rank in that same order.
    ///
    /// `data_bounds` is the box every score is clamped to, so overlap
    /// volumes and corner distances stay finite on unbounded constraint
    /// dimensions. It should be the live rows' box of the table the query
    /// is answered over, as of the query: a session reads it from the
    /// table's indexes ([`skycache_storage::Table::live_bounds`]) for
    /// every choice among two or more candidates. Fewer are not scored,
    /// and the box is not read.
    pub fn select_indexed<'a, R: Rng>(
        &self,
        n: usize,
        get: impl Fn(usize) -> &'a CacheItem,
        new: &Constraints,
        data_bounds: &Aabb,
        rng: &mut R,
    ) -> Option<usize> {
        if n < 2 {
            return (n == 1).then_some(0);
        }
        // `Less` when candidate `i` comes before candidate `j`. total_cmp:
        // the overlap of partially unbounded boxes may be inf or NaN.
        let cover = |i: usize, j: usize| {
            let (a, b) = (get(i), get(j));
            let area = |item: &CacheItem| item.index_box().overlap_area(new.aabb());
            area(b).total_cmp(&area(a)).then(a.id.cmp(&b.id))
        };
        if *self == SearchStrategy::Random {
            let draw = rng.gen_range(0..n);
            // Figure-only: one small list per lookup.
            let mut ranked: Vec<usize> = (0..n).collect();
            return Some(*ranked.select_nth_unstable_by(draw, |&i, &j| cover(i, j)).1);
        }
        let key = |i: usize| self.key(get(i), new, data_bounds);
        let (mut best, mut best_key) = (0, key(0));
        for i in 1..n {
            let k = key(i);
            let order = k.0.total_cmp(&best_key.0).then(k.1.total_cmp(&best_key.1));
            if order.then_with(|| cover(best, i)).is_gt() {
                (best, best_key) = (i, k);
            }
        }
        Some(best)
    }

    /// A candidate's score, larger is better, pairs compared
    /// lexicographically by `total_cmp` (so no panic path even if a score
    /// degenerates to NaN). A cost is negated: under `total_cmp` that
    /// reverses its order exactly, signed zeros and NaN included.
    fn key(&self, item: &CacheItem, new: &Constraints, bounds: &Aabb) -> (f64, f64) {
        let old = &item.constraints;
        let overlap = || clamped_overlap(item, new, bounds);
        match self {
            // Never scored: every candidate ties, and the draw ranks them.
            SearchStrategy::Random => (0.0, 0.0),
            SearchStrategy::MaxOverlap => (overlap(), 0.0),
            // Stability dominates; overlap breaks ties.
            SearchStrategy::MaxOverlapSP => (f64::from(u8::from(is_stable(old, new))), overlap()),
            SearchStrategy::Prioritized1D => (-f64::from(case_rank(classify(old, new))), overlap()),
            SearchStrategy::PrioritizedND { weights } => {
                (-nd_penalty(old, new, weights), overlap())
            }
            SearchStrategy::OptimumDistance => (-corner_distance(item, new, bounds), 0.0),
        }
    }
}

/// `c` clamped to `bounds`, with an empty side collapsed onto its lower
/// end: the reference the allocation-free scores below are tested
/// against.
#[cfg(test)]
fn clamp_box(c: &Constraints, bounds: &Aabb) -> Aabb {
    let lo: Vec<f64> = c.lo().iter().zip(bounds.lo()).map(|(v, b)| v.max(*b)).collect();
    let hi: Vec<f64> =
        c.hi().iter().zip(bounds.hi()).zip(&lo).map(|((v, b), l)| v.min(*b).max(*l)).collect();
    Aabb::new_unchecked(lo, hi)
}

/// Dimension `d` of `c` clamped to `bounds`: `(lo, hi)` with
/// `lo = max(c.lo, bounds.lo)` and `hi = max(min(c.hi, bounds.hi), lo)`.
#[inline]
fn clamped_side(c: &Constraints, bounds: &Aabb, d: usize) -> (f64, f64) {
    let lo = c.lo()[d].max(bounds.lo()[d]);
    (lo, c.hi()[d].min(bounds.hi()[d]).max(lo))
}

/// Overlap volume of the item's and the query's constraint boxes, both
/// clamped to `bounds` — [`Aabb::overlap_area`] of the two clamped boxes
/// bit for bit (same `min` / `max`, same left-to-right product), without
/// building either: this runs once per candidate of every lookup.
fn clamped_overlap(item: &CacheItem, new: &Constraints, bounds: &Aabb) -> f64 {
    let mut volume = 1.0;
    for d in 0..new.dims() {
        let (al, ah) = clamped_side(&item.constraints, bounds, d);
        let (bl, bh) = clamped_side(new, bounds, d);
        if !(al <= bh && bl <= ah) {
            return 0.0;
        }
        volume *= ah.min(bh) - al.max(bl);
    }
    volume
}

/// Squared distance between the lower corners of the item's and the
/// query's constraint boxes, both clamped to `bounds`.
fn corner_distance(item: &CacheItem, new: &Constraints, bounds: &Aabb) -> f64 {
    (0..new.dims())
        .map(|d| {
            let (x, _) = clamped_side(&item.constraints, bounds, d);
            let (y, _) = clamped_side(new, bounds, d);
            (x - y) * (x - y)
        })
        .sum()
}

/// Rank of a case for `Prioritized1D`: lower is better. Exact hits beat
/// everything; disjoint items are useless.
fn case_rank(overlap: Overlap) -> u8 {
    match overlap {
        Overlap::Exact => 0,
        Overlap::CaseB { .. } => 1,
        Overlap::CaseC { .. } => 2,
        Overlap::CaseA { .. } => 3,
        Overlap::GeneralStable => 4,
        Overlap::CaseD { .. } => 5,
        Overlap::GeneralUnstable => 6,
        Overlap::Disjoint => 7,
    }
}

/// `PrioritizednD` penalty: each changed bound is scored by the case type
/// of that change (lower decrease = case 1, upper decrease = case 2,
/// upper increase = case 3, lower increase = case 4).
fn nd_penalty(old: &Constraints, new: &Constraints, weights: &[f64; 4]) -> f64 {
    let mut penalty = 0.0;
    for i in 0..old.dims() {
        if new.lo()[i] < old.lo()[i] {
            penalty += weights[0];
        } else if new.lo()[i] > old.lo()[i] {
            penalty += weights[3];
        }
        if new.hi()[i] < old.hi()[i] {
            penalty += weights[1];
        } else if new.hi()[i] > old.hi()[i] {
            penalty += weights[2];
        }
    }
    penalty
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use skycache_geom::Point;

    fn bounds() -> Aabb {
        Aabb::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap()
    }

    fn item(id: u64, pairs: &[(f64, f64)]) -> CacheItem {
        let constraints = Constraints::from_pairs(pairs).unwrap();
        let skyline = vec![Point::from(vec![
            (pairs[0].0 + pairs[0].1) / 2.0,
            (pairs[1].0 + pairs[1].1) / 2.0,
        ])];
        let mbr = Aabb::bounding(&skyline);
        let skyline = skycache_geom::PointBlock::from_points(&skyline).unwrap();
        CacheItem { id, constraints, skyline, mbr, text: Default::default() }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn select(
        s: &SearchStrategy,
        candidates: &[&CacheItem],
        new: &Constraints,
        rng: &mut StdRng,
    ) -> Option<usize> {
        s.select_indexed(candidates.len(), |i| candidates[i], new, &bounds(), rng)
    }

    /// The allocation-free scores equal their definitions over
    /// [`clamp_box`] bit for bit: on boxes inside, across and outside the
    /// data bounds, touching ones, and partially unbounded ones.
    #[test]
    fn scores_match_clamp_box_reference() {
        let mut rng = rng();
        // Quarter steps make touching and coinciding faces common; about
        // one bound in six is unbounded.
        let side = |rng: &mut StdRng| {
            let a = f64::from(rng.gen_range(-4..=44i32)) / 4.0;
            let b = a + f64::from(rng.gen_range(0..=24i32)) / 4.0 * rng.gen_range(0.0..1.0f64);
            (
                if rng.gen_range(0..6) == 0 { f64::NEG_INFINITY } else { a },
                if rng.gen_range(0..6) == 0 { f64::INFINITY } else { b },
            )
        };
        let (mut disjoint, mut overlapping) = (0, 0);
        let mut a = item(0, &[(0.0, 1.0), (0.0, 1.0)]);
        for _ in 0..2_000 {
            a.constraints = Constraints::from_pairs(&[side(&mut rng), side(&mut rng)]).unwrap();
            let new = Constraints::from_pairs(&[side(&mut rng), side(&mut rng)]).unwrap();
            let (ca, cn) = (clamp_box(&a.constraints, &bounds()), clamp_box(&new, &bounds()));
            let want = ca.overlap_area(&cn);
            assert_eq!(clamped_overlap(&a, &new, &bounds()).to_bits(), want.to_bits());
            let want_dist: f64 = ca.lo().iter().zip(cn.lo()).map(|(x, y)| (x - y) * (x - y)).sum();
            assert_eq!(corner_distance(&a, &new, &bounds()).to_bits(), want_dist.to_bits());
            if ca.intersects(&cn) {
                overlapping += 1;
            } else {
                disjoint += 1;
            }
        }
        assert!(disjoint > 100 && overlapping > 100, "{disjoint} / {overlapping}");
    }

    #[test]
    fn empty_candidates_yield_none() {
        let new = Constraints::from_pairs(&[(0.0, 1.0), (0.0, 1.0)]).unwrap();
        assert_eq!(select(&SearchStrategy::Random, &[], &new, &mut rng()), None);
    }

    #[test]
    fn max_overlap_picks_biggest_intersection() {
        let a = item(0, &[(0.0, 2.0), (0.0, 2.0)]);
        let b = item(1, &[(0.0, 5.0), (0.0, 5.0)]);
        let new = Constraints::from_pairs(&[(0.0, 4.0), (0.0, 4.0)]).unwrap();
        let got = select(&SearchStrategy::MaxOverlap, &[&a, &b], &new, &mut rng()).unwrap();
        assert_eq!(got, 1);
    }

    #[test]
    fn max_overlap_sp_prefers_stability_over_overlap() {
        // `a` overlaps more but is unstable (its lower bound is below the
        // query's: raising the lower bound from a to new is a case-4-ish
        // change). `b` is stable with less overlap.
        let a = item(0, &[(0.0, 5.0), (0.0, 5.0)]); // lo 0 < new lo 1 → unstable
        let b = item(1, &[(1.0, 3.0), (1.0, 3.0)]); // lo == new lo → stable
        let new = Constraints::from_pairs(&[(1.0, 4.5), (1.0, 4.5)]).unwrap();
        assert!(!is_stable(&a.constraints, &new));
        assert!(is_stable(&b.constraints, &new));
        let got = select(&SearchStrategy::MaxOverlapSP, &[&a, &b], &new, &mut rng()).unwrap();
        assert_eq!(got, 1);
        // Plain MaxOverlap would pick `a`.
        let plain = select(&SearchStrategy::MaxOverlap, &[&a, &b], &new, &mut rng()).unwrap();
        assert_eq!(plain, 0);
    }

    #[test]
    fn prioritized_1d_prefers_case_b() {
        let new = Constraints::from_pairs(&[(1.0, 3.0), (1.0, 3.0)]).unwrap();
        // Case B item: query shrinks its upper bound in dim 0.
        let case_b = item(0, &[(1.0, 4.0), (1.0, 3.0)]);
        // Case A item: query extends its lower bound in dim 0.
        let case_a = item(1, &[(2.0, 3.0), (1.0, 3.0)]);
        let got =
            select(&SearchStrategy::Prioritized1D, &[&case_a, &case_b], &new, &mut rng()).unwrap();
        assert_eq!(got, 1);
    }

    #[test]
    fn prioritized_nd_std_favors_upper_decreases() {
        let new = Constraints::from_pairs(&[(1.0, 3.0), (1.0, 3.0)]).unwrap();
        // Item whose two changed bounds are upper decreases (weight 0).
        let cheap = item(0, &[(1.0, 4.0), (1.0, 4.0)]);
        // Item whose two changed bounds are lower increases (weight 20).
        let pricey = item(1, &[(0.0, 3.0), (0.0, 3.0)]);
        let got =
            select(&SearchStrategy::prioritized_nd_std(), &[&pricey, &cheap], &new, &mut rng())
                .unwrap();
        assert_eq!(got, 1);
        // The Bad weights invert the preference.
        let got_bad =
            select(&SearchStrategy::prioritized_nd_bad(), &[&pricey, &cheap], &new, &mut rng())
                .unwrap();
        assert_eq!(got_bad, 0);
    }

    #[test]
    fn optimum_distance_picks_nearest_corner() {
        let new = Constraints::from_pairs(&[(2.0, 3.0), (2.0, 3.0)]).unwrap();
        let near = item(0, &[(2.1, 5.0), (1.9, 5.0)]);
        let far = item(1, &[(0.0, 5.0), (0.0, 5.0)]);
        let got =
            select(&SearchStrategy::OptimumDistance, &[&far, &near], &new, &mut rng()).unwrap();
        assert_eq!(got, 1);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let a = item(0, &[(0.0, 2.0), (0.0, 2.0)]);
        let b = item(1, &[(0.0, 5.0), (0.0, 5.0)]);
        let new = Constraints::from_pairs(&[(0.0, 4.0), (0.0, 4.0)]).unwrap();
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..20 {
            let x = select(&SearchStrategy::Random, &[&a, &b], &new, &mut r1);
            let y = select(&SearchStrategy::Random, &[&a, &b], &new, &mut r2);
            assert_eq!(x, y);
            assert!(x.unwrap() < 2);
        }
    }

    /// Candidates whose keys tie under every strategy — one constraint
    /// box, skylines of different extent — go to the best cover, then to
    /// the lowest id, in whatever order they arrive; `Random`'s seeded
    /// draw picks the same item in every order too.
    #[test]
    fn ties_go_to_the_cover_order_in_any_input_order() {
        let cached = Constraints::from_pairs(&[(0.0, 4.0), (0.0, 4.0)]).unwrap();
        let new = Constraints::from_pairs(&[(1.0, 5.0), (1.0, 5.0)]).unwrap();
        // Skyline MBR `[1, corner]²`: it covers `(corner − 1)²` of the query.
        let tied = |id: u64, corner: f64| {
            let skyline = [Point::from(vec![1.0, corner]), Point::from(vec![corner, 1.0])];
            CacheItem {
                id,
                constraints: cached.clone(),
                skyline: skycache_geom::PointBlock::from_points(&skyline).unwrap(),
                mbr: Aabb::bounding(&skyline),
                text: Default::default(),
            }
        };
        let strategies = [
            SearchStrategy::MaxOverlap,
            SearchStrategy::MaxOverlapSP,
            SearchStrategy::Prioritized1D,
            SearchStrategy::prioritized_nd_std(),
            SearchStrategy::prioritized_nd_bad(),
            SearchStrategy::OptimumDistance,
        ];
        let orders = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        // Best cover first; then, with two best covers, the lower id.
        for (trio, winner) in [
            ([tied(5, 3.0), tied(3, 2.0), tied(4, 2.5)], 5),
            ([tied(5, 3.0), tied(3, 2.0), tied(4, 3.0)], 4),
        ] {
            let mut random = Vec::new();
            for order in orders {
                let candidates: Vec<&CacheItem> = order.iter().map(|&i| &trio[i]).collect();
                for s in &strategies {
                    let got = select(s, &candidates, &new, &mut rng()).unwrap();
                    assert_eq!(candidates[got].id, winner, "{} over {order:?}", s.label());
                }
                let drawn = select(&SearchStrategy::Random, &candidates, &new, &mut rng());
                random.push(candidates[drawn.unwrap()].id);
            }
            assert!(random.iter().all(|&id| id == random[0]), "Random drew {random:?}");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(SearchStrategy::prioritized_nd_std().label(), "PrioritizednD(Std)");
        assert_eq!(SearchStrategy::prioritized_nd_bad().label(), "PrioritizednD(Bad)");
        assert_eq!(SearchStrategy::MaxOverlapSP.label(), "MaxOverlapSP");
    }
}
