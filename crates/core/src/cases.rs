//! Query planning: the specialized incremental-case solutions of
//! Section 4.2 (Theorems 2–5) unified with the general MPR.
//!
//! Each theorem's fetch set is exactly what
//! [`crate::mpr::missing_points_region`]
//! computes for that overlap class — the geometry degenerates to the
//! paper's special cases automatically:
//!
//! * **Case (a)** (Theorem 2): the only unknown space is `ΔC`, and no
//!   cached dominance region can reach below the old lower bound, so the
//!   MPR is `ΔC` unpruned.
//! * **Case (b)** (Theorem 3): `R_C′ ⊂ R_C` leaves no unknown space, the
//!   removed points' dominance regions miss `R_C′`, and the result is just
//!   the filtered cached skyline — no fetch, no skyline recomputation.
//! * **Case (c)** (Theorem 4): `ΔC` minus the retained dominance regions.
//! * **Case (d)** (Theorem 5): no unknown space, but the removed points'
//!   old dominance regions inside `R_C′` resurface, minus retained
//!   dominance regions.
//!
//! The planner's fast paths: exact hits; a plan that fetches nothing is
//! its answer. Every class but the exact hit goes through the MPR
//! machinery, so Case (b) is just such a plan.

use skycache_geom::{Constraints, PointBlock, Regions};

use crate::mpr::{missing_points_region, MprMode};
use crate::stability::{classify, Overlap};

/// What the engine must do to answer `C′` from the cache: the one plan
/// type, built by the exact-hit fast path below or by
/// [`missing_points_region`].
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// Classified relationship between the cached item's constraints and
    /// the queried ones.
    pub overlap: Overlap,
    /// Pairwise-disjoint range queries to fetch from storage.
    pub regions: Regions,
    /// Cached skyline points that remain candidates under `C′` (the merge
    /// input of Theorem 6), in cache order — a columnar block shared with
    /// the merge kernels, so planning copies coordinates instead of
    /// cloning one `Point` per retained row.
    pub retained: PointBlock,
    /// Whether a skyline recomputation over `retained ∪ fetched` is
    /// required: false exactly when `regions` is empty — an exact hit, or
    /// any plan that fetches nothing (Case (b), per Theorem 3), answers
    /// with `retained` as it is.
    pub needs_skyline: bool,
    /// Cached skyline points invalidated by `C′`.
    pub removed_points: usize,
    /// Retained points actually used for dominance pruning.
    pub prune_points_used: usize,
    /// Disjoint pieces contributed by the invalidated (unstable) region.
    pub invalidated_pieces: usize,
}

/// Builds the execution plan for answering `new` from the cached result
/// `(old, cached_skyline)`: the exact-hit fast path, else the
/// (approximate) MPR ([`missing_points_region`]).
pub fn plan(
    old: &Constraints,
    cached_skyline: &PointBlock,
    new: &Constraints,
    mode: MprMode,
) -> QueryPlan {
    crate::shared::assert_guards_held(0);
    let overlap = classify(old, new);
    if overlap != Overlap::Exact {
        return missing_points_region(old, cached_skyline, new, mode);
    }
    QueryPlan {
        overlap,
        regions: Regions::default(),
        retained: cached_skyline.clone(),
        needs_skyline: false,
        removed_points: 0,
        prune_points_used: 0,
        invalidated_pieces: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycache_geom::rect::contains;
    use skycache_geom::Point;

    fn c(pairs: &[(f64, f64)]) -> Constraints {
        Constraints::from_pairs(pairs).unwrap()
    }

    fn p(coords: &[f64]) -> Point {
        Point::from(coords.to_vec())
    }

    fn block(points: &[Point]) -> PointBlock {
        PointBlock::from_points(points).unwrap()
    }

    #[test]
    fn exact_plan_is_free() {
        let cc = c(&[(0.0, 1.0), (0.0, 1.0)]);
        let sky = vec![p(&[0.1, 0.9]), p(&[0.5, 0.2])];
        let plan = plan(&cc, &block(&sky), &cc.clone(), MprMode::Exact);
        assert_eq!(plan.overlap, Overlap::Exact);
        assert!(plan.regions.is_empty());
        assert!(!plan.needs_skyline);
        assert_eq!(plan.retained.to_points(), sky);
    }

    #[test]
    fn case_b_plan_filters_without_fetch() {
        let old = c(&[(0.0, 1.0), (0.0, 1.0)]);
        let new = c(&[(0.0, 1.0), (0.0, 0.5)]);
        let sky = vec![p(&[0.1, 0.9]), p(&[0.5, 0.2])];
        let plan = plan(&old, &block(&sky), &new, MprMode::Exact);
        assert_eq!(plan.overlap, Overlap::CaseB { dim: 1 });
        assert!(plan.regions.is_empty());
        assert!(!plan.needs_skyline);
        assert_eq!(plan.retained.to_points(), vec![p(&[0.5, 0.2])]);
        assert_eq!(plan.removed_points, 1);
    }

    /// A stable hit the MPR prunes to nothing is its own answer too: a
    /// Case (c) widening whose whole new slab a retained row dominates.
    #[test]
    fn fully_pruned_plan_needs_no_skyline() {
        let old = c(&[(0.0, 1.0), (0.0, 1.0)]);
        let new = c(&[(0.0, 2.0), (0.0, 1.0)]);
        let sky = vec![p(&[0.0, 0.0])];
        let plan = plan(&old, &block(&sky), &new, MprMode::Exact);
        assert_eq!(plan.overlap, Overlap::CaseC { dim: 0 });
        assert!(plan.regions.is_empty());
        assert!(!plan.needs_skyline);
        assert_eq!(plan.retained.to_points(), sky);
    }

    #[test]
    fn case_a_plan_fetches_delta() {
        let old = c(&[(0.5, 1.0), (0.0, 1.0)]);
        let new = c(&[(0.0, 1.0), (0.0, 1.0)]);
        let sky = vec![p(&[0.6, 0.2])];
        let plan = plan(&old, &block(&sky), &new, MprMode::Exact);
        assert_eq!(plan.overlap, Overlap::CaseA { dim: 0 });
        assert!(plan.needs_skyline);
        assert_eq!(plan.regions.len(), 1);
        // Theorem 2: no pruning of ΔC is possible.
        assert!(contains(&plan.regions[0], &[0.2, 0.9]));
    }

    #[test]
    fn unstable_plan_reports_invalidation() {
        let old = c(&[(0.0, 2.0), (0.0, 2.0)]);
        let new = c(&[(1.0, 2.0), (0.0, 2.0)]);
        let sky = vec![p(&[0.5, 0.5])];
        let plan = plan(&old, &block(&sky), &new, MprMode::Exact);
        assert_eq!(plan.overlap, Overlap::CaseD { dim: 0 });
        assert!(plan.needs_skyline);
        assert_eq!(plan.removed_points, 1);
        assert!(plan.invalidated_pieces > 0);
        assert!(!plan.regions.is_empty());
    }
}
