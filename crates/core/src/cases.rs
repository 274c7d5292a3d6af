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
//! The planner therefore runs true fast paths only where the theorems
//! license skipping work entirely (exact hits and Case (b)); all other
//! classes share the MPR machinery.

use skycache_geom::{Constraints, PointBlock, Regions};

use crate::mpr::{missing_points_region, MprMode};
use crate::stability::{classify, Overlap};

/// What the engine must do to answer `C′` from the cache: the one plan
/// type, built by the fast paths below or by [`missing_points_region`].
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
    /// required (false for exact hits and Case (b), per Theorem 3).
    pub needs_skyline: bool,
    /// Cached skyline points invalidated by `C′`.
    pub removed_points: usize,
    /// Retained points actually used for dominance pruning.
    pub prune_points_used: usize,
    /// Disjoint pieces contributed by the invalidated (unstable) region.
    pub invalidated_pieces: usize,
}

/// Builds the execution plan for answering `new` from the cached result
/// `(old, cached_skyline)`: the exact-hit and Case (b) fast paths, else
/// the (approximate) MPR ([`missing_points_region`]).
pub fn plan(
    old: &Constraints,
    cached_skyline: &PointBlock,
    new: &Constraints,
    mode: MprMode,
) -> QueryPlan {
    crate::shared::assert_guards_held(0);
    let overlap = classify(old, new);
    let free = |retained: PointBlock, removed_points: usize| QueryPlan {
        overlap,
        regions: Regions::default(),
        retained,
        needs_skyline: false,
        removed_points,
        prune_points_used: 0,
        invalidated_pieces: 0,
    };
    match overlap {
        Overlap::Exact => free(cached_skyline.clone(), 0),
        Overlap::CaseB { .. } => {
            // Theorem 3: Sky(S, C′) = Sky(S, C) ∩ S_C′. Copy surviving
            // rows into a fresh block; no per-point clones.
            #[expect(clippy::expect_used, reason = "Constraints reject zero dimensions")]
            let mut retained =
                PointBlock::new(new.dims()).expect("constraints are at least one-dimensional");
            let mut removed = 0usize;
            for row in cached_skyline.rows() {
                if new.satisfies_coords(row) {
                    retained.push_row(row);
                } else {
                    removed += 1;
                }
            }
            free(retained, removed)
        }
        _ => missing_points_region(old, cached_skyline, new, mode),
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
