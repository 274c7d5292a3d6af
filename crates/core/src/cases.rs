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

use skycache_geom::{Aabb, Constraints, HyperRect, PointBlock};

use crate::mpr::{missing_points_region_parts, MprMode};
use crate::stability::{classify, Overlap};

/// What the engine must do to answer `C′` from the cache.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// Classified relationship between the primary item's constraints and
    /// the queried ones.
    pub overlap: Overlap,
    /// Disjoint range queries to fetch from storage.
    pub regions: Vec<HyperRect>,
    /// Cached skyline points that remain candidates under `C′`, as a
    /// columnar block shared with the merge kernels.
    pub retained: PointBlock,
    /// Whether a skyline recomputation over `retained ∪ fetched` is
    /// required (false for exact hits and Case (b), per Theorem 3).
    pub needs_skyline: bool,
    /// Cached skyline points invalidated by `C′`.
    pub removed_points: usize,
    /// Retained points used for dominance pruning.
    pub prune_points_used: usize,
    /// Disjoint pieces contributed by the invalidated (unstable) region.
    pub invalidated_pieces: usize,
    /// Cached items whose trusted space the plan rests on: 1 for
    /// single-item answering, ≥ 2 for a composition (DESIGN.md §17.3).
    pub parts_used: usize,
    /// Fraction of the query region's volume (clamped to the data bounds)
    /// those items covered; measured only when `parts_used ≥ 2`.
    pub cover_fraction: f64,
}

/// Builds the execution plan for answering `new` from the cached result
/// `(old, cached_skyline)`.
pub fn plan(
    old: &Constraints,
    cached_skyline: &PointBlock,
    new: &Constraints,
    mode: MprMode,
) -> QueryPlan {
    // One part measures no cover fraction, so the bounds go unread.
    plan_parts([(old, cached_skyline)], new, mode, new.aabb())
}

/// The one planner, for one to N cached items: `parts` with the
/// strategy-selected primary first — one for the paper's single-item
/// answering, more for composition — each of which subtracts its trusted
/// space and pools its rows that satisfy `new` (see
/// [`missing_points_region_parts`] for the geometry and its soundness).
/// The exact-hit and Case (b) fast paths are decided on the primary
/// alone: their results are fully determined by it.
///
/// # Panics
/// Panics if `parts` is empty or dimensionalities differ.
pub(crate) fn plan_parts<'a>(
    parts: impl IntoIterator<Item = (&'a Constraints, &'a PointBlock)>,
    new: &Constraints,
    mode: MprMode,
    data_bounds: &Aabb,
) -> QueryPlan {
    let mut parts = parts.into_iter();
    // skylint: allow(no-panic-paths) — every caller starts from the item it selected.
    let (old, cached_skyline) = parts.next().expect("a plan has a primary part");
    let overlap = classify(old, new);
    let free = |retained: PointBlock, removed_points: usize| QueryPlan {
        overlap,
        regions: Vec::new(),
        retained,
        needs_skyline: false,
        removed_points,
        prune_points_used: 0,
        invalidated_pieces: 0,
        parts_used: 1,
        cover_fraction: 0.0,
    };
    match overlap {
        Overlap::Exact => free(cached_skyline.clone(), 0),
        Overlap::CaseB { .. } => {
            // Theorem 3: Sky(S, C′) = Sky(S, C) ∩ S_C′. Copy surviving
            // rows into a fresh block; no per-point clones.
            let mut retained = PointBlock::new(new.dims())
                // skylint: allow(no-panic-paths) — Constraints reject zero dimensions.
                .expect("constraints are at least one-dimensional");
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
        _ => {
            let parts = std::iter::once((old, cached_skyline)).chain(parts);
            let out = missing_points_region_parts(parts, new, mode, data_bounds);
            QueryPlan {
                overlap,
                regions: out.regions,
                retained: out.retained,
                needs_skyline: true,
                removed_points: out.removed_points,
                prune_points_used: out.prune_points_used,
                invalidated_pieces: out.invalidated_pieces,
                parts_used: out.parts_used,
                cover_fraction: out.cover_fraction,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(plan.regions[0].contains_point(&p(&[0.2, 0.9])));
    }

    #[test]
    fn composed_plan_requires_two_contributors() {
        let bounds = Aabb::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let new = c(&[(0.0, 1.0), (0.0, 1.0)]);
        let a = c(&[(0.0, 0.6), (0.0, 1.0)]);
        let sky_a = block(&[p(&[0.1, 0.1])]);
        let single = plan(&a, &sky_a, &new, MprMode::Exact);
        assert_eq!(single.parts_used, 1);
        // Two parts, but the second is disjoint from the query: still
        // only one contributor, so the plan is the single-item plan.
        let far = c(&[(5.0, 6.0), (5.0, 6.0)]);
        let sky_far = block(&[p(&[5.5, 5.5])]);
        let out = plan_parts([(&a, &sky_a), (&far, &sky_far)], &new, MprMode::Exact, &bounds);
        assert_eq!(out.parts_used, 1);
        assert_eq!(out.cover_fraction, 0.0, "measured only for a composition");
        assert_eq!(out.regions, single.regions);
        assert_eq!(out.retained.to_points(), single.retained.to_points());
    }

    #[test]
    fn composed_cover_eliminates_the_fetch() {
        // Two items jointly covering the query region: nothing remains
        // unknown, and the retained pool merges both skylines (the row
        // both hold is one stored row, pooled once).
        let bounds = Aabb::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let new = c(&[(0.0, 1.0), (0.0, 1.0)]);
        let a = c(&[(0.0, 0.6), (0.0, 1.0)]);
        let b = c(&[(0.4, 1.0), (0.0, 1.0)]);
        let sky_a = block(&[p(&[0.1, 0.3]), p(&[0.5, 0.1])]);
        let sky_b = block(&[p(&[0.5, 0.1]), p(&[0.9, 0.05])]);
        let out = plan_parts([(&a, &sky_a), (&b, &sky_b)], &new, MprMode::Exact, &bounds);
        assert_eq!(out.parts_used, 2);
        assert!(out.regions.is_empty(), "full cover leaves nothing to fetch");
        assert!((out.cover_fraction - 1.0).abs() < 1e-9);
        assert_eq!(out.retained.len(), 3);
        assert!(out.needs_skyline);
        // A third part is reached with nothing left unknown: not used.
        let all = [(&a, &sky_a), (&b, &sky_b), (&new, &sky_a)];
        let out3 = plan_parts(all, &new, MprMode::Exact, &bounds);
        assert_eq!((out3.parts_used, out3.retained.len()), (2, 3));
    }

    #[test]
    fn pooling_keeps_every_copy_of_a_row() {
        // Stored duplicates are all in every skyline that holds the row:
        // the pool keeps as many copies as the part holding the most, so
        // pruning with the row (its closed dominance box un-fetches every
        // stored copy) loses none of them.
        let bounds = Aabb::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let new = c(&[(0.0, 1.0), (0.0, 0.9)]);
        let a = c(&[(0.0, 0.6), (0.0, 1.0)]);
        let b = c(&[(0.4, 1.0), (0.0, 1.0)]);
        let twin = p(&[0.5, 0.1]);
        let twice = block(&[twin.clone(), p(&[0.1, 0.3]), twin.clone()]);
        let once = block(&[p(&[0.9, 0.05])]);
        let copies =
            |plan: &QueryPlan| plan.retained.to_points().iter().filter(|q| **q == twin).count();
        // Both parts hold the row twice: twice, not once and not four times.
        let both = plan_parts([(&a, &twice), (&b, &twice)], &new, MprMode::Exact, &bounds);
        assert_eq!((copies(&both), both.retained.len()), (2, 3));
        // One part holds it twice, the other not at all — in either order.
        let ab = plan_parts([(&a, &twice), (&b, &once)], &new, MprMode::Exact, &bounds);
        let ba = plan_parts([(&b, &once), (&a, &twice)], &new, MprMode::Exact, &bounds);
        assert_eq!((copies(&ab), copies(&ba)), (2, 2));
        assert_eq!((ab.retained.len(), ba.retained.len()), (4, 4));
    }

    #[test]
    fn composed_plan_resurfaces_invalidated_space() {
        // Item a's skyline point violates C′, so the space it dominated
        // inside R_C′ is unknown again even though a's box covers it.
        let bounds = Aabb::new(vec![0.0, 0.0], vec![2.0, 2.0]).unwrap();
        let new = c(&[(1.0, 2.0), (0.0, 2.0)]);
        let a = c(&[(0.0, 2.0), (0.0, 2.0)]);
        let b = c(&[(1.0, 1.5), (0.0, 2.0)]);
        let sky_a = block(&[p(&[0.5, 0.5])]); // removed under C′
        let sky_b = block(&[p(&[1.2, 0.8])]);
        let out = plan_parts([(&a, &sky_a), (&b, &sky_b)], &new, MprMode::Exact, &bounds);
        assert_eq!(out.parts_used, 2);
        assert_eq!(out.removed_points, 1);
        assert!(out.invalidated_pieces > 0);
        assert!(out.cover_fraction < 1.0, "invalidated space counts as uncovered");
        assert!(!out.regions.is_empty(), "resurfaced space must be fetched");
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
