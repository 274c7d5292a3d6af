//! Query planning: the specialized incremental-case solutions of
//! Section 4.2 (Theorems 2–5) unified with the general MPR.
//!
//! Each theorem's fetch set is exactly what [`missing_points_region`]
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

use std::collections::BTreeSet;

use skycache_geom::subtract::subtract_box_from_all;
use skycache_geom::{Aabb, Constraints, HyperRect, Point, PointBlock};

use crate::mpr::{invalidated_space, missing_points_region_multi, prune_regions, MprMode};
use crate::stability::{classify, Overlap};

/// What the engine must do to answer `C′` from a cached item.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// Classified relationship between cached and queried constraints.
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
}

/// Builds the execution plan for answering `new` from the cached result
/// `(old, cached_skyline)`.
pub fn plan(
    old: &Constraints,
    cached_skyline: &PointBlock,
    new: &Constraints,
    mode: MprMode,
) -> QueryPlan {
    plan_with_extra(old, cached_skyline, &[], new, mode)
}

/// Multi-item planning (the paper's Section 6.3 extension): additionally
/// prunes and merges with `extra_points` harvested from other overlapping
/// cache items (see [`missing_points_region_multi`] for the soundness
/// argument). The exact-hit and Case (b) fast paths ignore the extras —
/// their results are already fully determined by the primary item.
pub fn plan_with_extra(
    old: &Constraints,
    cached_skyline: &PointBlock,
    extra_points: &[Point],
    new: &Constraints,
    mode: MprMode,
) -> QueryPlan {
    let overlap = classify(old, new);
    match overlap {
        Overlap::Exact => QueryPlan {
            overlap,
            regions: Vec::new(),
            retained: cached_skyline.clone(),
            needs_skyline: false,
            removed_points: 0,
            prune_points_used: 0,
            invalidated_pieces: 0,
        },
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
            QueryPlan {
                overlap,
                regions: Vec::new(),
                retained,
                needs_skyline: false,
                removed_points: removed,
                prune_points_used: 0,
                invalidated_pieces: 0,
            }
        }
        _ => {
            let out = missing_points_region_multi(old, cached_skyline, extra_points, new, mode);
            QueryPlan {
                overlap,
                regions: out.regions,
                retained: out.retained,
                needs_skyline: true,
                removed_points: out.removed_points,
                prune_points_used: out.prune_points_used,
                invalidated_pieces: out.invalidated_pieces,
            }
        }
    }
}

/// A compositional multi-item plan: the [`QueryPlan`] plus how much of
/// the query region the contributing cached items covered.
#[derive(Clone, Debug)]
pub struct ComposedPlan {
    /// The plan — same shape as single-item planning, so the engine's
    /// fetch/merge/skyline pipeline runs unchanged on it.
    pub plan: QueryPlan,
    /// Cached items that actually contributed trusted space (≥ 2; a
    /// composition that degenerates to fewer returns `None` instead).
    pub items_used: usize,
    /// Fraction of the query region's volume (clamped to the data
    /// bounds) covered by the composed items — the
    /// `cache.cover_fraction` metric.
    pub cover_fraction: f64,
}

/// Greedily composes several cached items into one remainder plan for
/// `new` (DESIGN.md §17.3). `parts` must be cover-ordered with the
/// strategy-selected primary first; each item subtracts its *trusted*
/// space — overlap minus the space invalidated by its removed skyline
/// points — from the unknown region, and retained points are pooled
/// (deduplicated by coordinates) for the shared dominance-pruning step.
///
/// Soundness mirrors the single-item MPR per item: for item `i`, any
/// skyline point of `C′` inside `R_Ci ∩ R_C′` is either in `i`'s cached
/// skyline (→ retained) or dominated by a removed point of `i` (→ its
/// dominance region is re-added to the unknown space), so subtracting
/// `trusted_i` never loses a result point, and the final skyline over
/// `retained ∪ fetched` equals the from-scratch recompute bit for bit.
///
/// Returns `None` when fewer than two items contribute — the caller
/// falls back to single-item planning, keeping the pinned single-item
/// geometry (and its metrics) untouched.
///
/// # Panics
/// Panics if dimensionalities differ.
pub fn plan_composed(
    parts: &[(&Constraints, &PointBlock)],
    new: &Constraints,
    mode: MprMode,
    data_bounds: &Aabb,
) -> Option<ComposedPlan> {
    let (primary, _) = parts.first()?;
    if parts.len() < 2 {
        return None;
    }
    let dims = new.dims();
    let mut unknown = vec![new.region()];
    let mut retained = PointBlock::new(dims)
        // skylint: allow(no-panic-paths) — Constraints reject zero dimensions.
        .expect("constraints are at least one-dimensional");
    // BTreeSet for the determinism policy: retained points are pooled
    // across items and must dedup in a platform-stable order.
    let mut seen: BTreeSet<Vec<u64>> = BTreeSet::new();
    let mut removed_points = 0usize;
    let mut invalidated_pieces = 0usize;
    let mut items_used = 0usize;

    for &(old, cached) in parts {
        assert_eq!(old.dims(), dims, "constraints dimensionality mismatch");
        if unknown.is_empty() {
            break; // full cover: later items can only add pruning points
        }
        let Some(overlap) = old.overlap_region(new) else {
            continue; // disjoint item: contributes nothing
        };
        // Partition this item's skyline under C′; pooled retained rows
        // dedup across items so shared points are merged once.
        let mut removed: Vec<usize> = Vec::new();
        for (i, row) in cached.rows().enumerate() {
            if new.satisfies_coords(row) {
                let key: Vec<u64> = row.iter().map(|c| c.to_bits()).collect();
                if seen.insert(key) {
                    retained.push_row(row);
                }
            } else {
                removed.push(i);
            }
        }
        removed_points += removed.len();
        // The space this item invalidates inside R_C′: removed points'
        // old dominance regions (the unstable preprocessing, per item).
        let pieces = invalidated_space(cached, &removed, old, new, mode);
        invalidated_pieces += pieces.len();
        unknown = compose_cover(unknown, &overlap, &pieces);
        items_used += 1;
    }
    if items_used < 2 {
        return None;
    }

    // Cover fraction before dominance pruning: how much of the query
    // region the cache itself accounted for, clamped to the data bounds
    // so partially-unbounded constraint boxes still measure finitely.
    let bounds_rect = data_bounds.to_rect();
    let clamped = |r: &HyperRect| r.intersection(&bounds_rect).map_or(0.0, |i| i.volume());
    let total = clamped(&new.region());
    let missing: f64 = unknown.iter().map(clamped).sum();
    let cover_fraction = if total.is_finite() && total > 0.0 {
        ((total - missing) / total).clamp(0.0, 1.0)
    } else if unknown.is_empty() {
        1.0
    } else {
        0.0
    };

    let (regions, prune_points_used) = prune_regions(unknown, &retained, new, mode);
    Some(ComposedPlan {
        plan: QueryPlan {
            overlap: classify(primary, new),
            regions,
            retained,
            needs_skyline: true,
            removed_points,
            prune_points_used,
            invalidated_pieces,
        },
        items_used,
        cover_fraction,
    })
}

/// One cover-composition step: the new unknown set after item `i`,
/// `(unknown ∖ overlap_i) ∪ (unknown ∩ invalid_i)`. The two parts are
/// disjoint because every invalid piece lies inside the overlap box, and
/// each part is internally disjoint because its inputs are.
fn compose_cover(unknown: Vec<HyperRect>, overlap: &Aabb, pieces: &[HyperRect]) -> Vec<HyperRect> {
    // skylint: allow(hot-path-alloc) — output set construction; bounded by |unknown|·|pieces| and consumed immediately by the planner.
    let mut next: Vec<HyperRect> = Vec::new();
    for u in &unknown {
        for piece in pieces {
            if let Some(resurfaced) = u.intersection(piece) {
                if !resurfaced.is_empty() {
                    // skylint: allow(hot-path-alloc) — appends a rect that survives into the next composition round.
                    next.push(resurfaced);
                }
            }
        }
    }
    // skylint: allow(hot-path-alloc) — appends the uncovered remainder; same output set as above.
    next.extend(subtract_box_from_all(unknown, overlap));
    next
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // One part: no composition.
        assert!(plan_composed(&[(&a, &sky_a)], &new, MprMode::Exact, &bounds).is_none());
        // Two parts, but the second is disjoint from the query: still
        // only one contributor, so the caller falls back to single-item.
        let far = c(&[(5.0, 6.0), (5.0, 6.0)]);
        let sky_far = block(&[p(&[5.5, 5.5])]);
        assert!(plan_composed(&[(&a, &sky_a), (&far, &sky_far)], &new, MprMode::Exact, &bounds)
            .is_none());
    }

    #[test]
    fn composed_cover_eliminates_the_fetch() {
        // Two items jointly covering the query region: nothing remains
        // unknown, and the retained pool merges both skylines (shared
        // points deduplicated).
        let bounds = Aabb::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let new = c(&[(0.0, 1.0), (0.0, 1.0)]);
        let a = c(&[(0.0, 0.6), (0.0, 1.0)]);
        let b = c(&[(0.4, 1.0), (0.0, 1.0)]);
        let sky_a = block(&[p(&[0.1, 0.3]), p(&[0.5, 0.1])]);
        let sky_b = block(&[p(&[0.5, 0.1]), p(&[0.9, 0.05])]);
        let out = plan_composed(&[(&a, &sky_a), (&b, &sky_b)], &new, MprMode::Exact, &bounds)
            .expect("both items contribute");
        assert_eq!(out.items_used, 2);
        assert!(out.plan.regions.is_empty(), "full cover leaves nothing to fetch");
        assert!((out.cover_fraction - 1.0).abs() < 1e-9);
        // 3 distinct retained rows: the shared (0.5, 0.1) merged once.
        assert_eq!(out.plan.retained.len(), 3);
        assert!(out.plan.needs_skyline);
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
        let out = plan_composed(&[(&a, &sky_a), (&b, &sky_b)], &new, MprMode::Exact, &bounds)
            .expect("both items contribute");
        assert_eq!(out.plan.removed_points, 1);
        assert!(out.plan.invalidated_pieces > 0);
        assert!(out.cover_fraction < 1.0, "invalidated space counts as uncovered");
        assert!(!out.plan.regions.is_empty(), "resurfaced space must be fetched");
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
