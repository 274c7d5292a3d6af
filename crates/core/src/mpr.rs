//! The Missing Points Region (paper Section 5).
//!
//! Given a cached result `⟨Sky(S,C), C⟩` and new constraints `C′`, the MPR
//! is the minimal (possibly disjoint) region whose points can neither be
//! confirmed nor excluded from `Sky(S, C′)` using the cache alone
//! (Definition 5). It is assembled from three ingredients:
//!
//! 1. **Unknown space** — the part of `R_C′` outside the old region
//!    (`R_C′ \ (R_C ∩ R_C′)`); the cache says nothing about it.
//! 2. **Invalidated space** (unstable case only) — for every cached
//!    skyline point `t` that no longer satisfies `C′`, its old constrained
//!    dominance region `DR(t, C)` clipped to `R_C′`: points `t` used to
//!    dominate may resurface. This is the "inverted logic" preprocessing
//!    step described after Algorithm 1. Geometry makes the stable cases
//!    free: a point removed by a lowered upper bound has
//!    `DR(t, C) ∩ R_C′ = ∅`, so no special-casing is needed.
//! 3. **Dominance pruning** — the dominance regions `DR(u, C′)` of cached
//!    skyline points `u` that satisfy `C′` are subtracted: anything there
//!    is dominated by a point we already hold.
//!
//! The exact MPR subtracts *every* retained skyline point's region, which
//! in higher dimensions shatters the result into enormous numbers of
//! range queries (Figure 9 of the paper, reproduced by this crate's
//! benches). The **approximate MPR** ([`MprMode::Approximate`]) subtracts
//! only the `k` retained points nearest to `C̲′` — a conservative
//! superset that trades extra points read for drastically fewer range
//! queries (Section 5.3).

use skycache_geom::dominance::dominance_box_coords;
use skycache_geom::subtract::{carve, disjoint_union};
use skycache_geom::{Constraints, Interval, PointBlock, Regions};

use crate::cases::QueryPlan;
use crate::stability::classify;

/// Exact or approximate MPR computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MprMode {
    /// Prune with every retained cached skyline point (minimal region,
    /// maximal number of range queries).
    Exact,
    /// Prune with only the `k` retained points nearest to the queried
    /// region's lower corner (the paper's aMPR; `k = #NN`).
    Approximate {
        /// Number of nearest neighbors used for pruning.
        k: usize,
    },
}

impl MprMode {
    /// Label used in benchmark output, e.g. `MPR` or `aMPR(3p)`.
    pub fn label(self) -> String {
        match self {
            MprMode::Exact => "MPR".to_owned(),
            MprMode::Approximate { k } => format!("aMPR({k}p)"),
        }
    }
}

/// Computes the (approximate) Missing Points Region.
///
/// Returns the plan: disjoint range queries plus the retained cached
/// points; per Theorem 6, `Sky(S, C′) = Sky(retained ∪ fetch(regions), C′)`.
/// With no region left the retained rows are that skyline as they are
/// (Theorem 3 is one such plan): they are rows of one cached skyline,
/// and no row of a skyline dominates another.
/// The regions are one flat [`Regions`] list, cut by
/// [`skycache_geom::subtract::carve`] without an allocation per piece. The
/// cached item's *trusted* space — its overlap with `R_C′` minus what its
/// removed skyline rows invalidate — is subtracted from `R_C′`; the
/// retained rows then prune the rest.
///
/// Soundness of subtracting trusted space: any skyline point of `C′`
/// inside `R_C ∩ R_C′` is either in the cached skyline (→ retained) or
/// dominated by a removed row (→ that row's dominance region is unknown
/// again), so no result point is lost.
///
/// Duplicate rows: the closed box `DR(u, C′)` contains `u`'s own
/// coordinates, so pruning with `u` un-fetches *every* stored copy of it.
/// That is exact because every copy of a cached skyline row is in the
/// cached skyline — equal rows satisfy the same constraints and do not
/// dominate one another — and so is retained.
///
/// # Panics
/// Panics if dimensionalities differ.
pub fn missing_points_region(
    old: &Constraints,
    cached_skyline: &PointBlock,
    new: &Constraints,
    mode: MprMode,
) -> QueryPlan {
    assert_eq!(old.dims(), new.dims(), "constraints dimensionality mismatch");
    // Partition the cached skyline under C′: satisfying rows are copied
    // into the columnar block (not one `Point` clone per row), removed
    // rows stay as indices into the cached block.
    #[expect(clippy::expect_used, reason = "Constraints reject zero dimensions")]
    let mut retained =
        PointBlock::new(new.dims()).expect("constraints are at least one-dimensional");
    let mut removed: Vec<usize> = Vec::new();
    for (r, row) in cached_skyline.rows().enumerate() {
        if new.satisfies_coords(row) {
            retained.push_row(row);
        } else {
            removed.push(r);
        }
    }
    // The space the removed rows invalidate inside R_C′ (the unstable
    // preprocessing); it lies inside the overlap box.
    let pieces = invalidated_space(cached_skyline, &removed, old, new, mode);
    let invalidated_pieces = pieces.len();
    // The unknown space: `(R_C′ ∖ overlap)`, then the resurfaced invalid
    // pieces. The two halves are disjoint because every piece lies inside
    // the overlap box (the dominance boxes are clipped to `R_C′`, and there
    // are none without an overlap).
    let region = new.region();
    let mut unknown = Regions::default();
    if let Some(overlap) = old.overlap_region(new) {
        carve(&region, overlap.lo(), overlap.hi(), &mut unknown);
    } else {
        unknown.push(&region);
    }
    unknown.extend(pieces.iter());

    let (regions, prune_points_used) = prune_regions(unknown, &retained, new, mode);
    QueryPlan {
        overlap: classify(old, new),
        needs_skyline: !regions.is_empty(),
        regions,
        retained,
        removed_points: removed.len(),
        prune_points_used,
        invalidated_pieces,
    }
}

/// The space a cached item's removed skyline rows invalidate inside
/// `R_C′`: for each removed row `t`, `DR(t, C) ∩ R_C′` — points `t` used
/// to dominate may resurface.
///
/// The exact MPR decomposes the union of these boxes into disjoint
/// pieces — minimal reads, but "cache invalidation yields a prohibitive
/// amount of range queries with subsequent random access latency for
/// MPR" (paper, Section 7.2). The approximate MPR instead covers the
/// union with its bounding box ([`invalid_cover`]): a conservative
/// superset (completeness is preserved; only extra points may be read)
/// that keeps the number of range queries small, mirroring how aMPR
/// trades reads for fewer queries on the pruning side.
fn invalidated_space(
    cached: &PointBlock,
    removed: &[usize],
    old: &Constraints,
    new: &Constraints,
    mode: MprMode,
) -> Regions {
    match mode {
        MprMode::Exact => {
            let boxes: Vec<_> = removed
                .iter()
                .filter_map(|&t| dominance_box_coords(cached.row(t), old))
                .filter_map(|dr| dr.intersection(new.aabb()))
                .collect();
            disjoint_union(&boxes)
        }
        MprMode::Approximate { .. } => {
            invalid_cover(removed.iter().map(|&t| cached.row(t)), old, new).into_iter().collect()
        }
    }
}

/// Bounding box of `DR(t, C) ∩ R_C′` over the removed rows `t` for which
/// that intersection is non-empty, or `None` when it is empty for all.
///
/// `DR(t, C)` is the closed box `[max(t, C̲), C̄]`, empty when `t` lies
/// above `C̄` somewhere. Where the two regions overlap at all it meets
/// `R_C′` iff `t` lies below `C̄′` as well, and every such intersection
/// has the upper corner `min(C̄, C̄′)` — so only the lower corner, the
/// minimum over the rows of `max(t, C̲, C̲′)`, is folded, straight into
/// the returned region: no box per row is built.
pub fn invalid_cover<'a>(
    removed: impl Iterator<Item = &'a [f64]>,
    old: &Constraints,
    new: &Constraints,
) -> Option<Vec<Interval>> {
    if !old.overlaps(new) {
        return None;
    }
    let mut cover: Option<Vec<Interval>> = None;
    for t in removed {
        if !(0..t.len()).all(|d| t[d] <= old.hi()[d] && t[d] <= new.hi()[d]) {
            continue;
        }
        let lo = |d: usize| t[d].max(old.lo()[d]).max(new.lo()[d]);
        match &mut cover {
            Some(cover) => {
                for (d, side) in cover.iter_mut().enumerate() {
                    *side = Interval::closed(side.lo().min(lo(d)), side.hi());
                }
            }
            None => {
                let hi = |d: usize| old.hi()[d].min(new.hi()[d]);
                // The returned region: the one allocation of the cover.
                cover = Some((0..t.len()).map(|d| Interval::closed(lo(d), hi(d))).collect());
            }
        }
    }
    cover
}

/// Step 3 of the MPR construction: subtract retained dominance regions
/// `DR(u, C′)` from the unknown regions (Algorithm 1 lines 13–26).
/// Pruning points are applied nearest-to-`C̲′` first — the near points
/// prune the most (Section 5.3) — and the aMPR stops after `k` of them.
/// Returns the pruned regions and the number of pruning points actually
/// applied.
fn prune_regions(
    mut regions: Regions,
    retained: &PointBlock,
    new: &Constraints,
    mode: MprMode,
) -> (Regions, usize) {
    if regions.is_empty() {
        return (regions, 0);
    }
    let mut order: Vec<usize> = (0..retained.len()).collect();
    let corner = new.lo();
    let dist = |row: &[f64]| -> f64 {
        row.iter()
            .zip(corner)
            .map(|(a, b)| {
                // Unconstrained dimensions (−∞ corner) contribute nothing.
                if b.is_finite() {
                    (a - b) * (a - b)
                } else {
                    0.0
                }
            })
            .sum()
    };
    order.sort_by(|&a, &b| dist(retained.row(a)).total_cmp(&dist(retained.row(b))).then(a.cmp(&b)));
    let limit = match mode {
        MprMode::Exact => order.len(),
        MprMode::Approximate { k } => k.min(order.len()),
    };

    let (mut prune_points_used, mut next) = (0, Regions::default());
    for &idx in order.iter().take(limit) {
        if regions.is_empty() {
            break;
        }
        let Some(dr) = dominance_box_coords(retained.row(idx), new) else {
            continue;
        };
        next.clear();
        for r in regions.iter() {
            carve(r, dr.lo(), dr.hi(), &mut next);
        }
        std::mem::swap(&mut regions, &mut next);
        prune_points_used += 1;
    }

    // Invariant (debug builds): the emitted range queries are pairwise
    // disjoint — in both modes. Step 1 splits with strict inequalities
    // (Algorithm 1), step 2 lies inside the overlap (disjoint from step
    // 1; `disjoint_union` or a single cover box internally), and step 3
    // only subtracts. Overlapping regions would double-fetch rows and
    // break the paper's minimality accounting (Thm. 7). None is empty:
    // `R_C′` and the invalid boxes are closed and non-empty, and `carve`
    // emits non-empty pieces only.
    debug_assert!(
        skycache_geom::subtract::pairwise_disjoint(&regions),
        "MPR emitted overlapping range queries"
    );
    debug_assert!(
        !regions.iter().any(skycache_geom::rect::is_empty),
        "MPR emitted an empty region"
    );

    (regions, prune_points_used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use skycache_geom::rect::contains;
    use skycache_geom::subtract::pairwise_disjoint;
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

    fn covers(regions: &Regions, point: &Point) -> usize {
        regions.iter().filter(|r| contains(r, point.coords())).count()
    }

    #[test]
    fn exact_match_yields_empty_mpr() {
        let cc = c(&[(0.0, 1.0), (0.0, 1.0)]);
        let sky = vec![p(&[0.2, 0.3])];
        let out = missing_points_region(&cc, &block(&sky), &cc.clone(), MprMode::Exact);
        assert!(out.regions.is_empty());
        assert_eq!(out.retained.to_points(), sky);
        assert_eq!(out.removed_points, 0);
    }

    #[test]
    fn disjoint_constraints_fetch_everything() {
        let old = c(&[(0.0, 1.0), (0.0, 1.0)]);
        let new = c(&[(2.0, 3.0), (2.0, 3.0)]);
        let out = missing_points_region(&old, &block(&[p(&[0.5, 0.5])]), &new, MprMode::Exact);
        assert_eq!(out.regions.len(), 1);
        assert_eq!(&out.regions[0], &*new.region());
        assert!(out.retained.is_empty());
        assert_eq!(out.removed_points, 1);
        // The removed point's old dominance region misses R_C′ entirely.
        assert_eq!(out.invalidated_pieces, 0);
    }

    #[test]
    fn case_a_fetches_only_delta_c() {
        // Lower bound of dim 0 decreased: ΔC is the new left slab.
        let old = c(&[(1.0, 2.0), (1.0, 2.0)]);
        let new = c(&[(0.5, 2.0), (1.0, 2.0)]);
        let sky = vec![p(&[1.2, 1.1])];
        let out = missing_points_region(&old, &block(&sky), &new, MprMode::Exact);
        // One slab; cached dominance regions cannot intersect ΔC.
        assert_eq!(out.regions.len(), 1);
        let slab = &out.regions[0];
        assert!(contains(slab, &[0.7, 1.5]));
        assert!(!contains(slab, &[1.0, 1.5])); // boundary goes to overlap
        assert!(!contains(slab, &[1.2, 1.1]));
        assert_eq!(out.retained.to_points(), sky);
    }

    #[test]
    fn case_b_fetches_nothing() {
        let old = c(&[(1.0, 2.0), (1.0, 2.0)]);
        let new = c(&[(1.0, 1.6), (1.0, 2.0)]);
        let sky = vec![p(&[1.2, 1.1]), p(&[1.8, 1.05])];
        let out = missing_points_region(&old, &block(&sky), &new, MprMode::Exact);
        assert!(out.regions.is_empty(), "{:?}", out.regions);
        // The out-of-range skyline point is removed, and its dominance
        // region cannot intersect the shrunk query region.
        assert_eq!(out.retained.to_points(), vec![p(&[1.2, 1.1])]);
        assert_eq!(out.removed_points, 1);
        assert_eq!(out.invalidated_pieces, 0);
    }

    #[test]
    fn case_c_prunes_delta_with_dominance_regions() {
        // Upper bound of dim 0 increased; cached point near the corner
        // shadows part of the new slab.
        let old = c(&[(0.0, 1.0), (0.0, 1.0)]);
        let new = c(&[(0.0, 2.0), (0.0, 1.0)]);
        let sky = vec![p(&[0.5, 0.2])];
        let out = missing_points_region(&old, &block(&sky), &new, MprMode::Exact);
        assert!(pairwise_disjoint(&out.regions));
        // Points in ΔC below y=0.2 must be fetched…
        assert_eq!(covers(&out.regions, &p(&[1.5, 0.1])), 1);
        // …points in ΔC above y=0.2 are dominated by (0.5, 0.2).
        assert_eq!(covers(&out.regions, &p(&[1.5, 0.5])), 0);
        // Overlap region is never fetched.
        assert_eq!(covers(&out.regions, &p(&[0.5, 0.5])), 0);
        assert_eq!(covers(&out.regions, &p(&[0.7, 0.1])), 0);
    }

    #[test]
    fn case_d_fetches_invalidated_region() {
        // Lower bound of dim 0 increased past a cached skyline point:
        // unstable. The removed point's dominance region inside the new
        // constraints must be re-fetched, except where retained points
        // still dominate.
        let old = c(&[(0.0, 2.0), (0.0, 2.0)]);
        let new = c(&[(1.0, 2.0), (0.0, 2.0)]);
        let sky = vec![p(&[0.5, 0.5]), p(&[1.5, 0.1])];
        let out = missing_points_region(&old, &block(&sky), &new, MprMode::Exact);
        assert_eq!(out.removed_points, 1); // (0.5, 0.5) is out
        assert_eq!(out.retained.to_points(), vec![p(&[1.5, 0.1])]);
        assert!(out.invalidated_pieces > 0);
        assert!(pairwise_disjoint(&out.regions));
        // Invalidated: points previously dominated by (0.5,0.5) with x >= 1.
        assert_eq!(covers(&out.regions, &p(&[1.2, 0.8])), 1);
        // Still dominated by the retained (1.5, 0.1):
        assert_eq!(covers(&out.regions, &p(&[1.7, 0.5])), 0);
        // Not in the old dominance region and not newly exposed: y < 0.5
        // and x inside the old region was never invalidated.
        assert_eq!(covers(&out.regions, &p(&[1.2, 0.3])), 0);
    }

    #[test]
    fn unstable_without_removed_points_adds_nothing() {
        let old = c(&[(0.0, 2.0), (0.0, 2.0)]);
        let new = c(&[(1.0, 2.0), (0.0, 2.0)]);
        // The cached skyline point still satisfies C′.
        let sky = vec![p(&[1.5, 0.5])];
        let out = missing_points_region(&old, &block(&sky), &new, MprMode::Exact);
        assert_eq!(out.removed_points, 0);
        assert_eq!(out.invalidated_pieces, 0);
        // Everything in R_C′ is either old-and-valid or dominated.
        assert_eq!(covers(&out.regions, &p(&[1.6, 0.6])), 0);
    }

    #[test]
    fn approximate_mode_is_superset_of_exact() {
        let old = c(&[(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]);
        let new = c(&[(0.0, 1.4), (0.0, 1.2), (0.0, 1.0)]);
        let sky = vec![
            p(&[0.1, 0.8, 0.3]),
            p(&[0.4, 0.4, 0.4]),
            p(&[0.8, 0.1, 0.6]),
            p(&[0.2, 0.6, 0.1]),
        ];
        let exact = missing_points_region(&old, &block(&sky), &new, MprMode::Exact);
        let approx = missing_points_region(&old, &block(&sky), &new, MprMode::Approximate { k: 1 });
        assert!(approx.regions.len() <= exact.regions.len());
        assert_eq!(approx.prune_points_used, 1);
        // Superset: every probe covered by exact is covered by approx.
        let mut x = 0.13_f64;
        for _ in 0..500 {
            x = (x * 97.31).fract();
            let probe = p(&[x * 1.4, (x * 57.17).fract() * 1.2, (x * 31.73).fract()]);
            if covers(&exact.regions, &probe) == 1 {
                assert_eq!(covers(&approx.regions, &probe), 1, "probe {probe:?}");
            }
        }
    }

    #[test]
    fn exact_regions_are_disjoint_in_3d() {
        let old = c(&[(0.2, 0.8), (0.2, 0.8), (0.2, 0.8)]);
        let new = c(&[(0.1, 0.9), (0.2, 0.8), (0.3, 0.9)]);
        let sky = vec![p(&[0.3, 0.3, 0.4]), p(&[0.5, 0.25, 0.5]), p(&[0.25, 0.6, 0.35])];
        let out = missing_points_region(&old, &block(&sky), &new, MprMode::Exact);
        assert!(pairwise_disjoint(&out.regions));
    }

    #[test]
    fn regions_are_pairwise_disjoint_in_every_mode() {
        // Invariant backing the debug_assert in `prune_regions`: whatever the mode and however the
        // constraints moved (widened, narrowed, shifted — stable and
        // unstable cases alike), the emitted range queries never overlap.
        let old = c(&[(0.2, 1.0), (0.1, 0.9), (0.0, 0.8)]);
        let sky = vec![p(&[0.3, 0.2, 0.7]), p(&[0.25, 0.8, 0.1]), p(&[0.9, 0.15, 0.4])];
        let news = [
            c(&[(0.0, 1.2), (0.1, 0.9), (0.0, 0.8)]), // widen dim 0 both ways
            c(&[(0.4, 1.0), (0.1, 0.9), (0.0, 0.8)]), // unstable: lower raised
            c(&[(0.2, 1.0), (0.0, 1.1), (0.2, 1.0)]), // mixed shift
            c(&[(1.5, 2.0), (1.5, 2.0), (1.5, 2.0)]), // disjoint from old
        ];
        for new in &news {
            for mode in [
                MprMode::Exact,
                MprMode::Approximate { k: 0 },
                MprMode::Approximate { k: 1 },
                MprMode::Approximate { k: 8 },
            ] {
                let out = missing_points_region(&old, &block(&sky), new, mode);
                assert!(
                    pairwise_disjoint(&out.regions),
                    "overlapping regions for {new:?} under {mode:?}"
                );
            }
        }
    }

    #[test]
    fn more_dimensions_generate_more_regions() {
        // Figure 4's lesson: each extra dimension multiplies the pieces.
        let mut counts = Vec::new();
        for d in 2..=5usize {
            let old = Constraints::from_pairs(&vec![(0.0, 1.0); d]).unwrap();
            let new = Constraints::from_pairs(
                &(0..d).map(|i| (0.0, if i == 0 { 1.5 } else { 1.0 })).collect::<Vec<_>>(),
            )
            .unwrap();
            let sky: Vec<Point> = (0..6)
                .map(|j| {
                    Point::from(
                        (0..d).map(|i| 0.15 + 0.1 * ((i + j) % 5) as f64).collect::<Vec<_>>(),
                    )
                })
                .collect();
            let out = missing_points_region(&old, &block(&sky), &new, MprMode::Exact);
            counts.push(out.regions.len());
        }
        assert!(
            counts.windows(2).all(|w| w[0] <= w[1]),
            "region counts should not shrink with dimensionality: {counts:?}"
        );
        assert!(counts[3] > counts[0], "{counts:?}");
    }

    #[test]
    fn ampr_k_zero_prunes_nothing() {
        let old = c(&[(0.0, 1.0), (0.0, 1.0)]);
        let new = c(&[(0.0, 1.5), (0.0, 1.0)]);
        let sky = vec![p(&[0.1, 0.1])];
        let out = missing_points_region(&old, &block(&sky), &new, MprMode::Approximate { k: 0 });
        assert_eq!(out.prune_points_used, 0);
        // ΔC is fetched whole.
        assert_eq!(covers(&out.regions, &p(&[1.2, 0.9])), 1);
    }

    /// The aMPR cover as it was composed before [`invalid_cover`]: one
    /// dominance box per removed row, clipped to `R_C′`, then merged.
    fn cover_box_by_box(
        rows: &PointBlock,
        old: &Constraints,
        new: &Constraints,
    ) -> Option<Vec<Interval>> {
        let mut boxes = rows
            .rows()
            .filter_map(|t| dominance_box_coords(t, old))
            .filter_map(|dr| dr.intersection(new.aabb()));
        let mut cover = boxes.next()?;
        for b in boxes {
            cover.merge(&b);
        }
        Some(cover.lo().iter().zip(cover.hi()).map(|(&l, &h)| Interval::closed(l, h)).collect())
    }

    /// Coordinates on a coarse grid (so rows land exactly on constraint
    /// faces) mixed with arbitrary ones.
    fn coord() -> impl Strategy<Value = f64> {
        prop_oneof![(-4..=8i8).prop_map(|v| f64::from(v) / 4.0), -1.0..2.0f64]
    }

    /// Most dimensions the generated cases use; narrower cases truncate.
    const MAX_DIMS: usize = 6;

    /// One `(lo, hi)` pair per dimension; about one bound in six is
    /// unbounded.
    fn sides() -> impl Strategy<Value = Vec<(f64, f64)>> {
        prop::collection::vec(
            (coord(), coord(), 0..6u8, 0..6u8).prop_map(|(a, b, open_lo, open_hi)| {
                (
                    if open_lo == 0 { f64::NEG_INFINITY } else { a.min(b) },
                    if open_hi == 0 { f64::INFINITY } else { a.max(b) },
                )
            }),
            MAX_DIMS,
        )
    }

    proptest! {
        /// `invalid_cover` is the box-by-box composition bit for bit —
        /// same rows skipped, same corner — on random and partially
        /// unbounded constraints, with rows on, inside and outside them.
        #[test]
        fn invalid_cover_matches_box_by_box(
            dims in 1usize..=MAX_DIMS,
            old in sides(),
            new in sides(),
            rows in prop::collection::vec(prop::collection::vec(coord(), MAX_DIMS), 0..12),
        ) {
            let old = Constraints::from_pairs(&old[..dims]).unwrap();
            let new = Constraints::from_pairs(&new[..dims]).unwrap();
            let mut removed = PointBlock::new(dims).unwrap();
            for row in &rows {
                removed.push_row(&row[..dims]);
            }
            let got = invalid_cover(removed.rows(), &old, &new);
            let want = cover_box_by_box(&removed, &old, &new);
            let bits = |r: &Option<Vec<Interval>>| {
                r.as_ref().map(|r| {
                    r.iter()
                        .map(|i| (i.lo().to_bits(), i.hi().to_bits(), i.lo_open(), i.hi_open()))
                        .collect::<Vec<_>>()
                })
            };
            prop_assert_eq!(bits(&got), bits(&want));
            // Approximate planning emits exactly that cover.
            let order: Vec<usize> = (0..removed.len()).collect();
            let pieces =
                invalidated_space(&removed, &order, &old, &new, MprMode::Approximate { k: 1 });
            prop_assert_eq!(pieces, want.into_iter().collect::<Regions>());
        }
    }
}
