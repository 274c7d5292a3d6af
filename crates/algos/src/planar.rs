//! Planar (d = 2) skyline by a single monotone sweep.
//!
//! For two dimensions the skyline needs no pairwise dominance testing at
//! all ("Optimal Planar Range Skyline Reporting", Tao et al.): sort the
//! points by `(x, y)` ascending and sweep once, keeping the running
//! minimum of `y`. A point is dominated iff some point with strictly
//! smaller `x` has `y ≤` its own, or a point with equal `x` has strictly
//! smaller `y` — both reduce to comparisons against the sweep state, so
//! the whole computation is one sort plus one linear pass: O(n log n)
//! worst case, O(n) beyond the sort, and O(n) end to end when the input
//! arrives presorted by `x` (as index-ordered range output does).
//!
//! The survivors are then re-emitted in **SFS canonical order**
//! (ascending coordinate sum, equal sums by coordinates, then input
//! order: `canonical_cmp`) so this routine is a drop-in replacement for
//! the block-native SFS filter: callers caching the result plan the same
//! follow-up regions whichever path computed it.
//! [`crate::Sfs`] dispatches here automatically when `dims == 2`; the
//! engine's merge and MPR remainder-merge inherit the fast path through
//! that dispatch.

use skycache_geom::PointBlock;

use crate::inmem::canonical_cmp;
use crate::SkylineScratch;

/// Dimensionality handled by the planar sweep.
pub const PLANAR_DIMS: usize = 2;

/// Whether the planar fast path applies to `dims`-dimensional data.
#[inline]
pub fn planar_applicable(dims: usize) -> bool {
    dims == PLANAR_DIMS
}

/// Computes the d = 2 skyline of the row-major coordinate block `rows`
/// into `out`, in SFS canonical order (`canonical_cmp`). Keep-duplicates
/// semantics: equal points never dominate each other, so every copy of a
/// skyline point survives.
///
/// Returns the number of pairwise dominance tests performed — always 0:
/// the sweep decides each point against scalar sweep state instead of
/// against other points.
pub fn planar_skyline_into(
    rows: &[f64],
    scratch: &mut SkylineScratch,
    out: &mut PointBlock,
) -> u64 {
    debug_assert!(rows.len().is_multiple_of(PLANAR_DIMS));
    debug_assert_eq!(out.dims(), PLANAR_DIMS);
    out.clear();
    let n = rows.len() / PLANAR_DIMS;

    // Sort indices by (x, y) ascending; sort_by is stable, so equal
    // points keep their input order. Keys are normalized with `+ 0.0`
    // (mapping -0.0 to +0.0, a no-op for every other value — inputs are
    // NaN-free by Point construction) so that total_cmp's bit-level
    // -0.0 < +0.0 refinement cannot split one *numeric* x-group into two
    // runs, which would break the sweep's "first group element has
    // minimal y" invariant.
    scratch.order.clear();
    for i in 0..n {
        scratch.order.push((rows[i * PLANAR_DIMS] + 0.0, i as u32));
    }
    scratch.order.sort_by(|a, b| {
        a.0.total_cmp(&b.0).then_with(|| {
            let ya = rows[a.1 as usize * PLANAR_DIMS + 1] + 0.0;
            let yb = rows[b.1 as usize * PLANAR_DIMS + 1] + 0.0;
            ya.total_cmp(&yb)
        })
    });

    // Sweep. `best_strict` is the minimum y among points with x strictly
    // smaller than the current group's x; `group_min_y` the minimum y of
    // the current equal-x group (its first element, since each group is
    // y-sorted). A point survives iff its y equals its group minimum
    // (`y <= group_min_y`, as y >= group_min_y holds by the sort) and
    // that minimum undercuts every strictly-smaller-x point
    // (`y < best_strict`).
    scratch.aux.clear();
    let mut best_strict = f64::INFINITY;
    let mut group_x = f64::NAN;
    let mut group_min_y = f64::INFINITY;
    let mut first = true;
    for &(x, i) in &scratch.order {
        let y = rows[i as usize * PLANAR_DIMS + 1];
        if first || x > group_x {
            best_strict = best_strict.min(group_min_y);
            group_x = x;
            group_min_y = y;
            first = false;
        }
        if y <= group_min_y && y < best_strict {
            // The emit key must fold exactly like the classic filter's
            // `iter().sum()` (which starts from +0.0): `x + y` alone would
            // give -0.0 for all-negative-zero rows where the fold gives
            // +0.0, and total_cmp orders the two bit patterns apart.
            let sum: f64 =
                rows[i as usize * PLANAR_DIMS..(i as usize + 1) * PLANAR_DIMS].iter().sum();
            scratch.aux.push((sum, i));
        }
    }

    // Re-emit survivors in SFS canonical order — the comparator the
    // classic filter sorts by, so the surviving subset comes out in the
    // order that filter emits it.
    scratch.aux.sort_unstable_by(|a, b| canonical_cmp(rows, PLANAR_DIMS, a, b));
    for &(_, i) in &scratch.aux {
        out.push_row(&rows[i as usize * PLANAR_DIMS..(i as usize + 1) * PLANAR_DIMS]);
    }
    0
}

#[cfg(test)]
mod tests {
    use skycache_geom::Point;

    use super::*;
    use crate::testutil::{naive_skyline, sorted};
    use crate::Sfs;

    fn sweep(points: &[Point]) -> Vec<Point> {
        let rows: Vec<f64> = points.iter().flat_map(|p| p.coords().to_vec()).collect();
        let mut scratch = SkylineScratch::new();
        let mut out = PointBlock::new(2).unwrap();
        planar_skyline_into(&rows, &mut scratch, &mut out);
        out.to_points()
    }

    fn pseudo_random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Point::from(vec![next(), next()])).collect()
    }

    #[test]
    fn applicability_is_exactly_two_dims() {
        assert!(!planar_applicable(1));
        assert!(planar_applicable(2));
        assert!(!planar_applicable(3));
    }

    /// The sweep must match the classic SFS filter row for row — same
    /// points, same (canonical) order.
    #[test]
    fn matches_classic_sfs_order_on_random_data() {
        for seed in [3, 17, 99] {
            let pts = pseudo_random_points(300, seed);
            let rows: Vec<f64> = pts.iter().flat_map(|p| p.coords().to_vec()).collect();
            let mut scratch = SkylineScratch::new();
            let mut want = PointBlock::new(2).unwrap();
            Sfs.classic_block_into(&rows, 2, &mut scratch, &mut want);
            assert_eq!(sweep(&pts), want.to_points(), "seed {seed}");
        }
    }

    #[test]
    fn presorted_input_matches_too() {
        let mut pts = pseudo_random_points(200, 7);
        pts.sort_by(|a, b| a[0].total_cmp(&b[0]));
        let want = sorted(naive_skyline(&pts));
        assert_eq!(sorted(sweep(&pts)), want);
    }

    #[test]
    fn duplicates_equal_x_and_chains() {
        // Duplicates of a skyline point all survive.
        let dup = vec![
            Point::from(vec![0.0, 1.0]),
            Point::from(vec![0.0, 1.0]),
            Point::from(vec![1.0, 2.0]),
        ];
        assert_eq!(sweep(&dup).len(), 2);

        // Equal x: only the minimal-y points survive.
        let same_x = vec![
            Point::from(vec![1.0, 3.0]),
            Point::from(vec![1.0, 2.0]),
            Point::from(vec![1.0, 2.0]),
        ];
        assert_eq!(sweep(&same_x), vec![Point::from(vec![1.0, 2.0]); 2]);

        // A dominance chain collapses to its minimum.
        let chain: Vec<Point> =
            (0..50).map(|i| Point::from(vec![f64::from(i), f64::from(i)])).collect();
        assert_eq!(sweep(&chain), vec![Point::from(vec![0.0, 0.0])]);

        // An anti-chain survives whole.
        let anti: Vec<Point> =
            (0..50).map(|i| Point::from(vec![f64::from(i), f64::from(49 - i)])).collect();
        assert_eq!(sweep(&anti).len(), 50);

        // Same-x tie with the strict-x minimum: (2,1) is dominated by
        // (1,1) (strict on x), and (2,0) survives below it.
        let tie = vec![
            Point::from(vec![1.0, 1.0]),
            Point::from(vec![2.0, 1.0]),
            Point::from(vec![2.0, 0.0]),
        ];
        assert_eq!(
            sorted(sweep(&tie)),
            sorted(vec![Point::from(vec![1.0, 1.0]), Point::from(vec![2.0, 0.0])])
        );
    }

    /// -0.0 and +0.0 are one numeric x-group: the sort key normalization
    /// keeps the group contiguous so a later +0.0 row with smaller y is
    /// still seen as the group minimum (regression: total_cmp used to
    /// split the group and leak a dominated point through `best_strict`).
    #[test]
    fn signed_zero_x_is_one_group() {
        let pts = vec![
            Point::from(vec![-0.0, -1.25]),
            Point::from(vec![0.0, -1.75]),
            Point::from(vec![0.75, -1.5]),
        ];
        // (0.0, -1.75) dominates both others (x numerically equal or
        // smaller, y strictly smaller).
        assert_eq!(sweep(&pts), vec![Point::from(vec![0.0, -1.75])]);
        assert_eq!(sorted(sweep(&pts)), sorted(naive_skyline(&pts)));
    }

    #[test]
    fn empty_and_single() {
        assert!(sweep(&[]).is_empty());
        let one = vec![Point::from(vec![1.0, 2.0])];
        assert_eq!(sweep(&one), one);
    }
}
