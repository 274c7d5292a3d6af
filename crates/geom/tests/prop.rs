//! Property-based tests for the geometric kernel.
//!
//! The MPR computation is only correct if the underlying region algebra is:
//! subtraction must tile (cover exactly, without overlap), intersection must
//! be commutative and shrinking, and dominance must be a strict partial
//! order. These invariants are checked on random geometry here.

use proptest::prelude::*;
use skycache_geom::dominance::{
    compare, dominated_by_any, dominated_by_any_rows, dominates, DomRelation,
};
use skycache_geom::subtract::{disjoint_union, pairwise_disjoint, subtract_box};
use skycache_geom::{Aabb, HyperRect, Point, PointBlock};

const DIMS: usize = 3;

fn coord() -> impl Strategy<Value = f64> {
    // Coarse grid so that boundary coincidences (the hard cases) actually occur.
    (0..=20u8).prop_map(|v| f64::from(v) / 4.0)
}

fn point() -> impl Strategy<Value = Point> {
    prop::collection::vec(coord(), DIMS).prop_map(Point::from)
}

fn aabb() -> impl Strategy<Value = Aabb> {
    (prop::collection::vec(coord(), DIMS), prop::collection::vec(coord(), DIMS)).prop_map(
        |(a, b)| {
            let lo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect();
            let hi: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
            Aabb::new(lo, hi).expect("ordered bounds")
        },
    )
}

proptest! {
    /// s ≺ t is irreflexive and asymmetric; `compare` agrees with `dominates`.
    #[test]
    fn dominance_is_strict_partial_order(s in point(), t in point()) {
        prop_assert!(!dominates(&s, &s));
        if dominates(&s, &t) {
            prop_assert!(!dominates(&t, &s));
            prop_assert_eq!(compare(&s, &t), DomRelation::Dominates);
        }
        if s == t {
            prop_assert_eq!(compare(&s, &t), DomRelation::Equal);
        }
    }

    /// Dominance is transitive on random triples.
    #[test]
    fn dominance_is_transitive(a in point(), b in point(), c in point()) {
        if dominates(&a, &b) && dominates(&b, &c) {
            prop_assert!(dominates(&a, &c));
        }
    }

    /// Subtraction tiles: every probe point of r is either in d or in
    /// exactly one output piece, and pieces are pairwise disjoint.
    #[test]
    fn subtract_box_tiles(r in aabb(), d in aabb(), probe in point()) {
        let rect = r.to_rect();
        let pieces = subtract_box(&rect, &d);
        prop_assert!(pairwise_disjoint(&pieces));
        if rect.contains_point(&probe) {
            let covered = pieces.iter().filter(|p| p.contains_point(&probe)).count();
            let expected = usize::from(!d.contains_point(&probe));
            prop_assert_eq!(covered, expected);
        } else {
            // No piece may leak outside r.
            prop_assert!(pieces.iter().all(|p| !p.contains_point(&probe)
                || rect.contains_point(&probe)));
        }
    }

    /// Subtraction preserves volume: |r \ d| = |r| - |r ∩ d|.
    #[test]
    fn subtract_box_preserves_volume(r in aabb(), d in aabb()) {
        let rect = r.to_rect();
        let pieces = subtract_box(&rect, &d);
        let got: f64 = pieces.iter().map(HyperRect::volume).sum();
        let want = rect.volume() - r.intersection(&d).map_or(0.0, |b| b.area());
        prop_assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
    }

    /// Disjoint union covers each probe point exactly once iff it is in
    /// some input box.
    #[test]
    fn disjoint_union_covers_once(boxes in prop::collection::vec(aabb(), 1..5), probe in point()) {
        let pieces = disjoint_union(&boxes);
        prop_assert!(pairwise_disjoint(&pieces));
        let in_union = boxes.iter().any(|b| b.contains_point(&probe));
        let covered = pieces.iter().filter(|p| p.contains_point(&probe)).count();
        prop_assert_eq!(covered, usize::from(in_union));
    }

    /// Box intersection is commutative and contained in both operands.
    #[test]
    fn intersection_properties(a in aabb(), b in aabb()) {
        match (a.intersection(&b), b.intersection(&a)) {
            (Some(x), Some(y)) => {
                prop_assert_eq!(&x, &y);
                prop_assert!(a.contains_box(&x));
                prop_assert!(b.contains_box(&x));
                prop_assert!(x.area() <= a.area() + 1e-12);
            }
            (None, None) => {}
            _ => prop_assert!(false, "intersection not commutative"),
        }
    }

    /// min_dist_sq is zero exactly for contained points and otherwise
    /// bounded by the squared distance to any corner.
    #[test]
    fn min_dist_consistency(b in aabb(), p in point()) {
        let d = b.min_dist_sq(p.coords());
        prop_assert_eq!(d == 0.0, b.contains_point(&p));
        let corner = Point::from(b.lo().to_vec());
        prop_assert!(d <= p.dist_sq(&corner) + 1e-12);
    }

    /// dominated_by_any and its rows-based twin agree with a naive scan.
    #[test]
    fn dominated_by_any_matches_scan(t in point(), cands in prop::collection::vec(point(), 0..8)) {
        let naive = cands.iter().any(|s| dominates(s, &t));
        prop_assert_eq!(dominated_by_any(&t, &cands), naive);
        let mut block = PointBlock::new(DIMS).expect("nonzero dims");
        for s in &cands {
            block.push_row(s.coords());
        }
        prop_assert_eq!(dominated_by_any_rows(t.coords(), &block), naive);
    }
}
