//! Property-based tests for the geometric kernel.
//!
//! The MPR computation is only correct if the underlying region algebra is:
//! carving must tile (cover exactly, without overlap), intersection must
//! be commutative and shrinking, and dominance must be a strict partial
//! order. These invariants are checked on random geometry here — for the
//! region algebra on half-open regions and signed-zero endpoints too.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test code: a failed expectation fails the test"
)]

use proptest::prelude::*;
use skycache_geom::dominance::{dominated_by_any_rows, dominates};
use skycache_geom::rect::{contains, volume};
use skycache_geom::subtract::{carve, disjoint_union, pairwise_disjoint};
use skycache_geom::{Aabb, Interval, Point, PointBlock, Regions};

const DIMS: usize = 3;

fn coord() -> impl Strategy<Value = f64> {
    // Coarse grid so that boundary coincidences (the hard cases) actually
    // occur, with both zeros: `-0.0` and `0.0` are one number to every
    // comparison the algebra makes.
    (-7..=16i8).prop_map(|v| if v < -4 { -0.0 } else { f64::from(v) / 4.0 })
}

/// A region with each face independently open or closed.
fn region() -> impl Strategy<Value = Vec<Interval>> {
    let side = (coord(), coord(), any::<bool>(), any::<bool>());
    prop::collection::vec(side, DIMS).prop_map(|sides| {
        sides
            .into_iter()
            .map(|(a, b, lo_open, hi_open)| Interval::new(a.min(b), a.max(b), lo_open, hi_open))
            .collect()
    })
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
    /// s ≺ t is irreflexive and asymmetric, and equal points do not
    /// dominate each other.
    #[test]
    fn dominance_is_strict_partial_order(s in point(), t in point()) {
        prop_assert!(!dominates(&s, &s));
        if dominates(&s, &t) {
            prop_assert!(!dominates(&t, &s));
        }
        if s == t {
            prop_assert!(!dominates(&s, &t));
        }
    }

    /// Dominance is transitive on random triples.
    #[test]
    fn dominance_is_transitive(a in point(), b in point(), c in point()) {
        if dominates(&a, &b) && dominates(&b, &c) {
            prop_assert!(dominates(&a, &c));
        }
    }

    /// Carving tiles: every probe point of r is either in d or in exactly
    /// one output piece, and pieces are pairwise disjoint. Each probe
    /// coordinate is a face of r or d, or a grid value.
    #[test]
    fn carve_tiles(
        r in region(),
        d in aabb(),
        picks in prop::collection::vec((0..5u8, coord()), DIMS),
    ) {
        let mut pieces = Regions::default();
        carve(&r, d.lo(), d.hi(), &mut pieces);
        prop_assert!(pairwise_disjoint(&pieces));
        let probe: Vec<f64> = picks
            .iter()
            .enumerate()
            .map(|(i, &(pick, v))| [r[i].lo(), r[i].hi(), d.lo()[i], d.hi()[i], v][pick as usize])
            .collect();
        let covered = pieces.iter().filter(|p| contains(p, &probe)).count();
        if contains(&r, &probe) {
            prop_assert_eq!(covered, usize::from(!d.contains_coords(&probe)));
        } else {
            // No piece may leak outside r.
            prop_assert_eq!(covered, 0);
        }
    }

    /// Carving preserves volume: |r \ d| = |r| - |r ∩ d|.
    #[test]
    fn carve_preserves_volume(r in region(), d in aabb()) {
        let mut pieces = Regions::default();
        carve(&r, d.lo(), d.hi(), &mut pieces);
        let got: f64 = pieces.iter().map(volume).sum();
        let inside: Vec<Interval> = r
            .iter()
            .enumerate()
            .map(|(i, iv)| iv.intersect(&Interval::closed(d.lo()[i], d.hi()[i])))
            .collect();
        let want = volume(&r) - volume(&inside);
        prop_assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
    }

    /// Disjoint union covers each probe point exactly once iff it is in
    /// some input box.
    #[test]
    fn disjoint_union_covers_once(boxes in prop::collection::vec(aabb(), 1..5), probe in point()) {
        let pieces = disjoint_union(&boxes);
        prop_assert!(pairwise_disjoint(&pieces));
        let in_union = boxes.iter().any(|b| b.contains_point(&probe));
        let covered = pieces.iter().filter(|p| contains(p, probe.coords())).count();
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

    /// The rows-based any-dominator scan agrees with a naive scan.
    #[test]
    fn dominated_by_any_matches_scan(t in point(), cands in prop::collection::vec(point(), 0..8)) {
        let naive = cands.iter().any(|s| dominates(s, &t));
        let mut block = PointBlock::new(DIMS).expect("nonzero dims");
        for s in &cands {
            block.push_row(s.coords());
        }
        prop_assert_eq!(dominated_by_any_rows(t.coords(), &block), naive);
    }
}
