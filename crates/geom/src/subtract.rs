//! Region algebra: box subtraction and disjoint decomposition.
//!
//! These operations are the computational kernel of the Missing Points
//! Region (Algorithm 1 of the paper). Carving a box `d` out of a region
//! `r` corresponds to one full pass of the algorithm's per-dimension
//! splitting loop for a single pruning point: the region is cut into at
//! most `2·|D|` disjoint pieces lying outside `d`, and the part inside `d`
//! (the "dominated" part) is discarded.

use crate::{Aabb, Interval, Regions};

/// Carves the closed box `[lo, hi]` out of the region `r`, pushing the
/// disjoint remainder pieces onto `out`. Pieces are carved dimension by
/// dimension: for dimension `i` the parts of `r` strictly below `lo[i]`
/// and strictly above `hi[i]` are emitted, in that order, each narrowed
/// to the box in the dimensions before `i`. The pieces plus `r ∩ [lo, hi]`
/// exactly tile `r`.
///
/// Returns whether the box meets `r`; when it does not, `r` itself is
/// pushed unchanged. This is the one box subtraction of the workspace:
/// the (a)MPR and the corner-first fetch step both cut with it.
pub fn carve(r: &[Interval], lo: &[f64], hi: &[f64], out: &mut Regions) -> bool {
    debug_assert_eq!((r.len(), r.len()), (lo.len(), hi.len()));
    let side = |i: usize| Interval::closed(lo[i], hi[i]);
    if !r.iter().enumerate().all(|(i, iv)| iv.intersects(&side(i))) {
        out.push(r);
        return false;
    }
    for (i, iv) in r.iter().enumerate() {
        // Part strictly below lo[i], then part strictly above hi[i].
        for piece in [iv.below(lo[i], true), iv.above(hi[i], true)] {
            if !piece.is_empty() {
                let copy = out.push(r);
                for (j, narrowed) in copy[..i].iter_mut().enumerate() {
                    *narrowed = narrowed.intersect(&side(j));
                }
                copy[i] = piece;
            }
        }
    }
    // What is not pushed, r ∩ [lo, hi], is the discarded (covered) part.
    true
}

/// Decomposes the union of closed boxes into pairwise-disjoint regions:
/// each box minus the boxes before it.
///
/// Used for the unstable-case invalidated region: the union of the
/// (clipped) dominance regions of removed skyline points must be turned
/// into disjoint range queries. Complexity is `O(n² · |D|)` in the number
/// of boxes, fine for the small removed-point sets the paper observes
/// ("the extent of invalidation is limited", Section 7.3.1).
pub fn disjoint_union(boxes: &[Aabb]) -> Regions {
    let (mut out, mut pieces, mut next) =
        (Regions::default(), Regions::default(), Regions::default());
    for (k, b) in boxes.iter().enumerate() {
        pieces.clear();
        pieces.push_closed(b.lo(), b.hi());
        for prev in &boxes[..k] {
            if pieces.is_empty() {
                break;
            }
            next.clear();
            for r in pieces.iter() {
                carve(r, prev.lo(), prev.hi(), &mut next);
            }
            std::mem::swap(&mut pieces, &mut next);
        }
        out.extend(pieces.iter());
    }
    out
}

/// True iff no two regions of the list share a point. `O(n²)`; intended
/// for tests and debug assertions.
pub fn pairwise_disjoint(regions: &Regions) -> bool {
    let meet = |a: &[Interval], b: &[Interval]| a.iter().zip(b).all(|(x, y)| x.intersects(y));
    regions.iter().enumerate().all(|(i, a)| regions.iter().skip(i + 1).all(|b| !meet(a, b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::{contains, volume};

    fn aabb(lo: &[f64], hi: &[f64]) -> Aabb {
        Aabb::new(lo.to_vec(), hi.to_vec()).unwrap()
    }

    /// The pieces of closed box `[r_lo, r_hi]` outside `d`.
    fn subtract(r_lo: &[f64], r_hi: &[f64], d: &Aabb) -> Regions {
        let (mut r, mut out) = (Regions::default(), Regions::default());
        r.push_closed(r_lo, r_hi);
        let met = carve(&r[0], d.lo(), d.hi(), &mut out);
        assert_eq!(met, out != r);
        out
    }

    fn total_volume(regions: &Regions) -> f64 {
        regions.iter().map(volume).sum()
    }

    #[test]
    fn subtract_disjoint_returns_original() {
        let d = aabb(&[2.0, 2.0], &[3.0, 3.0]);
        let out = subtract(&[0.0, 0.0], &[1.0, 1.0], &d);
        let mut want = Regions::default();
        want.push_closed(&[0.0, 0.0], &[1.0, 1.0]);
        assert_eq!(out, want);
    }

    #[test]
    fn subtract_covering_returns_nothing() {
        let d = aabb(&[0.0, 0.0], &[3.0, 3.0]);
        assert!(subtract(&[1.0, 1.0], &[2.0, 2.0], &d).is_empty());
    }

    #[test]
    fn subtract_corner_produces_disjoint_cover() {
        // Remove the upper-right quadrant of the unit square.
        let d = aabb(&[0.5, 0.5], &[2.0, 2.0]);
        let out = subtract(&[0.0, 0.0], &[1.0, 1.0], &d);
        assert_eq!(out.len(), 2);
        assert!(pairwise_disjoint(&out));
        // Total volume preserved: 1 - 0.25 = 0.75.
        assert!((total_volume(&out) - 0.75).abs() < 1e-12);
        // Boundary points on the cut belong to exactly the removed side.
        assert!(!out.iter().any(|p| contains(p, &[0.5, 0.5])));
        assert_eq!(out.iter().filter(|p| contains(p, &[0.49999, 0.9])).count(), 1);
    }

    #[test]
    fn subtract_inner_box_produces_2d_ring() {
        let d = aabb(&[1.0, 1.0], &[2.0, 2.0]);
        let out = subtract(&[0.0, 0.0], &[3.0, 3.0], &d);
        assert_eq!(out.len(), 4);
        assert!(pairwise_disjoint(&out));
        assert!((total_volume(&out) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn subtract_3d_box_counts() {
        let d = aabb(&[1.0; 3], &[2.0; 3]);
        let out = subtract(&[0.0; 3], &[3.0; 3], &d);
        assert_eq!(out.len(), 6);
        assert!(pairwise_disjoint(&out));
        assert!((total_volume(&out) - 26.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_union_of_overlapping_boxes() {
        let boxes = vec![
            aabb(&[0.0, 0.0], &[2.0, 2.0]),
            aabb(&[1.0, 1.0], &[3.0, 3.0]),
            aabb(&[0.5, 0.5], &[1.5, 1.5]), // fully covered by the union above
        ];
        let out = disjoint_union(&boxes);
        assert!(pairwise_disjoint(&out));
        // |A ∪ B| = 4 + 4 - 1 = 7.
        assert!((total_volume(&out) - 7.0).abs() < 1e-12);
        // Every source-box corner sample must be covered exactly once.
        for probe in [[0.1, 0.1], [2.5, 2.5], [1.2, 1.2], [1.0, 2.5]] {
            assert_eq!(out.iter().filter(|r| contains(r, &probe)).count(), 1, "probe {probe:?}");
        }
    }

    #[test]
    fn subtract_preserves_membership_semantics() {
        // Any point in r is either inside d or in exactly one output piece.
        let d = aabb(&[1.0, 2.0, 0.5], &[3.0, 5.0, 3.5]);
        let out = subtract(&[0.0, 0.0, 0.0], &[4.0, 4.0, 4.0], &d);
        assert!(pairwise_disjoint(&out));
        let mut x = 0.05_f64;
        for _ in 0..200 {
            // Deterministic pseudo-random probes in r.
            x = (x * 97.31).fract();
            let y = (x * 57.17).fract();
            let z = (x * 31.73).fract();
            let p = [x * 4.0, y * 4.0, z * 4.0];
            let in_d = d.contains_coords(&p);
            let covered = out.iter().filter(|rr| contains(rr, &p)).count();
            assert_eq!(covered, usize::from(!in_d), "probe {p:?}");
        }
    }
}
