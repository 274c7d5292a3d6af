//! Pareto dominance tests and dominance regions.
//!
//! Dominance is the paper's Definition in Section 3: `s ≺ t` iff
//! `∀i: s[i] ≤ t[i]` and `∃i: s[i] < t[i]` (minimization in all
//! dimensions). The *dominance region* `DR(s)` of a point (Definition 2)
//! is the set of points it dominates — geometrically the closed box
//! `[s, ∞)` minus `s` itself; constrained to `C` it becomes
//! `DR(s, C) = [s, C̄] \ {s}` for `s` satisfying `C`.

use crate::{dominates_rows, Aabb, Constraints, Point};

/// Early-exit strict dominance over bare coordinate rows: the reference
/// the production [`crate::dominates_rows`] is pinned against (same
/// classification on every input, one data-dependent branch per element).
#[inline]
pub fn dominates_raw(s: &[f64], t: &[f64]) -> bool {
    debug_assert_eq!(s.len(), t.len());
    let mut strict = false;
    for (a, b) in s.iter().zip(t) {
        if a > b {
            return false;
        }
        if a < b {
            strict = true;
        }
    }
    strict
}

/// Returns `true` iff `s ≺ t`: `s` is at least as small as `t` on every
/// dimension and strictly smaller on at least one.
#[inline]
pub fn dominates(s: &Point, t: &Point) -> bool {
    debug_assert_eq!(s.dims(), t.dims());
    dominates_rows(s.coords(), t.coords())
}

/// The constrained dominance region `DR(s, C)` as a closed box
/// `[s, C̄]`, or `None` when `s` exceeds `C̄` in some dimension (then no
/// point satisfying `C` is dominated by `s`... except none, the region is
/// empty).
///
/// Note the closed box over-approximates `DR(s, C)` by exactly one point:
/// `s` itself, which is not dominated by `s`. All callers in this
/// workspace keep `s` available from the cache, so the over-approximation
/// never loses information (see DESIGN.md, "Semantics notes").
///
/// Takes the bare coordinate row, as it comes out of a
/// [`crate::PointBlock`]: no owned `Point` required.
pub fn dominance_box_coords(s: &[f64], c: &Constraints) -> Option<Aabb> {
    debug_assert_eq!(s.len(), c.dims());
    if s.iter().zip(c.hi()).any(|(a, b)| a > b) {
        return None;
    }
    // Clamp the lower corner to the constraint region so the box is the
    // portion of DR(s) inside R_C even when s itself lies below C̲.
    let lo: Vec<f64> = s.iter().zip(c.lo()).map(|(a, b)| a.max(*b)).collect();
    Some(Aabb::new_unchecked(lo, c.hi().to_vec()))
}

/// Whether any row of `candidates` dominates `t`: scans the
/// [`crate::PointBlock`]'s rows directly, so callers holding SoA storage
/// need not materialize `Point`s.
#[inline]
pub fn dominated_by_any_rows(t: &[f64], candidates: &crate::PointBlock) -> bool {
    candidates.rows().any(|s| dominates_rows(s, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(c: &[f64]) -> Point {
        Point::from(c.to_vec())
    }

    #[test]
    fn strict_dominance() {
        assert!(dominates(&p(&[1.0, 2.0]), &p(&[1.0, 3.0])));
        assert!(dominates(&p(&[0.0, 0.0]), &p(&[1.0, 1.0])));
        assert!(!dominates(&p(&[1.0, 2.0]), &p(&[1.0, 2.0]))); // equal
        assert!(!dominates(&p(&[1.0, 3.0]), &p(&[2.0, 2.0]))); // incomparable
    }

    #[test]
    fn dominance_box_clamps_and_rejects() {
        let c = Constraints::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap();
        let b = dominance_box_coords(&[2.0, 3.0], &c).unwrap();
        assert_eq!(b.lo(), &[2.0, 3.0]);
        assert_eq!(b.hi(), &[10.0, 10.0]);

        // Point below the constraint region: box clamped to R_C.
        let b2 = dominance_box_coords(&[-5.0, 3.0], &c).unwrap();
        assert_eq!(b2.lo(), &[0.0, 3.0]);

        // Point beyond the upper constraints: empty region.
        assert!(dominance_box_coords(&[11.0, 3.0], &c).is_none());
    }

    #[test]
    fn dominated_by_any_scans() {
        let cands = vec![p(&[5.0, 5.0]), p(&[1.0, 1.0])];
        let block = crate::PointBlock::from_points(&cands).unwrap();
        assert!(dominated_by_any_rows(&[2.0, 2.0], &block));
        assert!(!dominated_by_any_rows(&[0.5, 0.5], &block));
    }

    #[test]
    fn dominated_by_any_rows_matches_point_form() {
        let cands = vec![p(&[5.0, 5.0]), p(&[1.0, 1.0])];
        let block = crate::PointBlock::from_points(&cands).unwrap();
        for t in [p(&[2.0, 2.0]), p(&[0.5, 0.5]), p(&[1.0, 1.0])] {
            assert_eq!(
                dominated_by_any_rows(t.coords(), &block),
                cands.iter().any(|s| dominates(s, &t)),
                "{t:?}"
            );
        }
        let empty = crate::PointBlock::new(2).unwrap();
        assert!(!dominated_by_any_rows(&[0.0, 0.0], &empty));
    }
}
