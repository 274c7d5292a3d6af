use std::fmt;

use crate::float::exact_eq;

/// A 1-D range with per-endpoint inclusivity.
///
/// Algorithm 1 of the paper splits hyper-rectangles with strict
/// inequalities so that the resulting range queries are *pairwise
/// disjoint* (Section 5.2: "This assumption can be removed by setting
/// either inequality to be strict"). An interval therefore records, for
/// each endpoint, whether it is open or closed.
#[derive(Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
    lo_open: bool,
    hi_open: bool,
}

impl Interval {
    /// Closed interval `[lo, hi]`.
    #[inline]
    pub fn closed(lo: f64, hi: f64) -> Self {
        Interval { lo, hi, lo_open: false, hi_open: false }
    }

    /// Fully-specified interval.
    #[inline]
    pub fn new(lo: f64, hi: f64, lo_open: bool, hi_open: bool) -> Self {
        Interval { lo, hi, lo_open, hi_open }
    }

    /// Lower endpoint value.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint value.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Whether the lower endpoint is excluded.
    #[inline]
    pub fn lo_open(&self) -> bool {
        self.lo_open
    }

    /// Whether the upper endpoint is excluded.
    #[inline]
    pub fn hi_open(&self) -> bool {
        self.hi_open
    }

    /// An interval is empty when it contains no real number.
    #[inline]
    pub fn is_empty(&self) -> bool {
        // Endpoints are only ever copied, never recomputed, so exact
        // comparison is the correct tie test (see crate::float).
        self.lo > self.hi || (exact_eq(self.lo, self.hi) && (self.lo_open || self.hi_open))
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, x: f64) -> bool {
        let above_lo = if self.lo_open { x > self.lo } else { x >= self.lo };
        let below_hi = if self.hi_open { x < self.hi } else { x <= self.hi };
        above_lo && below_hi
    }

    /// Intersection of two intervals (may be empty). Endpoints compare
    /// numerically; on a tie (`-0.0` against `0.0` included) the endpoint
    /// keeps `self`'s value and is open if either side's is.
    pub fn intersect(&self, other: &Interval) -> Interval {
        // Endpoints are NaN-free by construction (Aabb/Constraints
        // validate), so `None` does not occur.
        let (lo, lo_open) = match self.lo.partial_cmp(&other.lo) {
            Some(std::cmp::Ordering::Greater) => (self.lo, self.lo_open),
            Some(std::cmp::Ordering::Less) => (other.lo, other.lo_open),
            _ => (self.lo, self.lo_open || other.lo_open),
        };
        let (hi, hi_open) = match self.hi.partial_cmp(&other.hi) {
            Some(std::cmp::Ordering::Less) => (self.hi, self.hi_open),
            Some(std::cmp::Ordering::Greater) => (other.hi, other.hi_open),
            _ => (self.hi, self.hi_open || other.hi_open),
        };
        Interval { lo, hi, lo_open, hi_open }
    }

    /// Whether the two intervals share at least one real number.
    #[inline]
    pub fn intersects(&self, other: &Interval) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Whether `other` is fully contained in `self`.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        if other.is_empty() {
            return true;
        }
        let lo_ok =
            self.lo < other.lo || (exact_eq(self.lo, other.lo) && (!self.lo_open || other.lo_open));
        let hi_ok =
            self.hi > other.hi || (exact_eq(self.hi, other.hi) && (!self.hi_open || other.hi_open));
        lo_ok && hi_ok
    }

    /// The part of `self` strictly below `at` (`x < at`), or below-or-equal
    /// when `open` is false.
    pub fn below(&self, at: f64, open: bool) -> Interval {
        self.intersect(&Interval::new(f64::NEG_INFINITY, at, true, open))
    }

    /// The part of `self` above `at` (`x > at` when `open`, else `x >= at`).
    pub fn above(&self, at: f64, open: bool) -> Interval {
        self.intersect(&Interval::new(at, f64::INFINITY, open, true))
    }

    /// Width of the interval (`hi - lo`, clamped at zero when empty).
    pub fn width(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.hi - self.lo
        }
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}, {}{}",
            if self.lo_open { '(' } else { '[' },
            self.lo,
            self.hi,
            if self.hi_open { ')' } else { ']' },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emptiness() {
        assert!(!Interval::closed(0.0, 0.0).is_empty());
        assert!(Interval::new(0.0, 0.0, true, false).is_empty());
        assert!(Interval::new(0.0, 0.0, false, true).is_empty());
        assert!(Interval::closed(1.0, 0.0).is_empty());
    }

    #[test]
    fn contains_respects_openness() {
        let i = Interval::new(0.0, 1.0, true, false);
        assert!(!i.contains(0.0));
        assert!(i.contains(0.5));
        assert!(i.contains(1.0));
        assert!(!i.contains(1.5));
    }

    #[test]
    fn intersect_merges_openness_on_ties() {
        let a = Interval::new(0.0, 1.0, false, true);
        let b = Interval::new(0.0, 1.0, true, false);
        let c = a.intersect(&b);
        assert!(c.lo_open());
        assert!(c.hi_open());
    }

    /// `-0.0` and `0.0` are one number: a tie between them combines the
    /// openness of both sides instead of taking one side's endpoint.
    #[test]
    fn intersect_treats_signed_zeros_as_a_tie() {
        let above_neg_zero = Interval::new(-0.0, f64::INFINITY, true, true);
        let c = Interval::closed(0.0, 1.0).intersect(&above_neg_zero);
        assert!(c.lo_open() && !c.contains(0.0) && c.contains(0.5));
        let below_zero = Interval::new(f64::NEG_INFINITY, 0.0, true, true);
        let c = Interval::closed(-1.0, -0.0).intersect(&below_zero);
        assert!(c.hi_open() && !c.contains(0.0) && !c.contains(-0.0));
        assert!(Interval::closed(0.0, 1.0).below(-0.0, true).is_empty());
    }

    #[test]
    fn intersect_picks_tighter_bounds() {
        let a = Interval::closed(0.0, 5.0);
        let b = Interval::closed(3.0, 8.0);
        let c = a.intersect(&b);
        assert_eq!((c.lo(), c.hi()), (3.0, 5.0));
        assert!(!c.is_empty());
        assert!(a.intersects(&b));
        assert!(!a.intersects(&Interval::closed(6.0, 7.0)));
    }

    #[test]
    fn touching_closed_intervals_intersect() {
        let a = Interval::closed(0.0, 1.0);
        let b = Interval::closed(1.0, 2.0);
        assert!(a.intersects(&b));
        let b_open = Interval::new(1.0, 2.0, true, false);
        assert!(!a.intersects(&b_open));
    }

    #[test]
    fn below_above_partition() {
        let i = Interval::closed(0.0, 10.0);
        let lo = i.below(4.0, true); // [0, 4)
        let hi = i.above(4.0, false); // [4, 10]
        assert!(lo.contains(0.0) && lo.contains(3.999) && !lo.contains(4.0));
        assert!(hi.contains(4.0) && hi.contains(10.0));
        assert!(!lo.intersects(&hi));
    }

    #[test]
    fn containment() {
        let outer = Interval::closed(0.0, 10.0);
        assert!(outer.contains_interval(&Interval::closed(0.0, 10.0)));
        assert!(outer.contains_interval(&Interval::new(0.0, 10.0, true, true)));
        let inner_open = Interval::new(0.0, 5.0, true, false);
        assert!(inner_open.contains_interval(&Interval::closed(1.0, 5.0)));
        assert!(!inner_open.contains_interval(&Interval::closed(0.0, 5.0)));
    }
}
