use std::fmt;

use crate::{Interval, Point};

/// A hyper-rectangle: the Cartesian product of per-dimension [`Interval`]s,
/// each face independently open or closed.
///
/// `HyperRect` is the currency of the MPR computation: Algorithm 1
/// manipulates a working set `H` of these, and each surviving rectangle is
/// ultimately issued to storage as one range query. Openness matters there:
/// two rectangles produced by splitting at a coordinate `v` share the value
/// `v` on the boundary, and exactly one of them may include it.
#[derive(Clone, PartialEq)]
pub struct HyperRect {
    dims: Box<[Interval]>,
}

impl HyperRect {
    /// Builds a rectangle from per-dimension intervals.
    pub fn from_intervals(dims: impl Into<Box<[Interval]>>) -> Self {
        let dims = dims.into();
        debug_assert!(!dims.is_empty());
        HyperRect { dims }
    }

    /// The closed rectangle `[lo, hi]`.
    pub fn closed(lo: &[f64], hi: &[f64]) -> Self {
        debug_assert_eq!(lo.len(), hi.len());
        HyperRect {
            dims: lo
                .iter()
                .zip(hi)
                .map(|(&l, &h)| Interval::closed(l, h))
                .collect::<Vec<_>>()
                .into(),
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension intervals.
    #[inline]
    pub fn intervals(&self) -> &[Interval] {
        &self.dims
    }

    /// The interval of dimension `i`.
    #[inline]
    pub fn interval(&self, i: usize) -> &Interval {
        &self.dims[i]
    }

    /// Replaces the interval of dimension `i`, returning the new rectangle.
    pub fn with_interval(&self, i: usize, iv: Interval) -> HyperRect {
        let mut dims = self.dims.clone();
        dims[i] = iv;
        HyperRect { dims }
    }

    /// A rectangle is empty when any of its intervals is.
    pub fn is_empty(&self) -> bool {
        self.dims.iter().any(Interval::is_empty)
    }

    /// Point membership.
    pub fn contains_point(&self, p: &Point) -> bool {
        debug_assert_eq!(self.dims(), p.dims());
        self.dims.iter().zip(p.coords()).all(|(iv, &c)| iv.contains(c))
    }

    /// Bare-row membership: the zero-copy twin of
    /// [`HyperRect::contains_point`] for coordinate slices coming from a
    /// [`crate::PointBlock`] or a columnar fetch buffer. Exits on the
    /// first failing dimension: the fetch post-filters that call this per
    /// row reject most rows within a coordinate or two.
    #[inline]
    pub fn contains_coords(&self, row: &[f64]) -> bool {
        debug_assert_eq!(self.dims(), row.len());
        self.dims.iter().zip(row).all(|(iv, &c)| iv.contains(c))
    }

    /// Whether two rectangles share at least one point.
    pub fn intersects(&self, other: &HyperRect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.dims.iter().zip(other.dims.iter()).all(|(a, b)| a.intersects(b))
    }

    /// Intersection rectangle, `None` when disjoint.
    pub fn intersection(&self, other: &HyperRect) -> Option<HyperRect> {
        debug_assert_eq!(self.dims(), other.dims());
        let dims: Vec<Interval> =
            self.dims.iter().zip(other.dims.iter()).map(|(a, b)| a.intersect(b)).collect();
        if dims.iter().any(Interval::is_empty) {
            None
        } else {
            Some(HyperRect { dims: dims.into() })
        }
    }

    /// Whether `other` is fully contained in `self`.
    pub fn contains_rect(&self, other: &HyperRect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.dims.iter().zip(other.dims.iter()).all(|(a, b)| a.contains_interval(b))
    }

    /// Hyper-volume.
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.dims.iter().map(Interval::width).product()
    }
}

impl fmt::Debug for HyperRect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rect{:?}", self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_rect_contains_boundary() {
        let r = HyperRect::closed(&[0.0, 0.0], &[1.0, 1.0]);
        assert!(r.contains_point(&Point::from(vec![0.0, 1.0])));
        assert!(!r.contains_point(&Point::from(vec![1.1, 0.5])));
        assert!(!r.is_empty());
    }

    #[test]
    fn open_face_excludes_boundary() {
        let r = HyperRect::closed(&[0.0, 0.0], &[1.0, 1.0])
            .with_interval(0, Interval::new(0.0, 1.0, false, true));
        assert!(!r.contains_point(&Point::from(vec![1.0, 0.5])));
        assert!(r.contains_point(&Point::from(vec![0.999, 0.5])));
    }

    #[test]
    fn intersection_and_containment() {
        let a = HyperRect::closed(&[0.0, 0.0], &[2.0, 2.0]);
        let b = HyperRect::closed(&[1.0, 1.0], &[3.0, 3.0]);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, HyperRect::closed(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(a.contains_rect(&i));
        assert!(b.contains_rect(&i));
        let disjoint = HyperRect::closed(&[5.0, 5.0], &[6.0, 6.0]);
        assert!(a.intersection(&disjoint).is_none());
        assert!(!a.intersects(&disjoint));
    }

    #[test]
    fn volume_of_empty_is_zero() {
        let r = HyperRect::closed(&[0.0, 0.0], &[2.0, 3.0]);
        assert_eq!(r.volume(), 6.0);
        let empty = r.with_interval(0, Interval::new(1.0, 1.0, true, false));
        assert!(empty.is_empty());
        assert_eq!(empty.volume(), 0.0);
    }
}
