use std::fmt;

use crate::{GeomError, Point, Result};

/// A closed axis-aligned bounding box `[lo, hi]`.
///
/// This is the workhorse of the R\*-tree (node bounding rectangles, window
/// queries) and of the cache (minimum bounding rectangles of cached
/// skylines). Unlike a [`crate::rect`] region, all faces are closed, which matches
/// both R-tree semantics and the paper's constraint definition.
#[derive(Clone, PartialEq)]
pub struct Aabb {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl Aabb {
    /// Creates a box, validating dimensionality, NaN-freedom and `lo <= hi`.
    pub fn new(lo: impl Into<Box<[f64]>>, hi: impl Into<Box<[f64]>>) -> Result<Self> {
        let (lo, hi) = (lo.into(), hi.into());
        if lo.is_empty() {
            return Err(GeomError::ZeroDimensions);
        }
        if lo.len() != hi.len() {
            return Err(GeomError::DimensionMismatch { expected: lo.len(), actual: hi.len() });
        }
        for (dim, (l, h)) in lo.iter().zip(hi.iter()).enumerate() {
            if l.is_nan() || h.is_nan() {
                return Err(GeomError::NotANumber { dim });
            }
            if l > h {
                return Err(GeomError::InvertedBounds { dim });
            }
        }
        Ok(Aabb { lo, hi })
    }

    /// Creates a box without validation (debug-checked).
    pub fn new_unchecked(lo: impl Into<Box<[f64]>>, hi: impl Into<Box<[f64]>>) -> Self {
        let (lo, hi) = (lo.into(), hi.into());
        debug_assert_eq!(lo.len(), hi.len());
        debug_assert!(lo.iter().zip(hi.iter()).all(|(l, h)| l <= h));
        Aabb { lo, hi }
    }

    /// The degenerate box containing exactly one point.
    pub fn from_point(p: &Point) -> Self {
        Aabb { lo: p.coords().into(), hi: p.coords().into() }
    }

    /// Smallest box containing every point of a non-empty slice.
    pub fn bounding(points: &[Point]) -> Option<Self> {
        Aabb::bounding_rows(points.iter().map(Point::coords))
    }

    /// Smallest box containing every coordinate row of a non-empty
    /// iterator: [`Aabb::bounding`] for rows coming out of a
    /// [`crate::PointBlock`].
    pub fn bounding_rows<'a>(mut rows: impl Iterator<Item = &'a [f64]>) -> Option<Self> {
        let first = rows.next()?;
        let mut lo = first.to_vec();
        let mut hi = first.to_vec();
        for row in rows {
            for (i, &c) in row.iter().enumerate() {
                if c < lo[i] {
                    lo[i] = c;
                }
                if c > hi[i] {
                    hi[i] = c;
                }
            }
        }
        Some(Aabb { lo: lo.into(), hi: hi.into() })
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Membership test for a point (closed on all faces).
    pub fn contains_point(&self, p: &Point) -> bool {
        self.contains_coords(p.coords())
    }

    /// Bare-row membership: the zero-copy twin of
    /// [`Aabb::contains_point`] for coordinate slices coming out of a
    /// [`crate::PointBlock`]. Exits on the first failing dimension.
    #[inline]
    pub fn contains_coords(&self, row: &[f64]) -> bool {
        debug_assert_eq!(self.dims(), row.len());
        self.lo.iter().zip(self.hi.iter()).zip(row).all(|((l, h), c)| l <= c && c <= h)
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains_box(&self, other: &Aabb) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.lo.iter().zip(&other.lo).all(|(a, b)| a <= b)
            && self.hi.iter().zip(&other.hi).all(|(a, b)| a >= b)
    }

    /// Whether the two closed boxes share at least one point.
    pub fn intersects(&self, other: &Aabb) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.lo
            .iter()
            .zip(self.hi.iter())
            .zip(other.lo.iter().zip(other.hi.iter()))
            .all(|((al, ah), (bl, bh))| al <= bh && bl <= ah)
    }

    /// Intersection box, or `None` when disjoint.
    pub fn intersection(&self, other: &Aabb) -> Option<Aabb> {
        if !self.intersects(other) {
            return None;
        }
        let lo: Vec<f64> = self.lo.iter().zip(&other.lo).map(|(a, b)| a.max(*b)).collect();
        let hi: Vec<f64> = self.hi.iter().zip(&other.hi).map(|(a, b)| a.min(*b)).collect();
        Some(Aabb { lo: lo.into(), hi: hi.into() })
    }

    /// Smallest box enclosing both.
    pub fn union(&self, other: &Aabb) -> Aabb {
        debug_assert_eq!(self.dims(), other.dims());
        let lo: Vec<f64> = self.lo.iter().zip(&other.lo).map(|(a, b)| a.min(*b)).collect();
        let hi: Vec<f64> = self.hi.iter().zip(&other.hi).map(|(a, b)| a.max(*b)).collect();
        Aabb { lo: lo.into(), hi: hi.into() }
    }

    /// Overwrites the box in place with `sides`, one `(lo, hi)` pair per
    /// dimension: a reused box takes new bounds without allocating. Sides
    /// past the box's dimensionality are ignored, and a missing side
    /// keeps its bounds.
    pub fn set_sides(&mut self, sides: impl IntoIterator<Item = (f64, f64)>) {
        for ((lo, hi), (l, h)) in self.lo.iter_mut().zip(self.hi.iter_mut()).zip(sides) {
            (*lo, *hi) = (l, h);
        }
    }

    /// Grows `self` in place to enclose `other`.
    pub fn merge(&mut self, other: &Aabb) {
        debug_assert_eq!(self.dims(), other.dims());
        for i in 0..self.lo.len() {
            self.lo[i] = self.lo[i].min(other.lo[i]);
            self.hi[i] = self.hi[i].max(other.hi[i]);
        }
    }

    /// Hyper-volume (product of side lengths).
    pub fn area(&self) -> f64 {
        self.lo.iter().zip(self.hi.iter()).map(|(l, h)| h - l).product()
    }

    /// Sum of side lengths (the R\*-tree "margin").
    pub fn margin(&self) -> f64 {
        self.lo.iter().zip(self.hi.iter()).map(|(l, h)| h - l).sum()
    }

    /// Volume of the intersection with `other` (0 when disjoint).
    ///
    /// Allocation-free — equivalent to `intersection(other)` followed by
    /// [`Aabb::area`], but computed per dimension without materializing
    /// the intersection box, so comparator-position callers (the cache
    /// search's cover-order tie-break, R\*-tree split heuristics) stay
    /// off the allocator.
    pub fn overlap_area(&self, other: &Aabb) -> f64 {
        if !self.intersects(other) {
            return 0.0;
        }
        self.lo
            .iter()
            .zip(self.hi.iter())
            .zip(other.lo.iter().zip(other.hi.iter()))
            .map(|((al, ah), (bl, bh))| ah.min(*bh) - al.max(*bl))
            .product()
    }

    /// Center coordinates.
    ///
    /// Infinity-safe: a dimension unbounded on both sides centers at 0,
    /// and one unbounded on a single side clamps to ±`f64::MAX` — so the
    /// result is never NaN even for boxes of unbounded query regions
    /// (which the cache stores for partially-constrained queries).
    pub fn center(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(l, h)| {
                let c = 0.5 * (l + h);
                if c.is_nan() {
                    0.0 // (-inf + inf) / 2: treat the dimension as centered
                } else {
                    c.clamp(-f64::MAX, f64::MAX)
                }
            })
            .collect()
    }
}

impl fmt::Debug for Aabb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Aabb[{:?} .. {:?}]", self.lo, self.hi)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact expectations on exactly computed values")]
mod tests {
    use super::*;

    fn b(lo: &[f64], hi: &[f64]) -> Aabb {
        Aabb::new(lo.to_vec(), hi.to_vec()).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Aabb::new(vec![0.0], vec![1.0, 2.0]).is_err());
        assert!(Aabb::new(vec![2.0], vec![1.0]).is_err());
        assert!(Aabb::new(vec![f64::NAN], vec![1.0]).is_err());
        assert!(Aabb::new(Vec::<f64>::new(), Vec::<f64>::new()).is_err());
        assert!(Aabb::new(vec![0.0, 0.0], vec![1.0, 1.0]).is_ok());
    }

    #[test]
    fn contains_and_intersects() {
        let a = b(&[0.0, 0.0], &[2.0, 2.0]);
        let inner = b(&[0.5, 0.5], &[1.5, 1.5]);
        let touching = b(&[2.0, 0.0], &[3.0, 2.0]);
        let disjoint = b(&[3.0, 3.0], &[4.0, 4.0]);
        assert!(a.contains_box(&inner));
        assert!(a.intersects(&inner));
        assert!(a.intersects(&touching)); // closed boxes share a face
        assert!(!a.intersects(&disjoint));
        assert!(a.contains_point(&Point::from(vec![2.0, 2.0])));
        assert!(!a.contains_point(&Point::from(vec![2.1, 2.0])));
    }

    #[test]
    fn union_intersection_area() {
        let a = b(&[0.0, 0.0], &[2.0, 2.0]);
        let c = b(&[1.0, 1.0], &[3.0, 3.0]);
        assert_eq!(a.union(&c), b(&[0.0, 0.0], &[3.0, 3.0]));
        assert_eq!(a.intersection(&c).unwrap(), b(&[1.0, 1.0], &[2.0, 2.0]));
        assert_eq!(a.area(), 4.0);
        assert_eq!(a.margin(), 4.0);
        assert_eq!(a.overlap_area(&c), 1.0);
    }

    #[test]
    fn bounding_covers_all_points() {
        let pts = vec![
            Point::from(vec![1.0, 5.0]),
            Point::from(vec![3.0, 2.0]),
            Point::from(vec![2.0, 7.0]),
        ];
        let mbr = Aabb::bounding(&pts).unwrap();
        assert_eq!(mbr, b(&[1.0, 2.0], &[3.0, 7.0]));
        assert!(Aabb::bounding(&[]).is_none());
    }

    #[test]
    fn center_is_infinity_safe() {
        let b = Aabb::new_unchecked(
            vec![f64::NEG_INFINITY, f64::NEG_INFINITY, 1.0],
            vec![f64::INFINITY, 4.0, f64::INFINITY],
        );
        let c = b.center();
        assert!(c.iter().all(|v| !v.is_nan()), "{c:?}");
        assert_eq!(c[0], 0.0);
        assert_eq!(c[1], -f64::MAX);
        assert_eq!(c[2], f64::MAX);
    }

    #[test]
    fn set_sides_overwrites_in_place() {
        let mut a = b(&[0.0, 0.0], &[1.0, 1.0]);
        a.set_sides([(-2.0, -1.0), (5.0, 6.0)]);
        assert_eq!(a, b(&[-2.0, 5.0], &[-1.0, 6.0]));
        a.set_sides([(3.0, 4.0)]);
        assert_eq!(a, b(&[3.0, 5.0], &[4.0, 6.0]), "a missing side keeps its bounds");
    }

    #[test]
    fn merge_in_place() {
        let mut a = b(&[0.0, 0.0], &[1.0, 1.0]);
        a.merge(&b(&[-1.0, 0.5], &[0.5, 2.0]));
        assert_eq!(a, b(&[-1.0, 0.0], &[1.0, 2.0]));
    }
}
