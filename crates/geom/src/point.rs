use std::fmt;
use std::ops::Index;

use crate::{GeomError, Result};

/// An owned point in `R^|D|`.
///
/// Coordinates are finite `f64`s; constructors reject NaN so that every
/// comparison in the crate is a total order. Points are the unit of data in
/// the whole workspace: the storage engine stores them in pages, skyline
/// algorithms compare them, and cache items hold them as results.
#[derive(Clone, PartialEq)]
pub struct Point {
    coords: Box<[f64]>,
}

impl Point {
    /// Creates a point, validating that it is non-empty and NaN-free.
    pub fn new(coords: impl Into<Box<[f64]>>) -> Result<Self> {
        let coords = coords.into();
        if coords.is_empty() {
            return Err(GeomError::ZeroDimensions);
        }
        if let Some(dim) = coords.iter().position(|c| c.is_nan()) {
            return Err(GeomError::NotANumber { dim });
        }
        Ok(Point { coords })
    }

    /// Creates a point without validation.
    ///
    /// Intended for hot paths (data generators, storage reads) where the
    /// invariants are structurally guaranteed. Debug builds still check.
    pub fn new_unchecked(coords: impl Into<Box<[f64]>>) -> Self {
        let coords = coords.into();
        debug_assert!(!coords.is_empty());
        debug_assert!(coords.iter().all(|c| !c.is_nan()));
        Point { coords }
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.coords.len()
    }

    /// Coordinate slice.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Sum of coordinates — the monotone scoring function used by SFS
    /// presorting (a point with smaller sum can never be dominated by one
    /// with a larger sum).
    pub fn coord_sum(&self) -> f64 {
        self.coords.iter().sum()
    }
}

impl Index<usize> for Point {
    type Output = f64;

    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", self.coords)
    }
}

impl From<Vec<f64>> for Point {
    /// Converts from a coordinate vector, validating in debug builds only.
    fn from(v: Vec<f64>) -> Self {
        Point::new_unchecked(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_empty() {
        assert_eq!(Point::new(vec![]), Err(GeomError::ZeroDimensions));
    }

    #[test]
    fn new_rejects_nan() {
        assert_eq!(Point::new(vec![1.0, f64::NAN]), Err(GeomError::NotANumber { dim: 1 }));
    }

    #[test]
    fn accessors() {
        let p = Point::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(p.dims(), 3);
        assert_eq!(p[1], 2.0);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
        assert_eq!(p.coord_sum(), 6.0);
    }
}
