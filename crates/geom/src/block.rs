//! Flat structure-of-arrays point storage for dominance-heavy kernels.
//!
//! A [`PointBlock`] stores `len` points of fixed dimensionality `dims` in
//! one contiguous `Vec<f64>` with stride `dims`. Skyline inner loops
//! (the SFS window) operate on bare `&[f64]` rows via
//! [`crate::dominates_rows`], so the hot path performs no
//! per-point allocation and walks memory linearly — unlike `Vec<Point>`,
//! where every comparison chases a separate `Box`.

use crate::{GeomError, Point, Result};

/// A dense block of equal-dimensionality points (structure-of-arrays).
#[derive(Clone, Debug, PartialEq)]
pub struct PointBlock {
    coords: Vec<f64>,
    dims: usize,
}

impl PointBlock {
    /// Creates an empty block for `dims`-dimensional points.
    pub fn new(dims: usize) -> Result<Self> {
        if dims == 0 {
            return Err(GeomError::ZeroDimensions);
        }
        Ok(PointBlock { coords: Vec::new(), dims })
    }

    /// Creates an empty block with room for `capacity` points.
    pub fn with_capacity(dims: usize, capacity: usize) -> Result<Self> {
        if dims == 0 {
            return Err(GeomError::ZeroDimensions);
        }
        Ok(PointBlock { coords: Vec::with_capacity(dims * capacity), dims })
    }

    /// Builds a block from points, which must be non-empty (the block
    /// takes its dimensionality from the first point).
    ///
    /// # Panics
    /// Panics in debug builds if dimensionalities are mixed.
    pub fn from_points(points: &[Point]) -> Result<Self> {
        let dims = points.first().map_or(0, Point::dims);
        let mut block = PointBlock::with_capacity(dims, points.len())?;
        for p in points {
            block.push(p);
        }
        Ok(block)
    }

    /// Number of points stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.len() / self.dims
    }

    /// Whether the block holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Dimensionality of every stored point.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The coordinate row of point `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dims..(i + 1) * self.dims]
    }

    /// The whole backing buffer (row-major, stride [`Self::dims`]).
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.coords
    }

    /// Iterates over coordinate rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.coords.chunks_exact(self.dims)
    }

    /// Appends a point.
    ///
    /// # Panics
    /// Panics in debug builds on dimensionality mismatch.
    #[inline]
    pub fn push(&mut self, p: &Point) {
        self.push_row(p.coords());
    }

    /// Appends a bare coordinate row.
    ///
    /// # Panics
    /// Panics in debug builds on dimensionality mismatch.
    #[inline]
    pub fn push_row(&mut self, row: &[f64]) {
        debug_assert_eq!(row.len(), self.dims);
        self.coords.extend_from_slice(row);
    }

    /// Removes all points.
    pub fn clear(&mut self) {
        self.coords.clear();
    }

    /// Keeps only the rows for which `pred` returns `true`, preserving
    /// order. In-place compaction: no allocation, O(len · dims).
    pub fn retain_rows(&mut self, mut pred: impl FnMut(&[f64]) -> bool) {
        let dims = self.dims;
        let mut write = 0;
        for read in 0..self.len() {
            let keep = pred(&self.coords[read * dims..(read + 1) * dims]);
            if keep {
                if write != read {
                    self.coords.copy_within(read * dims..(read + 1) * dims, write * dims);
                }
                write += 1;
            }
        }
        self.coords.truncate(write * dims);
    }

    /// Materializes the block as owned [`Point`]s.
    pub fn to_points(&self) -> Vec<Point> {
        self.rows().map(|r| Point::new_unchecked(r.to_vec())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(rows: &[&[f64]]) -> PointBlock {
        let mut b = PointBlock::new(rows[0].len()).unwrap();
        for r in rows {
            b.push_row(r);
        }
        b
    }

    #[test]
    fn new_rejects_zero_dims() {
        assert!(PointBlock::new(0).is_err());
        assert!(PointBlock::with_capacity(0, 8).is_err());
    }

    #[test]
    fn push_and_access() {
        let b = block(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.dims(), 2);
        assert_eq!(b.row(1), &[3.0, 4.0]);
        assert_eq!(b.as_flat(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.rows().count(), 2);
    }

    #[test]
    fn round_trips_through_points() {
        let pts = vec![
            Point::new(vec![1.0, 2.0, 3.0]).unwrap(),
            Point::new(vec![4.0, 5.0, 6.0]).unwrap(),
        ];
        let b = PointBlock::from_points(&pts).unwrap();
        assert_eq!(b.to_points(), pts);
    }
}
