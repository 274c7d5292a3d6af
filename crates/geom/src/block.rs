//! Flat structure-of-arrays point storage for dominance-heavy kernels.
//!
//! A [`PointBlock`] stores `len` points of fixed dimensionality `dims` in
//! one contiguous `Vec<f64>` with stride `dims`. Skyline inner loops
//! (BNL/SFS windows) operate on bare `&[f64]` rows via
//! [`crate::dominates_rows`], so the hot path performs no
//! per-point allocation and walks memory linearly — unlike `Vec<Point>`,
//! where every comparison chases a separate `Box`.

use crate::{dominates_rows, GeomError, Point, Result};

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
        // skylint: allow(hot-path-alloc) — an empty `Vec` allocates nothing.
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

    /// Removes row `i` by moving the last row into its place (O(dims)).
    pub fn swap_remove(&mut self, i: usize) {
        let last = self.len() - 1;
        if i != last {
            let (head, tail) = self.coords.split_at_mut(last * self.dims);
            head[i * self.dims..(i + 1) * self.dims].copy_from_slice(tail);
        }
        self.coords.truncate(last * self.dims);
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
        // skylint: allow(hot-path-alloc) — owned points are this method's purpose; the lint flags its callers.
        self.rows().map(|r| Point::new_unchecked(r.to_vec())).collect()
    }
}

impl From<&[Point]> for PointBlock {
    /// Converts from a non-empty point slice.
    ///
    /// # Panics
    /// Panics if `points` is empty (no dimensionality to infer); use
    /// [`PointBlock::new`] for empty blocks.
    fn from(points: &[Point]) -> Self {
        // skylint: allow(no-panic-paths) — documented `# Panics` contract above.
        PointBlock::from_points(points).expect("cannot infer dims of an empty point slice")
    }
}

/// Result of a block dominance filter: how much work it did. Survivors
/// are compacted into the candidate block itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockFilter {
    /// Number of pairwise dominance tests performed.
    pub dominance_tests: u64,
    /// Number of candidate rows removed as dominated.
    pub removed: usize,
}

/// Block-vs-block dominance filter: removes from `candidates` every row
/// strictly dominated by some row of `window` in one pass, compacting
/// survivors in place (stable order, no per-point allocation). Each
/// candidate's window scan stops at the first dominating window row;
/// `dominance_tests` counts the row pairs actually tested.
///
/// `window` and `candidates` may be the same data copied into two blocks,
/// but aliasing one block for both roles is impossible by construction
/// (`&mut` vs `&`), which is what makes the in-place compaction sound.
pub fn retain_nondominated(candidates: &mut PointBlock, window: &PointBlock) -> BlockFilter {
    debug_assert_eq!(candidates.dims(), window.dims());
    let dims = candidates.dims;
    let mut stats = BlockFilter::default();
    let mut write = 0usize;
    for read in 0..candidates.len() {
        let row = candidates.row(read);
        let mut dominated = false;
        for w in window.rows() {
            stats.dominance_tests += 1;
            if dominates_rows(w, row) {
                dominated = true;
                break;
            }
        }
        if dominated {
            stats.removed += 1;
        } else {
            if write != read {
                candidates.coords.copy_within(read * dims..(read + 1) * dims, write * dims);
            }
            write += 1;
        }
    }
    candidates.coords.truncate(write * dims);
    stats
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

    #[test]
    fn swap_remove_moves_last_row() {
        let mut b = block(&[&[1.0], &[2.0], &[3.0]]);
        b.swap_remove(0);
        assert_eq!(b.to_points(), vec![Point::from(vec![3.0]), Point::from(vec![2.0])]);
        b.swap_remove(1);
        assert_eq!(b.len(), 1);
        b.swap_remove(0);
        assert!(b.is_empty());
    }

    #[test]
    fn retain_nondominated_matches_naive() {
        let window = block(&[&[1.0, 1.0], &[0.0, 3.0]]);
        // Dominated by (1,1); incomparable; equal to a window row
        // (equality does not dominate); dominated by (0,3).
        let mut cands = block(&[&[2.0, 2.0], &[0.5, 1.5], &[1.0, 1.0], &[0.0, 4.0]]);
        let stats = retain_nondominated(&mut cands, &window);
        assert_eq!(
            cands.to_points(),
            vec![Point::from(vec![0.5, 1.5]), Point::from(vec![1.0, 1.0]),]
        );
        assert_eq!(stats.removed, 2);
        // Row 1: 2 tests (no hit); row 2: 2 tests; rows 0 and 3: early
        // exit after 1 and 2 tests respectively.
        assert_eq!(stats.dominance_tests, 1 + 2 + 2 + 2);
    }

    /// The production (lane-blocked) filter against a per-row scan with
    /// the early-exit reference test: same survivors, tests and removals.
    #[test]
    fn retain_nondominated_generations_agree() {
        use crate::dominance::dominates_raw;
        let window = block(&[&[1.0, 1.0, 5.0], &[0.0, 3.0, 0.5]]);
        let rows: &[&[f64]] =
            &[&[2.0, 2.0, 6.0], &[0.5, 1.5, 0.25], &[1.0, 1.0, 5.0], &[0.0, 4.0, 0.75]];
        let mut want = PointBlock::new(3).unwrap();
        let mut want_stats = BlockFilter::default();
        for r in rows {
            let hit = window.rows().position(|w| dominates_raw(w, r));
            want_stats.dominance_tests += hit.map_or(window.len(), |i| i + 1) as u64;
            match hit {
                Some(_) => want_stats.removed += 1,
                None => want.push_row(r),
            }
        }
        let mut got = block(rows);
        let stats = retain_nondominated(&mut got, &window);
        assert_eq!(got, want);
        assert_eq!(stats, want_stats, "same tests and removals under both generations");
    }

    #[test]
    fn retain_nondominated_empty_window_keeps_all() {
        let window = PointBlock::new(2).unwrap();
        let mut cands = block(&[&[9.0, 9.0], &[0.0, 0.0]]);
        let stats = retain_nondominated(&mut cands, &window);
        assert_eq!(cands.len(), 2);
        assert_eq!(stats, BlockFilter::default());
    }
}
