//! The in-memory skyline algorithm: Sort-Filter Skyline.
//!
//! SFS's inner loop runs over [`PointBlock`] — a flat structure-of-arrays
//! coordinate buffer — so the dominance-test hot path does no per-point
//! allocation and no pointer chasing.

use std::cmp::Ordering;

use skycache_geom::{dominates_rows, Point, PointBlock};

/// Result of an in-memory skyline computation.
#[derive(Clone, Debug)]
pub struct SkylineOutput {
    /// The skyline points. Duplicate coordinate vectors are all kept
    /// (equal points do not dominate one another).
    pub skyline: Vec<Point>,
    /// Number of full pairwise dominance tests performed (pairs the grid
    /// pre-test rejects are not tests).
    pub dominance_tests: u64,
}

/// Reusable buffer for the block-native skyline entry point
/// ([`Sfs::compute_block_into`]): one `(score, row)` slot per
/// input row, kept across queries so steady-state computation does not
/// allocate.
#[derive(Clone, Debug, Default)]
pub struct SkylineScratch {
    /// `(coordinate sum, row index)` pairs, brought into SFS canonical
    /// order as far as the filter needs it.
    pub(crate) order: Vec<(f64, u32)>,
    /// Per dimension, the `(origin, scale)` of the filter's pre-test
    /// grid ([`Grid`]).
    pub(crate) grid: Vec<(f64, f64)>,
    /// The grid code of each row of the filter's window, in window order.
    pub(crate) codes: Vec<u64>,
}

impl SkylineScratch {
    /// An empty scratch; buffers grow to their high-water marks in use.
    pub fn new() -> Self {
        SkylineScratch::default()
    }
}

/// Sort-Filter Skyline (Chomicki, Godfrey, Gryz & Liang): presort by a
/// monotone score so that no point can dominate an earlier one, then a
/// single filter pass against the growing skyline (no evictions needed).
///
/// The one in-memory skyline routine, inside both Baseline and CBCS as in
/// the paper's evaluation (Section 7); the engine runs it on flat rows
/// ([`Sfs::compute_block_into`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Sfs;

impl Sfs {
    /// Computes the skyline of `points` (minimization in all dimensions)
    /// through the block path: the owned-`Point` form the property suites
    /// use as their oracle.
    pub fn compute(&self, points: Vec<Point>) -> SkylineOutput {
        let Ok(input) = PointBlock::from_points(&points) else {
            return SkylineOutput { skyline: Vec::new(), dominance_tests: 0 };
        };
        let mut scratch = SkylineScratch::new();
        #[expect(clippy::expect_used, reason = "input.dims() >= 1 by PointBlock construction")]
        let mut skyline = PointBlock::new(input.dims()).expect("dims > 0");
        let tests =
            self.compute_block_into(input.as_flat(), input.dims(), &mut scratch, &mut skyline);
        SkylineOutput { skyline: skyline.to_points(), dominance_tests: tests }
    }

    /// Block-native SFS, at every dimensionality: orders row indices by
    /// [`canonical_cmp`] and filters each row, in that order, against the
    /// growing skyline block. Allocation-free once `scratch` and `out`
    /// have warmed up.
    ///
    /// The sort is lazy. Most rows of a typical input are dominated by
    /// the first few skyline rows, so sorting them is wasted: only the
    /// `head = max(32, n / 16)` smallest rows are selected, sorted and
    /// filtered into the window prefix `W0`; the other `n − head` rows
    /// are first filtered against `W0` unsorted, and only the survivors
    /// are sorted and filtered against the window rows after `W0`. The
    /// classic scan tests every row against the window in window order
    /// and stops at its first dominator, and `W0` is a prefix of the
    /// window of every row past the head — so each row meets the same
    /// window rows in the same order as after a full sort, and the
    /// emitted rows, their order and the dominance-test count are
    /// identical to it (`tests/prop_kernels.rs` pins all three). Inputs
    /// of at most `2 · head` rows sort whole: the head is the input.
    ///
    /// Each row meets the first [`LEAD`] window rows with the full test.
    /// Past them, a window row gets the full test only if it passes the
    /// grid pre-test ([`Grid`]) on the row: the grid is built over the
    /// head, so it is the same whichever way the rest is sorted, and the
    /// count stays exact. The returned count is of full tests only.
    pub fn compute_block_into(
        &self,
        rows: &[f64],
        dims: usize,
        scratch: &mut SkylineScratch,
        out: &mut PointBlock,
    ) -> u64 {
        debug_assert!(dims > 0 && rows.len().is_multiple_of(dims));
        debug_assert_eq!(out.dims(), dims);
        out.clear();
        let n = rows.len() / dims;
        let SkylineScratch { order, grid, codes } = scratch;
        order.clear();
        order.extend(
            rows.chunks_exact(dims).enumerate().map(|(i, row)| (row.iter().sum::<f64>(), i as u32)),
        );
        let cmp = |a: &(f64, u32), b: &(f64, u32)| canonical_cmp(rows, dims, a, b);
        let head = (n / 16).max(32);
        let head = if n <= 2 * head {
            n
        } else {
            order.select_nth_unstable_by(head, cmp);
            head
        };
        let (smallest, rest) = order.split_at_mut(head);
        smallest.sort_unstable_by(cmp);
        let grid = Grid::over(grid, rows, dims, smallest);
        codes.clear();
        let mut tests = 0u64;
        filter_sorted(rows, smallest, 0, &grid, codes, out, &mut tests);
        let w0 = out.len();
        let mut kept = 0;
        let window = Window::of(out, codes, 0);
        for k in 0..rest.len() {
            let entry = rest[k];
            let row = &rows[entry.1 as usize * dims..(entry.1 as usize + 1) * dims];
            if window.undominated(row, &grid, &mut tests).is_some() {
                rest[kept] = entry;
                kept += 1;
            }
        }
        let survivors = &mut rest[..kept];
        survivors.sort_unstable_by(cmp);
        filter_sorted(rows, survivors, w0, &grid, codes, out, &mut tests);
        tests
    }
}

/// SFS canonical order over `(coordinate sum, row index)` entries of the
/// row-major block `rows`: ascending sum, equal sums by the coordinates
/// lexicographically, then by row index — a strict total order, so an
/// unstable sort by it is deterministic.
///
/// No row sorts before a row that dominates it. `s ≺ t` gives
/// `sum(s) ≤ sum(t)` (floating-point addition is monotone), but not
/// `<`: the sums of `[0.5, 0.5, 1e-17]` and `[0.5, 0.5, 2e-17]` both
/// round to 1. On such a tie the dominator is the lexicographically
/// smaller row, as it is `≤` everywhere and `<` where the two first
/// differ. The coordinates compare *numerically*: `-0.0` and `0.0` are
/// equal there, where `total_cmp` would rank a dominated row's `-0.0`
/// ahead of its dominator's `0.0`.
fn canonical_cmp(rows: &[f64], dims: usize, a: &(f64, u32), b: &(f64, u32)) -> Ordering {
    let row = |i: u32| &rows[i as usize * dims..(i as usize + 1) * dims];
    a.0.total_cmp(&b.0).then_with(|| lex_cmp(row(a.1), row(b.1))).then(a.1.cmp(&b.1))
}

/// Lexicographic numeric order of two coordinate rows (`-0.0 = 0.0`;
/// rows are NaN-free by `Point` construction).
fn lex_cmp(a: &[f64], b: &[f64]) -> Ordering {
    a.partial_cmp(b).unwrap_or(Ordering::Equal)
}

/// Window rows every row meets with the full test before its grid code
/// is computed: most rows past the head fall to the first of them, and
/// those never pay for a code.
const LEAD: usize = 2;

/// The filter's pre-test: a monotone grid over the finite bounding box
/// of the head rows, `2^(L−1)` buckets a dimension, with one row's
/// buckets packed into a `u64` code in lanes of `L = min(⌊64/d⌋, 16)`
/// bits, the top bit of each lane a guard that no bucket reaches.
///
/// A bucket is `(x − origin) · scale`, clamped to `[0, top]` (a `NaN`,
/// from `0 · ∞`, to 0) and rounded to the nearest integer. Correctly
/// rounded subtraction, multiplication by a scale `≥ 0`, the clamp and
/// the rounding are monotone, so `w ≤ p` in a coordinate gives
/// `bucket(w) ≤ bucket(p)` there: `-0.0` and `0.0` land in one bucket,
/// `±∞` in the end buckets, and a `NaN` only where every smaller value
/// is in bucket 0 too. So a row `w` dominates `p` only if every bucket
/// of `w` is `≤` the same bucket of `p`, which is
/// [`Grid::may_dominate`]. Past `d = 32` a lane has no room for a
/// bucket: every code is 0 and every pair passes.
struct Grid<'a> {
    /// Per dimension, `(origin, scale)`.
    cells: &'a [(f64, f64)],
    /// Bits per lane.
    lane: usize,
    /// The top bucket, `2^(L−1) − 1` (0 when a lane has no room).
    top: u64,
    /// The guard bit of every lane.
    guards: u64,
}

impl<'a> Grid<'a> {
    /// The grid over the finite bounding box of the `head` rows, kept in
    /// `grid`. A dimension without two distinct finite values there maps
    /// every coordinate to bucket 0.
    fn over(grid: &'a mut Vec<(f64, f64)>, rows: &[f64], dims: usize, head: &[(f64, u32)]) -> Self {
        let lane = (64 / dims).min(16);
        let guard = (1u64 << lane) >> 1;
        grid.clear();
        grid.resize(dims, (f64::INFINITY, f64::NEG_INFINITY));
        for row in head.iter().map(|&(_, i)| &rows[i as usize * dims..(i as usize + 1) * dims]) {
            for (cell, &x) in grid.iter_mut().zip(row).filter(|(_, x)| x.is_finite()) {
                *cell = (cell.0.min(x), cell.1.max(x));
            }
        }
        for (lo, hi) in grid.iter_mut() {
            (*lo, *hi) = if *hi > *lo { (*lo, guard as f64 / (*hi - *lo)) } else { (0.0, 0.0) };
        }
        let guards = (0..dims).fold(0, |g, i| g | guard << (i * lane));
        Grid { cells: grid, lane, top: guard.saturating_sub(1), guards }
    }

    /// The code of `row`: its bucket in dimension `i` in lane `i`. Adding
    /// `2^52` to a value in `[0, 2^15)` rounds it to the nearest integer
    /// and leaves that integer in the low bits, which is cheaper than a
    /// saturating cast.
    fn code(&self, row: &[f64]) -> u64 {
        let (top, round) = (self.top as f64, 2f64.powi(52));
        let buckets = row.iter().zip(self.cells).map(|(&x, &(lo, scale))| {
            (((x - lo) * scale).max(0.0).min(top) + round).to_bits() - round.to_bits()
        });
        buckets.enumerate().fold(0, |code, (i, b)| code | b << (i * self.lane))
    }

    /// Whether the row coded `w` may dominate the row coded `p`: every
    /// lane of `w` is `≤` the same lane of `p`. Each lane of `p | guards`
    /// is at least its guard bit, which exceeds every bucket, so no
    /// borrow crosses a lane, and a lane keeps its guard bit exactly when
    /// it did not borrow.
    #[inline]
    fn may_dominate(&self, w: u64, p: u64) -> bool {
        ((p | self.guards) - w) & self.guards == self.guards
    }
}

/// The window rows a row is filtered against: the ones before [`LEAD`],
/// which get the full test, and the rest, with their codes, which get it
/// only if they pass the grid pre-test.
struct Window<'w> {
    plain: &'w [f64],
    coded: &'w [f64],
    codes: &'w [u64],
}

impl<'w> Window<'w> {
    /// The rows of `out`, coded `codes`, from row `from` on.
    fn of(out: &'w PointBlock, codes: &'w [u64], from: usize) -> Self {
        let (dims, lead) = (out.dims(), LEAD.clamp(from, codes.len()));
        let (plain, coded) = out.as_flat().split_at(lead * dims);
        Window { plain: &plain[from * dims..], coded, codes: &codes[lead..] }
    }

    /// Whether no window row dominates `row`, scanning in window order
    /// and stopping at the first dominator: `row`'s code if none does.
    /// The full tests made are added to `tests`.
    #[inline]
    fn undominated(&self, row: &[f64], grid: &Grid<'_>, tests: &mut u64) -> Option<u64> {
        let plain = self.plain.chunks_exact(row.len());
        let hit = plain.clone().position(|w| dominates_rows(w, row));
        *tests += hit.map_or(plain.len(), |at| at + 1) as u64;
        if hit.is_some() {
            return None;
        }
        let code = grid.code(row);
        for (&w_code, w) in self.codes.iter().zip(self.coded.chunks_exact(row.len())) {
            if grid.may_dominate(w_code, code) {
                *tests += 1;
                if dominates_rows(w, row) {
                    return None;
                }
            }
        }
        Some(code)
    }
}

/// The SFS filter pass over `order`, already in canonical order: each
/// row is tested against the window rows of `out` from row `from` on
/// and appended, with its code, when none dominates it.
fn filter_sorted(
    rows: &[f64],
    order: &[(f64, u32)],
    from: usize,
    grid: &Grid<'_>,
    codes: &mut Vec<u64>,
    out: &mut PointBlock,
    tests: &mut u64,
) {
    let dims = out.dims();
    for &(_, i) in order {
        let row = &rows[i as usize * dims..(i as usize + 1) * dims];
        if let Some(code) = Window::of(out, codes, from).undominated(row, grid, tests) {
            out.push_row(row);
            codes.push(code);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{naive_skyline, sorted};

    fn p(c: &[f64]) -> Point {
        Point::from(c.to_vec())
    }

    fn pseudo_random_points(n: usize, dims: usize, seed: u64) -> Vec<Point> {
        // Small xorshift so this module needs no external RNG.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Point::from((0..dims).map(|_| next()).collect::<Vec<_>>())).collect()
    }

    #[test]
    fn sfs_agrees_with_naive() {
        let pts = pseudo_random_points(400, 4, 42);
        assert_eq!(sorted(Sfs.compute(pts.clone()).skyline), sorted(naive_skyline(&pts)));
    }

    #[test]
    fn empty_and_single() {
        assert!(Sfs.compute(vec![]).skyline.is_empty());
        assert_eq!(Sfs.compute(vec![p(&[1.0, 2.0])]).skyline, vec![p(&[1.0, 2.0])]);
    }

    #[test]
    fn duplicates_are_all_kept() {
        let pts = vec![p(&[1.0, 1.0]), p(&[1.0, 1.0]), p(&[2.0, 2.0])];
        let sky = Sfs.compute(pts).skyline;
        assert_eq!(sky.len(), 2, "duplicates of a skyline point stay");
        assert!(sky.iter().all(|s| *s == p(&[1.0, 1.0])));
    }

    #[test]
    fn totally_ordered_chain_yields_minimum() {
        let pts: Vec<Point> = (0..50).map(|i| p(&[i as f64, i as f64])).collect();
        assert_eq!(Sfs.compute(pts).skyline, vec![p(&[0.0, 0.0])]);
    }

    /// Rows sharing an `x`: only the lowest `y` survives among them, and
    /// a row of a larger `x` only below every smaller `x`'s `y`.
    #[test]
    fn equal_x_keeps_the_lowest_rows() {
        let same_x = vec![p(&[1.0, 3.0]), p(&[1.0, 2.0]), p(&[1.0, 2.0])];
        assert_eq!(Sfs.compute(same_x).skyline, vec![p(&[1.0, 2.0]); 2]);
        // (2, 1) is dominated by (1, 1), strictly on x; (2, 0) survives.
        let tie = vec![p(&[1.0, 1.0]), p(&[2.0, 1.0]), p(&[2.0, 0.0])];
        assert_eq!(sorted(Sfs.compute(tie).skyline), vec![p(&[1.0, 1.0]), p(&[2.0, 0.0])]);
    }

    /// `-0.0` and `0.0` are one coordinate: `(0.0, -1.75)` dominates both
    /// other rows, the one at `x = -0.0` included.
    #[test]
    fn signed_zero_x_is_one_group() {
        let pts = vec![p(&[-0.0, -1.25]), p(&[0.0, -1.75]), p(&[0.75, -1.5])];
        assert_eq!(Sfs.compute(pts).skyline, vec![p(&[0.0, -1.75])]);
    }

    #[test]
    fn anti_chain_is_fully_kept() {
        let pts: Vec<Point> = (0..50).map(|i| p(&[i as f64, (49 - i) as f64])).collect();
        assert_eq!(Sfs.compute(pts).skyline.len(), 50);
    }

    /// The block-native SFS entry point must be indistinguishable from
    /// the `Vec<Point>` one: same rows, same order, same test count.
    #[test]
    fn sfs_block_path_matches_compute_exactly() {
        let pts = pseudo_random_points(300, 3, 21);
        let want = Sfs.compute(pts.clone());
        let input = PointBlock::from_points(&pts).unwrap();
        let mut scratch = SkylineScratch::new();
        let mut out = PointBlock::new(3).unwrap();
        let tests = Sfs.compute_block_into(input.as_flat(), 3, &mut scratch, &mut out);
        assert_eq!(tests, want.dominance_tests);
        assert_eq!(out.to_points(), want.skyline, "same rows in the same order");

        // Reusing the scratch and output block stays correct.
        let pts2 = pseudo_random_points(150, 3, 22);
        let want2 = Sfs.compute(pts2.clone());
        let input2 = PointBlock::from_points(&pts2).unwrap();
        let tests2 = Sfs.compute_block_into(input2.as_flat(), 3, &mut scratch, &mut out);
        assert_eq!(tests2, want2.dominance_tests);
        assert_eq!(out.to_points(), want2.skyline);
    }

    /// At every width the top bucket stays below its lane's guard bit: a
    /// row of `+∞` or on the grid's upper edge codes every lane to the
    /// top bucket, a row of `-∞` or on the lower edge to 0, and the
    /// pre-test orders the two — except past `d = 32`, where a lane has
    /// no room for a bucket and every pair passes.
    #[test]
    fn grid_codes_stay_below_their_guard_bits() {
        for dims in [1, 2, 3, 4, 6, 16, 32, 33, 64, 65] {
            let rows: Vec<f64> = [0.0, 1.0].iter().flat_map(|&x| vec![x; dims]).collect();
            let mut cells = Vec::new();
            let grid = Grid::over(&mut cells, &rows, dims, &[(0.0, 0), (dims as f64, 1)]);
            let top = (0..dims).fold(0, |code, i| code | grid.top << (i * grid.lane));
            let high = grid.code(&vec![f64::INFINITY; dims]);
            assert_eq!((high, grid.code(&rows[dims..])), (top, top), "d = {dims}");
            assert_eq!(high & grid.guards, 0, "d = {dims}");
            let low = grid.code(&vec![f64::NEG_INFINITY; dims]);
            assert_eq!((low, grid.code(&rows[..dims])), (0, 0), "d = {dims}");
            assert!(grid.may_dominate(low, high));
            assert_eq!(grid.may_dominate(high, low), dims > 32, "d = {dims}");
        }
    }

    #[test]
    fn output_is_a_subset_and_undominated() {
        let pts = pseudo_random_points(300, 3, 7);
        let sky = Sfs.compute(pts.clone()).skyline;
        for s in &sky {
            assert!(pts.contains(s), "fabricated point");
            assert!(
                !pts.iter().any(|t| skycache_geom::dominates(t, s)),
                "dominated point in skyline"
            );
        }
        // Completeness: every undominated input point appears.
        assert_eq!(sky.len(), naive_skyline(&pts).len());
    }
}
