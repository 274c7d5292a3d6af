//! The in-memory skyline algorithm: Sort-Filter Skyline.
//!
//! SFS's inner loop runs over [`PointBlock`] — a flat structure-of-arrays
//! coordinate buffer — so the dominance-test hot path does no per-point
//! allocation and no pointer chasing.

use std::cmp::Ordering;

use skycache_geom::{dominates_rows, Point, PointBlock};

use crate::planar::{planar_applicable, planar_skyline_into};

/// Result of an in-memory skyline computation.
#[derive(Clone, Debug)]
pub struct SkylineOutput {
    /// The skyline points. Duplicate coordinate vectors are all kept
    /// (equal points do not dominate one another).
    pub skyline: Vec<Point>,
    /// Number of pairwise dominance tests performed.
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
    /// Secondary `(score, row index)` buffer: the planar sweep's
    /// survivor list, re-sorted into canonical output order.
    pub(crate) aux: Vec<(f64, u32)>,
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

    /// Block-native SFS: dispatches `dims == 2` inputs to the planar
    /// monotone sweep ([`crate::planar::planar_skyline_into`], which
    /// needs no pairwise dominance tests at all) and everything else to
    /// the classic sum-sorted filter ([`Sfs::classic_block_into`]). Both
    /// paths emit SFS canonical order, so the dispatch is invisible to
    /// callers except in speed and in the `dominance_tests` count (0 on
    /// the planar path).
    pub fn compute_block_into(
        &self,
        rows: &[f64],
        dims: usize,
        scratch: &mut SkylineScratch,
        out: &mut PointBlock,
    ) -> u64 {
        if planar_applicable(dims) {
            return planar_skyline_into(rows, scratch, out);
        }
        self.classic_block_into(rows, dims, scratch, out)
    }

    /// The classic sum-sorted filter: orders row indices by
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
    /// Public so the differential tests can compare the planar sweep
    /// against it at `dims == 2` without hitting their own dispatch.
    pub fn classic_block_into(
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
        let order = &mut scratch.order;
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
        let mut tests = 0u64;
        filter_sorted(rows, smallest, 0, out, &mut tests);
        let w0 = out.len();
        let mut kept = 0;
        for k in 0..rest.len() {
            let entry = rest[k];
            let row = &rows[entry.1 as usize * dims..(entry.1 as usize + 1) * dims];
            if !dominated_in(out.as_flat(), row, &mut tests) {
                rest[kept] = entry;
                kept += 1;
            }
        }
        let survivors = &mut rest[..kept];
        survivors.sort_unstable_by(cmp);
        filter_sorted(rows, survivors, w0, out, &mut tests);
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
pub(crate) fn canonical_cmp(rows: &[f64], dims: usize, a: &(f64, u32), b: &(f64, u32)) -> Ordering {
    let row = |i: u32| &rows[i as usize * dims..(i as usize + 1) * dims];
    a.0.total_cmp(&b.0).then_with(|| lex_cmp(row(a.1), row(b.1))).then(a.1.cmp(&b.1))
}

/// Lexicographic numeric order of two coordinate rows (`-0.0 = 0.0`;
/// rows are NaN-free by `Point` construction).
fn lex_cmp(a: &[f64], b: &[f64]) -> Ordering {
    a.partial_cmp(b).unwrap_or(Ordering::Equal)
}

/// Whether a row of the flat `window` dominates `row`, scanning in
/// window order and stopping at the first dominator; the tests made are
/// added to `tests` once, after the scan (counting inside it costs a
/// wide window a store per test).
#[inline]
fn dominated_in(window: &[f64], row: &[f64], tests: &mut u64) -> bool {
    let hit = window.chunks_exact(row.len()).position(|s| dominates_rows(s, row));
    *tests += hit.map_or(window.len() / row.len(), |at| at + 1) as u64;
    hit.is_some()
}

/// The SFS filter pass over `order`, already in canonical order: each
/// row is tested against the window rows of `out` from row `from` on
/// and appended when none dominates it.
fn filter_sorted(
    rows: &[f64],
    order: &[(f64, u32)],
    from: usize,
    out: &mut PointBlock,
    tests: &mut u64,
) {
    let dims = out.dims();
    for &(_, i) in order {
        let row = &rows[i as usize * dims..(i as usize + 1) * dims];
        if !dominated_in(&out.as_flat()[from * dims..], row, tests) {
            out.push_row(row);
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
