//! In-memory skyline algorithms: BNL, SFS and two-way divide & conquer.
//!
//! BNL's and SFS's inner loops run over [`PointBlock`] — a flat
//! structure-of-arrays coordinate buffer — so the dominance-test hot path
//! does no per-point allocation and no pointer chasing.

use std::cmp::Ordering;

use skycache_geom::dominance::DomRelation;
use skycache_geom::{
    compare_rows, dominates, dominates_rows, retain_nondominated, Point, PointBlock,
};

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

/// An in-memory skyline routine.
///
/// CBCS's benefit is orthogonal to this choice (paper, Section 7); the
/// engine runs [`Sfs`] on flat rows ([`Sfs::compute_block_into`]), and
/// the other implementors are the references the tests compare it with.
pub trait SkylineAlgorithm: Send + Sync {
    /// Short identifier used in benchmark output.
    fn name(&self) -> &'static str;

    /// Computes the skyline of `points` (minimization in all dimensions).
    fn compute(&self, points: Vec<Point>) -> SkylineOutput;
}

/// Block-Nested-Loops (Börzsönyi et al., ICDE 2001), unbounded-window
/// variant: each point is compared against the current window; dominated
/// window entries are evicted.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bnl;

impl SkylineAlgorithm for Bnl {
    fn name(&self) -> &'static str {
        "BNL"
    }

    fn compute(&self, points: Vec<Point>) -> SkylineOutput {
        let Ok(input) = PointBlock::from_points(&points) else {
            return SkylineOutput { skyline: Vec::new(), dominance_tests: 0 };
        };
        // skylint: allow(no-panic-paths) — input.dims() >= 1 by PointBlock construction.
        let mut window = PointBlock::new(input.dims()).expect("dims > 0");
        let mut tests = 0u64;
        'next_point: for row in input.rows() {
            let mut i = 0;
            while i < window.len() {
                tests += 1;
                match compare_rows(window.row(i), row) {
                    DomRelation::Dominates => continue 'next_point,
                    DomRelation::DominatedBy => {
                        window.swap_remove(i);
                    }
                    DomRelation::Equal | DomRelation::Incomparable => i += 1,
                }
            }
            window.push_row(row);
        }
        SkylineOutput { skyline: window.to_points(), dominance_tests: tests }
    }
}

/// Sort-Filter Skyline (Chomicki, Godfrey, Gryz & Liang): presort by a
/// monotone score so that no point can dominate an earlier one, then a
/// single filter pass against the growing skyline (no evictions needed).
#[derive(Clone, Copy, Debug, Default)]
pub struct Sfs;

impl Sfs {
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

impl SkylineAlgorithm for Sfs {
    fn name(&self) -> &'static str {
        "SFS"
    }

    fn compute(&self, points: Vec<Point>) -> SkylineOutput {
        let Ok(input) = PointBlock::from_points(&points) else {
            return SkylineOutput { skyline: Vec::new(), dominance_tests: 0 };
        };
        let mut scratch = SkylineScratch::new();
        // skylint: allow(no-panic-paths) — input.dims() >= 1 by PointBlock construction.
        let mut skyline = PointBlock::new(input.dims()).expect("dims > 0");
        let tests =
            self.compute_block_into(input.as_flat(), input.dims(), &mut scratch, &mut skyline);
        SkylineOutput { skyline: skyline.to_points(), dominance_tests: tests }
    }
}

/// Two-way divide & conquer (Börzsönyi et al.): split at the median of the
/// first dimension, solve the halves recursively, and merge by filtering
/// the union of the partial skylines.
#[derive(Clone, Copy, Debug, Default)]
pub struct DivideConquer;

/// Below this size recursion falls back to BNL.
const DC_CUTOFF: usize = 64;

impl SkylineAlgorithm for DivideConquer {
    fn name(&self) -> &'static str {
        "D&C"
    }

    fn compute(&self, points: Vec<Point>) -> SkylineOutput {
        let mut tests = 0u64;
        let skyline = dc(points, 0, &mut tests);
        SkylineOutput { skyline, dominance_tests: tests }
    }
}

fn dc(mut points: Vec<Point>, depth: usize, tests: &mut u64) -> Vec<Point> {
    if points.len() <= DC_CUTOFF || depth > 40 {
        // Leaf: block cross-filter. A point survives iff no input point
        // strictly dominates it — self-comparison is harmless (strict
        // dominance is irreflexive), so candidate and window can hold
        // the same rows.
        return block_cross_filter(&points, tests);
    }
    let dim = depth % points[0].dims();
    // Median split on `dim`.
    let mid = points.len() / 2;
    points.select_nth_unstable_by(mid, |a, b| a[dim].total_cmp(&b[dim]));
    let upper = points.split_off(mid);
    let mut lower_sky = dc(points, depth + 1, tests);
    let upper_sky = dc(upper, depth + 1, tests);

    // Merge: lower-half skyline points may dominate upper-half ones (and,
    // on ties at the split value, vice versa) — cross-filter the union.
    let merged: Vec<Point> = lower_sky.drain(..).chain(upper_sky).collect();
    block_cross_filter(&merged, tests)
}

/// Skyline of `points` by one [`retain_nondominated`] pass of the rows
/// against themselves. This is the D&C leaf/merge kernel: inputs here
/// are small (≤ [`DC_CUTOFF`] at the leaves, unions of two partial
/// skylines at the merges), so the flat block pass beats BNL's window
/// churn despite doing the full O(k²) scan.
fn block_cross_filter(points: &[Point], tests: &mut u64) -> Vec<Point> {
    let Ok(mut candidates) = PointBlock::from_points(points) else {
        return Vec::new();
    };
    let window = candidates.clone();
    let stats = retain_nondominated(&mut candidates, &window);
    *tests += stats.dominance_tests;
    candidates.to_points()
}

/// SaLSa — Sort and Limit Skyline algorithm (Bartolini, Ciaccia & Patella):
/// presort by the *minimum coordinate* and keep the smallest maximum
/// coordinate seen among skyline points as a stop line. Once every
/// remaining point's minimum coordinate exceeds that stop line, some
/// skyline point dominates all of them and the scan terminates early —
/// SFS, by contrast, must always scan its entire input.
#[derive(Clone, Copy, Debug, Default)]
pub struct Salsa;

impl SkylineAlgorithm for Salsa {
    fn name(&self) -> &'static str {
        "SaLSa"
    }

    fn compute(&self, mut points: Vec<Point>) -> SkylineOutput {
        // `+ 0.0` folds a `-0.0` minimum into `0.0`: the sort below ranks
        // minC by `total_cmp`, which would put a dominated row's `-0.0`
        // ahead of its dominator's `0.0`.
        let min_coord =
            |p: &Point| -> f64 { p.coords().iter().copied().fold(f64::INFINITY, f64::min) + 0.0 };
        let max_coord =
            |p: &Point| -> f64 { p.coords().iter().copied().fold(f64::NEG_INFINITY, f64::max) };
        // Sort by (minC, sum, coordinates): the minC ordering enables the
        // stop test; the other two keys keep the order monotone w.r.t.
        // dominance. A dominator's minC and sum are both <= those of the
        // row it dominates, but in floating point either can tie (the
        // sums round equal), and then the dominator is the
        // lexicographically smaller row — see `canonical_cmp`.
        points.sort_by(|a, b| {
            min_coord(a)
                .total_cmp(&min_coord(b))
                .then_with(|| a.coord_sum().total_cmp(&b.coord_sum()))
                .then_with(|| lex_cmp(a.coords(), b.coords()))
        });

        let mut skyline: Vec<Point> = Vec::new();
        let mut tests = 0u64;
        let mut stop = f64::INFINITY; // min over skyline of max coordinate
        for p in points {
            if min_coord(&p) > stop {
                // Every later point q has minC(q) >= minC(p) > stop, so
                // the stop-line point strictly dominates them all.
                break;
            }
            let mut dominated = false;
            for s in &skyline {
                tests += 1;
                if dominates(s, &p) {
                    dominated = true;
                    break;
                }
            }
            if !dominated {
                stop = stop.min(max_coord(&p));
                skyline.push(p);
            }
        }
        SkylineOutput { skyline, dominance_tests: tests }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{naive_skyline, sorted};

    fn algos() -> Vec<Box<dyn SkylineAlgorithm>> {
        vec![Box::new(Bnl), Box::new(Sfs), Box::new(DivideConquer), Box::new(Salsa)]
    }

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
    fn all_algorithms_agree_with_naive() {
        let pts = pseudo_random_points(400, 4, 42);
        let want = sorted(naive_skyline(&pts));
        for algo in algos() {
            let got = sorted(algo.compute(pts.clone()).skyline);
            assert_eq!(got, want, "{} diverges from naive", algo.name());
        }
    }

    #[test]
    fn empty_and_single() {
        for algo in algos() {
            assert!(algo.compute(vec![]).skyline.is_empty(), "{}", algo.name());
            let one = algo.compute(vec![p(&[1.0, 2.0])]).skyline;
            assert_eq!(one, vec![p(&[1.0, 2.0])], "{}", algo.name());
        }
    }

    #[test]
    fn duplicates_are_all_kept() {
        let pts = vec![p(&[1.0, 1.0]), p(&[1.0, 1.0]), p(&[2.0, 2.0])];
        for algo in algos() {
            let sky = algo.compute(pts.clone()).skyline;
            assert_eq!(sky.len(), 2, "{}: duplicates of a skyline point stay", algo.name());
            assert!(sky.iter().all(|s| *s == p(&[1.0, 1.0])));
        }
    }

    #[test]
    fn totally_ordered_chain_yields_minimum() {
        let pts: Vec<Point> = (0..50).map(|i| p(&[i as f64, i as f64])).collect();
        for algo in algos() {
            let sky = algo.compute(pts.clone()).skyline;
            assert_eq!(sky, vec![p(&[0.0, 0.0])], "{}", algo.name());
        }
    }

    #[test]
    fn anti_chain_is_fully_kept() {
        let pts: Vec<Point> = (0..50).map(|i| p(&[i as f64, (49 - i) as f64])).collect();
        for algo in algos() {
            let sky = algo.compute(pts.clone()).skyline;
            assert_eq!(sky.len(), 50, "{}", algo.name());
        }
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
    fn sfs_does_fewer_tests_than_bnl_on_sorted_friendly_data() {
        // On a dominance chain SFS needs one test per point; BNL's window
        // churn costs at least as much.
        let pts: Vec<Point> = (0..2000).map(|i| p(&[i as f64, i as f64, i as f64])).collect();
        let sfs = Sfs.compute(pts.clone());
        let bnl = Bnl.compute(pts);
        assert!(sfs.dominance_tests <= bnl.dominance_tests);
        assert_eq!(sfs.skyline.len(), 1);
    }

    #[test]
    fn salsa_terminates_early_on_correlated_data() {
        // A strong dominator near the origin lets SaLSa stop after a few
        // points, while SFS scans everything.
        let mut pts: Vec<Point> = (1..2_000)
            .map(|i| {
                let v = 0.5 + i as f64 / 2_000.0;
                p(&[v, v + 0.01, v + 0.02])
            })
            .collect();
        pts.push(p(&[0.1, 0.1, 0.1]));
        let salsa = Salsa.compute(pts.clone());
        let sfs = Sfs.compute(pts);
        assert_eq!(crate::testutil::sorted(salsa.skyline), crate::testutil::sorted(sfs.skyline));
        assert!(
            salsa.dominance_tests * 10 < sfs.dominance_tests,
            "SaLSa {} vs SFS {}",
            salsa.dominance_tests,
            sfs.dominance_tests
        );
    }

    #[test]
    fn output_is_a_subset_and_undominated() {
        let pts = pseudo_random_points(300, 3, 7);
        for algo in algos() {
            let sky = algo.compute(pts.clone()).skyline;
            for s in &sky {
                assert!(pts.contains(s), "{}: fabricated point", algo.name());
                assert!(
                    !pts.iter().any(|t| skycache_geom::dominates(t, s)),
                    "{}: dominated point in skyline",
                    algo.name()
                );
            }
            // Completeness: every undominated input point appears.
            let want = naive_skyline(&pts);
            assert_eq!(sky.len(), want.len(), "{}", algo.name());
        }
    }
}
