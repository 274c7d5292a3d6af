//! Differential property tests for the row-level dominance test: the
//! production (lane-blocked, branch-free) `dominates_rows` and the block
//! scan built on it must be *bitwise* equivalent to the early-exit
//! reference `dominates_raw` on arbitrary rows — including equal rows,
//! signed zeros, infinities, empty and one-row blocks. The SFS filter,
//! which sorts lazily and pre-tests on a grid, must emit
//! the rows of a reference that sorts its whole input first and tests
//! every pair in full — same rows, same order — after exactly the
//! dominance tests of the same reference applying the same pre-test.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test code: a failed expectation fails the test"
)]

#[allow(dead_code, reason = "the suites share one module; this one takes its coordinate cells")]
mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skycache::algos::{Sfs, SkylineScratch};
use skycache::geom::dominance::{dominated_by_any_rows, dominates_raw};
use skycache::geom::{dominates_rows, Kernel, Point, PointBlock};

/// Wide enough that every row crosses at least one full lane block plus a
/// remainder when truncated to fewer dims.
const MAX_DIMS: usize = 8;

/// Coordinates on a coarse grid spanning both signs, with the negative
/// zero bit pattern explicitly representable (sentinels ±9) so
/// sign-of-zero disagreements between the two tests would surface, and
/// both infinities (sentinels ±10), the values unbounded constraint
/// corners carry.
fn coord() -> impl Strategy<Value = f64> {
    (-10..=10i8).prop_map(|v| match v {
        -10 => f64::NEG_INFINITY,
        10 => f64::INFINITY,
        9 | -9 => -0.0,
        v => f64::from(v) / 4.0,
    })
}

fn raw_row() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(coord(), MAX_DIMS)
}

fn raw_rows(max: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(raw_row(), 0..max)
}

fn truncate(raw: &[f64], dims: usize) -> Vec<f64> {
    raw[..dims].to_vec()
}

fn to_block(raws: &[Vec<f64>], dims: usize) -> PointBlock {
    let mut b = PointBlock::new(dims).expect("nonzero dims");
    for r in raws {
        b.push_row(&r[..dims]);
    }
    b
}

/// Window rows the filter tests in full before it pre-tests.
const LEAD: usize = 2;

/// Reference SFS: scores every row, sorts *all* of them into SFS
/// canonical order (ascending coordinate sum; equal sums by the
/// coordinates compared numerically, then by input position), then one
/// filter pass with the early-exit reference test. Returns the emitted
/// rows, flat, the dominance tests made, and the tests the same pass
/// makes under the grid pre-test.
///
/// Under the pre-test, a window row past the first [`LEAD`] is tested
/// only if none of its grid buckets exceeds the same bucket of the row
/// under test: the rule the production filter documents, on the same
/// grid (over the finite bounding box of the first `head` rows in
/// canonical order, `2^(L−1)` buckets a dimension,
/// `L = min(⌊64/d⌋, 16)`, a bucket the clamped scaled offset rounded to
/// the nearest integer), compared bucket by bucket rather than through
/// packed codes. The rule never skips a dominator, which the pass
/// asserts, so both counts come from one pass over one window.
fn sfs_full_sort(rows: &[f64], dims: usize) -> (Vec<f64>, u64, u64) {
    let row = |i: usize| &rows[i * dims..(i + 1) * dims];
    let n = rows.len() / dims;
    let mut order: Vec<(f64, usize)> = (0..n).map(|i| (row(i).iter().sum(), i)).collect();
    order.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| row(a.1).partial_cmp(row(b.1)).expect("NaN-free"))
            .then(a.1.cmp(&b.1))
    });
    let head = if n <= 2 * (n / 16).max(32) { n } else { (n / 16).max(32) };
    let lane = (64 / dims).min(16);
    let top = if lane >= 2 { (1u64 << (lane - 1)) - 1 } else { 0 };
    let grid: Vec<(f64, f64)> = (0..dims)
        .map(|k| {
            let finite = order[..head].iter().map(|&(_, i)| row(i)[k]).filter(|x| x.is_finite());
            let lo = finite.clone().fold(f64::INFINITY, f64::min);
            let hi = finite.fold(f64::NEG_INFINITY, f64::max);
            if hi > lo {
                (lo, (top + 1) as f64 / (hi - lo))
            } else {
                (0.0, 0.0)
            }
        })
        .collect();
    let bucket = |x: f64, (lo, scale): (f64, f64)| {
        ((x - lo) * scale).max(0.0).min(top as f64).round_ties_even() as u64
    };
    let buckets =
        |r: &[f64]| -> Vec<u64> { r.iter().zip(&grid).map(|(&x, &c)| bucket(x, c)).collect() };
    let (mut window, mut window_buckets) = (Vec::<f64>::new(), Vec::<Vec<u64>>::new());
    let (mut tests, mut pretested) = (0u64, 0u64);
    for &(_, i) in &order {
        let mine = buckets(row(i));
        let mut dominated = false;
        for (j, (w, theirs)) in window.chunks_exact(dims).zip(&window_buckets).enumerate() {
            let skipped = j >= LEAD && theirs.iter().zip(&mine).any(|(t, m)| t > m);
            tests += 1;
            pretested += u64::from(!skipped);
            if dominates_raw(w, row(i)) {
                assert!(!skipped, "the pre-test skipped a dominator");
                dominated = true;
                break;
            }
        }
        if !dominated {
            window.extend_from_slice(row(i));
            window_buckets.push(mine);
        }
    }
    (window, tests, pretested)
}

/// `n` seeded rows of one of nine shapes, then about one row in eight
/// overwritten by a copy of another.
fn shaped_rows(shape: u8, n: usize, dims: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n * dims);
    for _ in 0..n {
        match shape {
            // Coarse signed grid with both zeros: duplicates, and distinct
            // rows of equal sum, are the rule.
            0 => rows.extend((0..dims).map(|_| match rng.gen_range(-9..=8i8) {
                -9 => -0.0,
                v => f64::from(v) / 4.0,
            })),
            // Independent.
            1 => rows.extend((0..dims).map(|_| rng.gen_range(0.0..1.0f64))),
            // Correlated: a few rows near the origin dominate the rest.
            2 => {
                let base = rng.gen_range(0.0..1.0f64);
                rows.extend((0..dims).map(|_| base + rng.gen_range(0.0..0.05f64)));
            }
            // Anti-correlated: rows scattered about one hyperplane, so
            // sums are close and nearly every row survives.
            3 => {
                let at = rows.len();
                rows.extend((0..dims).map(|_| rng.gen_range(0.0..1.0f64)));
                let shift = (0.5 * dims as f64 - rows[at..].iter().sum::<f64>()) / dims as f64;
                rows[at..].iter_mut().for_each(|v| *v += shift + rng.gen_range(0.0..0.01f64));
            }
            // Sums that round equal: the last coordinate is far below one
            // ulp of the rest, so dominated rows tie with their
            // dominators and often come first in the input.
            4 => {
                let lead = f64::from(rng.gen_range(1..=3u8)) / 2.0;
                rows.extend((1..dims).map(|_| lead));
                rows.push(f64::from(rng.gen_range(0..=8u8)) * 1e-17);
            }
            // A grid at 1e17 whose neighbouring cells round to ties.
            5 => rows.extend((0..dims).map(|_| common::huge(rng.gen_range(0..12)))),
            // A grid of subnormals: the grid's cell width overflows its
            // scale to infinity.
            6 => rows.extend((0..dims).map(|_| common::subnormal(rng.gen_range(0..12)))),
            // About one coordinate in six is `+∞` or `-∞`; a row holding
            // both sums to NaN.
            7 => rows.extend((0..dims).map(|_| match rng.gen_range(0..12u8) {
                0 => f64::NEG_INFINITY,
                1 => f64::INFINITY,
                _ => rng.gen_range(0.0..1.0f64),
            })),
            // Half the coordinates sit on the upper edge of the head's
            // box, in the capped top bucket, the rest on a coarse grid
            // below it.
            _ => rows.extend((0..dims).map(|_| {
                if rng.gen_bool(0.5) {
                    1.0
                } else {
                    f64::from(rng.gen_range(0..4u8)) / 4.0
                }
            })),
        }
    }
    for _ in 0..n / 8 {
        let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
        rows.copy_within(from * dims..(from + 1) * dims, to * dims);
    }
    rows
}

/// Input sizes on both sides of the lazy sort's `n <= 2 * head`
/// whole-sort bound (`head = max(32, n / 16)`), up to several thousand.
const SFS_SIZES: [usize; 10] = [0, 1, 2, 63, 64, 65, 66, 511, 1_200, 3_000];

/// Row shapes [`shaped_rows`] draws.
const SHAPES: u8 = 9;

/// A sort key that ties is no licence to keep input order. In every
/// input the second row dominates the first: in the first two their
/// coordinate sums round equal, the third pits a leading `-0.0` against a
/// leading `0.0`, and the fourth does both — `total_cmp` would rank the
/// dominated row's `-0.0` first. SFS, through `compute` and through its
/// block path, returns the dominator alone.
#[test]
fn float_tied_scores_do_not_leak_dominated_rows() {
    let p = |c: &[f64]| Point::from(c.to_vec());
    for pts in [
        vec![p(&[0.5, 0.5, 2e-17]), p(&[0.5, 0.5, 1e-17])],
        vec![p(&[1.0, 1e17, 3.0]), p(&[1.0, 1e17, 2.0])],
        vec![p(&[-0.0, 6.0, 7.0]), p(&[0.0, 5.0, 7.0])],
        vec![p(&[-0.0, 1e17, 3.0]), p(&[0.0, 1e17, 2.0])],
    ] {
        let want = vec![pts[1].clone()];
        assert!(dominates_raw(pts[1].coords(), pts[0].coords()));
        assert_eq!(Sfs.compute(pts.clone()).skyline, want, "SFS on {pts:?}");
        let input = PointBlock::from_points(&pts).expect("non-empty");
        let mut out = PointBlock::new(3).expect("dims");
        Sfs.compute_block_into(input.as_flat(), 3, &mut SkylineScratch::new(), &mut out);
        assert_eq!(out.to_points(), want, "SFS block path on {pts:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lazy-sort, pre-testing SFS filter emits the rows, in order,
    /// of the reference that sorts everything first and tests every pair
    /// in full, and makes exactly the dominance tests of that reference
    /// applying the same pre-test — at most the full reference's — over
    /// dims 1..=10 and the zero-lane widths 33 and 65, sizes on both
    /// sides of the whole-sort bound, duplicated rows, equal-sum distinct
    /// rows, both zeros, correlated and anti-correlated inputs, 1e17
    /// ties, subnormals, infinities and rows on the grid's upper edge.
    /// The second input of a case reuses the scratch and output block of
    /// the first, as the engine reuses them.
    #[test]
    fn lazy_sfs_matches_full_sort(
        dims in (1usize..=12).prop_map(|d| match d { 11 => 33, 12 => 65, d => d }),
        shape in 0..SHAPES, size in 0..SFS_SIZES.len(), seed in any::<u64>(),
    ) {
        let mut scratch = SkylineScratch::new();
        let mut out = PointBlock::new(dims).expect("dims");
        // Past d = 10 the input stops at 511 rows: a 65-d skyline
        // keeps nearly every row, and both scans are quadratic in it.
        let n = if dims > 10 { SFS_SIZES[size].min(511) } else { SFS_SIZES[size] };
        for (shape, n) in [(shape, n), ((shape + 1) % SHAPES, 100)] {
            let rows = shaped_rows(shape, n, dims, seed);
            let tests = Sfs.compute_block_into(&rows, dims, &mut scratch, &mut out);
            let (want, full_tests, want_tests) = sfs_full_sort(&rows, dims);
            let bits = |r: &[f64]| r.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(out.as_flat()), bits(&want));
            prop_assert_eq!(tests, want_tests);
            prop_assert!(tests <= full_tests, "{} tests, {} without the pre-test", tests, full_tests);
        }
    }
}

proptest! {
    /// Production dominance agrees with the early-exit reference on
    /// every row pair, equal rows included, and the `Kernel` pair names
    /// exactly those two implementations.
    #[test]
    fn wide_dominates_matches_scalar(
        dims in 1usize..=MAX_DIMS, a in raw_row(), b in raw_row(), dup in any::<bool>(),
    ) {
        let s = truncate(&a, dims);
        let t = if dup { s.clone() } else { truncate(&b, dims) };
        prop_assert_eq!(dominates_rows(&s, &t), dominates_raw(&s, &t));
        prop_assert_eq!(dominates_rows(&t, &s), dominates_raw(&t, &s));
        prop_assert_eq!(Kernel::Wide.dominates(&s, &t), dominates_rows(&s, &t));
        prop_assert_eq!(Kernel::Scalar.dominates(&s, &t), dominates_raw(&s, &t));
        // Self-comparison: a row never dominates itself.
        prop_assert!(!dominates_rows(&s, &s));
    }

    /// The rows-based any-dominator scan agrees with the reference.
    #[test]
    fn dominated_by_any_rows_generations_agree(
        dims in 1usize..=MAX_DIMS, cands in raw_rows(12), t in raw_row(),
    ) {
        let cands = to_block(&cands, dims);
        let t = truncate(&t, dims);
        prop_assert_eq!(
            dominated_by_any_rows(&t, &cands),
            cands.rows().any(|s| dominates_raw(s, &t))
        );
    }
}
