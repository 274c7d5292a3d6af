//! Differential property tests for the row-level dominance test: the
//! production (lane-blocked, branch-free) `dominates_rows` and the block
//! scan built on it must be *bitwise* equivalent to the early-exit
//! reference `dominates_raw` on arbitrary rows — including equal rows,
//! signed zeros, infinities, empty and one-row blocks — and the planar
//! d = 2 sweep must reproduce the classic SFS filter row for row. The SFS
//! filter itself, which sorts lazily, must be indistinguishable from a
//! reference that sorts its whole input first: same rows, same order,
//! same dominance-test count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skycache::algos::{planar_skyline_into, Sfs, SkylineScratch};
use skycache::geom::dominance::{dominated_by_any_rows, dominates_raw};
use skycache::geom::{dominates_rows, Kernel, Point, PointBlock};

/// Wide enough that every row crosses at least one full lane block plus a
/// remainder when truncated to fewer dims.
const MAX_DIMS: usize = 8;

/// Finite coordinates on a coarse grid spanning both signs, with the
/// negative zero bit pattern explicitly representable (sentinel −9) so
/// sign-of-zero disagreements between the two tests would surface.
fn finite_coord() -> impl Strategy<Value = f64> {
    (-9..=8i8).prop_map(|v| if v == -9 { -0.0 } else { f64::from(v) / 4.0 })
}

/// [`finite_coord`] plus both infinities (sentinels ±10), the values
/// unbounded constraint corners carry.
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

/// Finite rows for the SFS-level tests: the coordinate-sum presort is
/// only monotone w.r.t. dominance on finite data (`∞ − ∞` is NaN).
fn finite_rows(max: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(finite_coord(), 2), 0..max)
}

/// Reference SFS: scores every row, sorts *all* of them into SFS
/// canonical order (ascending coordinate sum; equal sums by the
/// coordinates compared numerically, then by input position), then one
/// filter pass with the early-exit reference test. Returns the emitted
/// rows, flat, and the dominance tests made.
fn sfs_full_sort(rows: &[f64], dims: usize) -> (Vec<f64>, u64) {
    let row = |i: usize| &rows[i * dims..(i + 1) * dims];
    let mut order: Vec<(f64, usize)> =
        (0..rows.len() / dims).map(|i| (row(i).iter().sum(), i)).collect();
    order.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| row(a.1).partial_cmp(row(b.1)).expect("NaN-free"))
            .then(a.1.cmp(&b.1))
    });
    let (mut window, mut tests) = (Vec::<f64>::new(), 0u64);
    for &(_, i) in &order {
        let hit = window.chunks_exact(dims).position(|w| dominates_raw(w, row(i)));
        tests += hit.map_or(window.len() / dims, |at| at + 1) as u64;
        if hit.is_none() {
            window.extend_from_slice(row(i));
        }
    }
    (window, tests)
}

/// `n` seeded rows of one of five shapes, then about one row in eight
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
            _ => {
                let lead = f64::from(rng.gen_range(1..=3u8)) / 2.0;
                rows.extend((1..dims).map(|_| lead));
                rows.push(f64::from(rng.gen_range(0..=8u8)) * 1e-17);
            }
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

    /// The lazy-sort SFS filter emits the same rows in the same order
    /// after the same number of dominance tests as the reference that
    /// sorts everything first — over dims 1..=10, sizes on both sides of
    /// the whole-sort bound, duplicated rows, equal-sum distinct rows,
    /// both zeros, correlated and anti-correlated inputs. The second
    /// input of a case reuses the scratch and output block of the first,
    /// as the engine reuses them.
    #[test]
    fn lazy_sfs_matches_full_sort(
        dims in 1usize..=10, shape in 0..5u8, size in 0..SFS_SIZES.len(), seed in any::<u64>(),
    ) {
        let mut scratch = SkylineScratch::new();
        let mut out = PointBlock::new(dims).expect("dims");
        for (shape, n) in [(shape, SFS_SIZES[size]), ((shape + 1) % 5, 100)] {
            let rows = shaped_rows(shape, n, dims, seed);
            let tests = Sfs.classic_block_into(&rows, dims, &mut scratch, &mut out);
            let (want, want_tests) = sfs_full_sort(&rows, dims);
            let bits = |r: &[f64]| r.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(out.as_flat()), bits(&want));
            prop_assert_eq!(tests, want_tests);
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

    /// The planar sweep reproduces the classic SFS filter exactly — same
    /// rows, same canonical order — on random d = 2 blocks, and never
    /// runs a pairwise dominance test.
    #[test]
    fn planar_sweep_matches_classic_sfs(pts in finite_rows(60)) {
        let rows: Vec<f64> = pts.iter().flat_map(|r| [r[0], r[1]]).collect();
        let mut scratch = SkylineScratch::new();
        let mut fast = PointBlock::new(2).expect("dims");
        let tests = planar_skyline_into(&rows, &mut scratch, &mut fast);
        prop_assert_eq!(tests, 0);
        let mut scratch2 = SkylineScratch::new();
        let mut classic = PointBlock::new(2).expect("dims");
        Sfs.classic_block_into(&rows, 2, &mut scratch2, &mut classic);
        prop_assert_eq!(fast.to_points(), classic.to_points());
    }

    /// Presorted input (ascending x) is the planar best case — results
    /// must still match the classic filter exactly.
    #[test]
    fn planar_sweep_matches_on_presorted_input(pts in finite_rows(60)) {
        let mut pts: Vec<(f64, f64)> = pts.iter().map(|r| (r[0], r[1])).collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let rows: Vec<f64> = pts.iter().flat_map(|&(x, y)| [x, y]).collect();
        let mut scratch = SkylineScratch::new();
        let mut fast = PointBlock::new(2).expect("dims");
        planar_skyline_into(&rows, &mut scratch, &mut fast);
        let mut scratch2 = SkylineScratch::new();
        let mut classic = PointBlock::new(2).expect("dims");
        Sfs.classic_block_into(&rows, 2, &mut scratch2, &mut classic);
        prop_assert_eq!(fast.to_points(), classic.to_points());
    }
}
