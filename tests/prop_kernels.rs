//! Differential property tests for the row-level dominance tests: the
//! production (lane-blocked, branch-free) `dominates_rows` /
//! `compare_rows` and the block loops built on them must be *bitwise*
//! equivalent to the early-exit reference (`dominates_raw` /
//! `compare_raw`) on arbitrary rows — including equal rows, signed
//! zeros, infinities, empty and one-row blocks — and the planar d = 2
//! sweep must reproduce the classic SFS filter row for row.

use proptest::prelude::*;

use skycache::algos::{planar_skyline_into, Sfs, SkylineScratch};
use skycache::geom::dominance::{compare_raw, dominated_by_any_rows, dominates_raw};
use skycache::geom::{
    compare_rows, dominates_rows, retain_nondominated, BlockFilter, Kernel, PointBlock,
};

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

proptest! {
    /// Production dominance and comparison agree with the early-exit
    /// reference on every row pair, equal rows included, and the
    /// `Kernel` pair names exactly those two implementations.
    #[test]
    fn wide_dominates_and_compare_match_scalar(
        dims in 1usize..=MAX_DIMS, a in raw_row(), b in raw_row(), dup in any::<bool>(),
    ) {
        let s = truncate(&a, dims);
        let t = if dup { s.clone() } else { truncate(&b, dims) };
        prop_assert_eq!(dominates_rows(&s, &t), dominates_raw(&s, &t));
        prop_assert_eq!(dominates_rows(&t, &s), dominates_raw(&t, &s));
        prop_assert_eq!(compare_rows(&s, &t), compare_raw(&s, &t));
        prop_assert_eq!(Kernel::Wide.dominates(&s, &t), dominates_rows(&s, &t));
        prop_assert_eq!(Kernel::Scalar.dominates(&s, &t), dominates_raw(&s, &t));
        prop_assert_eq!(Kernel::Wide.compare(&s, &t), Kernel::Scalar.compare(&s, &t));
        // Self-comparison: a row never dominates itself.
        prop_assert!(!dominates_rows(&s, &s));
    }

    /// Block-vs-block filtering matches a per-candidate scan with the
    /// early-exit reference: identical survivors in identical order, and
    /// identical dominance-test counts (the window scan stops at the
    /// first dominator). Empty and one-row blocks are in range.
    #[test]
    fn retain_nondominated_generations_agree(
        dims in 1usize..=MAX_DIMS, cands in raw_rows(20), window in raw_rows(20),
    ) {
        let window = to_block(&window, dims);
        let mut got = to_block(&cands, dims);
        let mut want = PointBlock::new(dims).expect("nonzero dims");
        let mut want_stats = BlockFilter::default();
        for row in got.rows() {
            let hit = window.rows().position(|w| dominates_raw(w, row));
            want_stats.dominance_tests += hit.map_or(window.len(), |i| i + 1) as u64;
            match hit {
                Some(_) => want_stats.removed += 1,
                None => want.push_row(row),
            }
        }
        let stats = retain_nondominated(&mut got, &window);
        // Bit-level row equality: `-0.0 == 0.0` must not hide a swap.
        let bits = |b: &PointBlock| b.as_flat().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want));
        prop_assert_eq!(stats, want_stats);
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
