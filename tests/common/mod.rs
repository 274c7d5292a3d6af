//! Adversarial inputs shared by the end-to-end suites — members of
//! ROADMAP item 8c's coordinate generator: duplicate rows, signed zeros,
//! coordinates at 1e17 that round to ties, subnormal coordinates, and
//! boxes open to ±∞.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test code: a failed expectation fails the test"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skycache::geom::{Constraints, Point};
use skycache::storage::{CostModel, Table, TableConfig};

/// Cells per axis of the integer grid.
const GRID: u8 = 12;

/// `n` random points of a 12-per-axis integer grid, every one stored
/// twice: a skyline holds both copies of a row or neither, and query
/// bounds from [`grid_boxes`] land exactly on rows.
pub fn twin_grid_table(dims: usize, n: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = Vec::with_capacity(2 * n);
    for _ in 0..n {
        let p =
            Point::from((0..dims).map(|_| f64::from(rng.gen_range(0..GRID))).collect::<Vec<_>>());
        points.extend([p.clone(), p]);
    }
    let config = TableConfig { cost_model: CostModel::free() };
    Table::build(points, config).expect("grid points are valid")
}

/// `n` random boxes with integer bounds on the same grid.
pub fn grid_boxes(dims: usize, n: usize, seed: u64) -> Vec<Constraints> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut side = || {
        let (a, b) = (f64::from(rng.gen_range(0..GRID)), f64::from(rng.gen_range(0..GRID)));
        (a.min(b), a.max(b))
    };
    (0..n)
        .map(|_| {
            let sides: Vec<(f64, f64)> = (0..dims).map(|_| side()).collect();
            Constraints::from_pairs(&sides).expect("ordered bounds")
        })
        .collect()
}

/// `n` random points of a 12-per-axis integer grid centred on 0 (−6 to
/// 5), every one stored twice: once with its zero coordinates as `0.0`
/// and once as `-0.0`. The two copies compare equal, so a skyline holds
/// both or neither, and each must come back with its own zeros' signs.
pub fn signed_zero_table(dims: usize, n: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = Vec::with_capacity(2 * n);
    for _ in 0..n {
        let cells: Vec<u8> = (0..dims).map(|_| rng.gen_range(0..GRID)).collect();
        let row = |zero: f64| cells.iter().map(|&cell| centred(cell, zero)).collect::<Vec<_>>();
        points.extend([Point::from(row(0.0)), Point::from(row(-0.0))]);
    }
    let config = TableConfig { cost_model: CostModel::free() };
    Table::build(points, config).expect("grid points are valid")
}

/// `n` random boxes with integer bounds on the grid of
/// [`signed_zero_table`], each zero bound spelled `0.0` or `-0.0` at
/// random.
pub fn signed_zero_boxes(dims: usize, n: usize, seed: u64) -> Vec<Constraints> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut side = || {
        let (a, b) = (rng.gen_range(0..GRID), rng.gen_range(0..GRID));
        let (za, zb) = (ZEROS[rng.gen_range(0..2)], ZEROS[rng.gen_range(0..2)]);
        (centred(a.min(b), za), centred(a.max(b), zb))
    };
    (0..n)
        .map(|_| {
            let sides: Vec<(f64, f64)> = (0..dims).map(|_| side()).collect();
            Constraints::from_pairs(&sides).expect("ordered bounds")
        })
        .collect()
}

/// The two spellings of zero.
const ZEROS: [f64; 2] = [0.0, -0.0];

/// Cell `cell` of [`signed_zero_table`]'s axis, with `zero` at the centre.
fn centred(cell: u8, zero: f64) -> f64 {
    match cell.cmp(&(GRID / 2)) {
        std::cmp::Ordering::Equal => zero,
        _ => f64::from(cell) - f64::from(GRID / 2),
    }
}

/// Cell `cell` of a grid at 1e17. Its 8-unit step is half the 16-unit
/// spacing of `f64` there: every odd cell is a tie that rounds to the
/// even neighbour, so up to three cells collapse into one value.
pub fn huge(cell: u8) -> f64 {
    1e17 + f64::from(cell) * 8.0
}

/// Cell `cell` of an evenly spaced grid of subnormals (0 at cell 0): a
/// width is subnormal, and a product of two widths underflows to zero.
pub fn subnormal(cell: u8) -> f64 {
    f64::from_bits(u64::from(cell) << 40)
}

/// `n` random points of a 12-per-axis grid whose cell `c` sits at
/// `coord(c)`, priced by the default cost model, so the corner-first
/// step takes its cut keys from these coordinates.
pub fn coord_table(dims: usize, n: usize, seed: u64, coord: fn(u8) -> f64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = (0..n)
        .map(|_| Point::from((0..dims).map(|_| coord(rng.gen_range(0..GRID))).collect::<Vec<_>>()))
        .collect();
    Table::build(points, TableConfig::default()).expect("grid points are valid")
}

/// `n` random boxes on [`coord_table`]'s grid; each side is open to
/// `-∞` (lower) or `+∞` (upper) with probability 0.3.
pub fn open_sided_boxes(
    dims: usize,
    n: usize,
    seed: u64,
    coord: fn(u8) -> f64,
) -> Vec<Constraints> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut side = || {
        let (a, b) = (rng.gen_range(0..GRID), rng.gen_range(0..GRID));
        let lo = if rng.gen_bool(0.3) { f64::NEG_INFINITY } else { coord(a.min(b)) };
        let hi = if rng.gen_bool(0.3) { f64::INFINITY } else { coord(a.max(b)) };
        (lo, hi)
    };
    (0..n)
        .map(|_| {
            let sides: Vec<(f64, f64)> = (0..dims).map(|_| side()).collect();
            Constraints::from_pairs(&sides).expect("ordered bounds")
        })
        .collect()
}
