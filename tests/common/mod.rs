//! Adversarial inputs shared by the end-to-end suites — the first member
//! of ROADMAP item 6c's coordinate generator: duplicate rows.

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
