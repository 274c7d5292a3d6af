//! Property-based end-to-end tests: for *arbitrary* chains of constraints
//! (not just workload-shaped ones), answering each query from the cached
//! results of the ones before must equal computing it from scratch. The
//! tables include `tests/common`'s adversarial inputs.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test code: a failed expectation fails the test"
)]

use proptest::prelude::*;

use skycache::algos::Sfs;
use skycache::core::{
    missing_points_region, CbcsConfig, MprMode, QueryRequest, Service, ServiceConfig,
};
use skycache::geom::rect::contains;
use skycache::geom::{Constraints, Point, PointBlock};
use skycache::storage::{CostModel, Table, TableConfig};

mod common;

fn coord() -> impl Strategy<Value = f64> {
    (0..=16u8).prop_map(|v| f64::from(v) / 16.0)
}

fn constraints(dims: usize) -> impl Strategy<Value = Constraints> {
    (prop::collection::vec(coord(), dims), prop::collection::vec(coord(), dims)).prop_map(
        |(a, b)| {
            let lo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect();
            let hi: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
            Constraints::new(lo, hi).expect("ordered")
        },
    )
}

fn dataset(dims: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(coord(), dims), 1..250)
        .prop_map(|rows| rows.into_iter().map(Point::from).collect())
}

/// A table and a chain of boxes on its coordinates: random points on a
/// 1/16 grid, or one of `tests/common`'s adversarial tables — twin rows,
/// signed zeros, 1e17 ties or subnormals, the last two under the default
/// cost model with boxes open to ±∞ on some sides.
fn table_and_boxes(dims: usize) -> impl Strategy<Value = (Table, Vec<Constraints>)> {
    let adversarial =
        move |table: fn(usize, usize, u64) -> Table,
              boxes: fn(usize, usize, u64) -> Vec<Constraints>| {
            (1..150usize, 2..6usize, any::<u64>()).prop_map(move |(n, chain, seed)| {
                (table(dims, n, seed), boxes(dims, chain, seed ^ 1))
            })
        };
    let grid = (dataset(dims), prop::collection::vec(constraints(dims), 2..6)).prop_map(
        |(points, boxes)| {
            let table = Table::build(points, TableConfig { cost_model: CostModel::free() });
            (table.unwrap(), boxes)
        },
    );
    prop_oneof![
        grid,
        adversarial(common::twin_grid_table, common::grid_boxes),
        adversarial(common::signed_zero_table, common::signed_zero_boxes),
        adversarial(
            |d, n, seed| common::coord_table(d, n, seed, common::huge),
            |d, n, seed| common::open_sided_boxes(d, n, seed, common::huge),
        ),
        adversarial(
            |d, n, seed| common::coord_table(d, n, seed, common::subnormal),
            |d, n, seed| common::open_sided_boxes(d, n, seed, common::subnormal),
        ),
    ]
}

fn reference(points: &[Point], c: &Constraints) -> Vec<Point> {
    let constrained: Vec<Point> = points.iter().filter(|p| c.satisfies(p)).cloned().collect();
    let mut sky = Sfs.compute(constrained).skyline;
    sky.sort_by_key(|p| p.coords().iter().map(|c| c.to_bits()).collect::<Vec<_>>());
    sky
}

/// Builds a fixed-dimensionality block from points that may be empty
/// (unlike `PointBlock::from_points`, which cannot infer dims then).
fn block(points: &[Point], dims: usize) -> PointBlock {
    let mut b = PointBlock::new(dims).unwrap();
    for p in points {
        b.push(p);
    }
    b
}

fn sorted(mut v: Vec<Point>) -> Vec<Point> {
    v.sort_by_key(|p| p.coords().iter().map(|c| c.to_bits()).collect::<Vec<_>>());
    v
}

/// The rows' bit patterns, sorted: `-0.0` and `0.0` differ.
fn bits(v: Vec<Point>) -> Vec<Vec<u64>> {
    let mut rows: Vec<_> =
        v.iter().map(|p| p.coords().iter().map(|c| c.to_bits()).collect()).collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Theorem 6 end to end: answering each C′ of a chain via the cache
    /// equals the naive answer, for random data and arbitrary boxes —
    /// grid coordinates force boundary coincidences and duplicate points,
    /// and the adversarial tables add bit-identical twins, rows equal but
    /// for their zeros' signs, ties at 1e17 and subnormals.
    #[test]
    fn cached_answer_equals_naive(
        input in table_and_boxes(3),
        exact in any::<bool>(),
        k in 0..5usize,
    ) {
        let (table, boxes) = input;
        let mode = if exact { MprMode::Exact } else { MprMode::Approximate { k } };
        let config = CbcsConfig { mpr: mode, ..Default::default() };
        let service = Service::open(&table, ServiceConfig::with_cbcs(config));
        let mut cbcs = service.session();
        for (i, c) in boxes.iter().enumerate() {
            let got = cbcs.execute(&QueryRequest::new(c.clone())).unwrap().skyline;
            prop_assert_eq!(bits(got), bits(reference(table.all_points(), c)), "box {}", i);
        }
    }

    /// Theorem 6 at the MPR level, without the engine: the cached skyline
    /// plus the MPR's content determines the new skyline.
    #[test]
    fn mpr_completeness(
        points in dataset(2),
        c_old in constraints(2),
        c_new in constraints(2),
    ) {
        let cached_sky = {
            let constrained: Vec<Point> =
                points.iter().filter(|p| c_old.satisfies(p)).cloned().collect();
            Sfs.compute(constrained).skyline
        };
        let out = missing_points_region(&c_old, &block(&cached_sky, 2), &c_new, MprMode::Exact);

        // Regions are pairwise disjoint...
        prop_assert!(skycache::geom::subtract::pairwise_disjoint(&out.regions));
        // ...and lie inside R_C′.
        let new_region = c_new.region();
        for r in out.regions.iter() {
            let inside = new_region.iter().zip(r).all(|(a, b)| a.contains_interval(b));
            prop_assert!(inside, "region escapes R_C′");
        }

        // Merge: retained cached points + points inside the MPR, dedup'd
        // against retained copies (a retained point's own row may fall in
        // an unpruned region only in approximate mode; in exact mode its
        // dominance box removes it, so plain concatenation suffices here
        // minus the points already retained).
        let mut merged = out.retained.to_points();
        for p in &points {
            if out.regions.iter().any(|r| contains(r, p.coords())) {
                merged.push(p.clone());
            }
        }
        let got = sorted(Sfs.compute(merged).skyline);
        prop_assert_eq!(got, reference(&points, &c_new));
    }

    /// Minimality direction (Theorem 7 flavour): the exact MPR never
    /// contains a point dominated by a retained cached skyline point.
    #[test]
    fn mpr_excludes_dominated_space(
        points in dataset(2),
        c_old in constraints(2),
        c_new in constraints(2),
        probe in prop::collection::vec(coord(), 2),
    ) {
        let cached_sky = {
            let constrained: Vec<Point> =
                points.iter().filter(|p| c_old.satisfies(p)).cloned().collect();
            Sfs.compute(constrained).skyline
        };
        let out = missing_points_region(&c_old, &block(&cached_sky, 2), &c_new, MprMode::Exact);
        let probe = Point::from(probe);
        let in_mpr = out.regions.iter().any(|r| contains(r, probe.coords()));
        if in_mpr {
            for u in out.retained.rows() {
                prop_assert!(
                    !skycache::geom::dominance::dominates_raw(u, probe.coords()),
                    "MPR contains space dominated by retained {u:?}"
                );
            }
        }
    }
}
