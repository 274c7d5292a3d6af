//! Property-based end-to-end tests: for *arbitrary* constraint pairs
//! (not just workload-shaped ones), answering the second query from the
//! first query's cached result must equal computing it from scratch.

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 6 end to end: answering C′ via the cached C equals the
    /// naive answer, for random data and arbitrary (C, C′) pairs — grid
    /// coordinates force boundary coincidences and duplicate points.
    #[test]
    fn cached_answer_equals_naive(
        points in dataset(3),
        c_old in constraints(3),
        c_new in constraints(3),
        exact in any::<bool>(),
        k in 0..5usize,
    ) {
        let table = Table::build(
            points.clone(),
            TableConfig { cost_model: CostModel::free() },
        ).unwrap();
        let mode = if exact { MprMode::Exact } else { MprMode::Approximate { k } };
        let config = CbcsConfig { mpr: mode, ..Default::default() };
        let service = Service::open(&table, ServiceConfig::with_cbcs(config));
        let mut cbcs = service.session();

        let r_old = cbcs.execute(&QueryRequest::new(c_old.clone())).unwrap();
        prop_assert_eq!(sorted(r_old.skyline), reference(&points, &c_old));

        let r_new = cbcs.execute(&QueryRequest::new(c_new.clone())).unwrap();
        prop_assert_eq!(sorted(r_new.skyline), reference(&points, &c_new));
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
