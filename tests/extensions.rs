//! Integration tests for the paper's future-work extension implemented by
//! this library: dynamic data (Section 6.2), through a one-session
//! [`Service`].

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test code: a failed expectation fails the test"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skycache::core::{
    BaselineExecutor, CbcsConfig, Executor, MprMode, QueryRequest, Service, ServiceConfig,
};
use skycache::datagen::{DimStats, Distribution, InteractiveWorkload, SyntheticGen};
use skycache::geom::{Constraints, Point};
use skycache::storage::{CostModel, Table, TableConfig};

#[allow(dead_code, reason = "each suite uses its own part of the shared inputs")]
mod common;

fn sorted(mut v: Vec<Point>) -> Vec<Point> {
    v.sort_by_key(|p| p.coords().iter().map(|c| c.to_bits()).collect::<Vec<_>>());
    v
}

fn table_3d(n: usize, seed: u64) -> Table {
    let points = SyntheticGen::new(Distribution::Independent, 3, seed).generate(n);
    let config = TableConfig { cost_model: CostModel::free() };
    Table::build(points, config).unwrap()
}

fn workload(table: &Table, n: usize, seed: u64) -> Vec<Constraints> {
    let stats = DimStats::compute(table.all_points());
    InteractiveWorkload::new(stats)
        .generate(n, seed)
        .queries()
        .iter()
        .map(|q| q.constraints.clone())
        .collect()
}

// ---------------------------------------------------------------------------
// Dynamic data (Section 6.2)
// ---------------------------------------------------------------------------

#[test]
fn dynamic_executor_matches_recomputation_under_churn() {
    let mut rng = StdRng::seed_from_u64(99);
    let table = table_3d(2_000, 13);
    let queries = workload(&table, 60, 17);
    let mut service = Service::open(table, ServiceConfig::default());

    let mut live_rows: Vec<u32> = (0..2_000).collect();
    for (i, c) in queries.iter().enumerate() {
        // Interleave churn: a couple of inserts and deletes per query.
        for _ in 0..2 {
            let p = Point::from(vec![
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
            ]);
            let row = service.insert(p).unwrap();
            live_rows.push(row);
        }
        for _ in 0..2 {
            let pos = rng.gen_range(0..live_rows.len());
            let row = live_rows.swap_remove(pos);
            assert!(service.delete(row).is_some());
        }

        // The cached answer must equal recomputing from the live data.
        let got = sorted(service.session().execute(&QueryRequest::new(c.clone())).unwrap().skyline);
        let live: Vec<Point> = service.table().live_points().map(|(_, p)| p.clone()).collect();
        let fresh = Table::build(live, TableConfig { cost_model: CostModel::free() }).unwrap();
        let want = sorted(
            BaselineExecutor::new(&fresh).execute(&QueryRequest::new(c.clone())).unwrap().skyline,
        );
        assert_eq!(got, want, "query {i} diverged after churn");
    }
}

/// Churn over tables whose rows all come in twins — bit-identical, or
/// equal with their zeros' signs apart — under aMPR(0) and aMPR(1): after
/// each query a copy of one of its answer rows is inserted, and now and
/// then a live row is deleted. The query and the next box, asked again,
/// must return Baseline's answer over the live rows as bit-identical
/// multisets: a retained row the stage reads again must enter the merge
/// once per stored copy.
#[test]
fn duplicate_rows_under_churn_match_recomputation() {
    let bits = |rows: Vec<Point>| {
        let mut rows: Vec<Vec<u64>> =
            rows.iter().map(|p| p.coords().iter().map(|c| c.to_bits()).collect()).collect();
        rows.sort();
        rows
    };
    for dims in [2, 3] {
        for k in [0, 1] {
            let inputs = [
                ("twins", common::twin_grid_table(dims, 150, 1), common::grid_boxes(dims, 60, 2)),
                (
                    "signed zeros",
                    common::signed_zero_table(dims, 150, 3),
                    common::signed_zero_boxes(dims, 60, 4),
                ),
            ];
            for (name, table, boxes) in inputs {
                let mut rng = StdRng::seed_from_u64(5);
                let config = CbcsConfig { mpr: MprMode::Approximate { k }, ..Default::default() };
                let mut service = Service::open(table, ServiceConfig::with_cbcs(config));
                let ask = |service: &Service<'_>, c: &Constraints| {
                    service.session().execute(&QueryRequest::new(c.clone())).unwrap().skyline
                };
                for (i, pair) in boxes.windows(2).enumerate() {
                    let answer = ask(&service, &pair[0]);
                    if !answer.is_empty() {
                        service.insert(answer[rng.gen_range(0..answer.len())].clone()).unwrap();
                    }
                    if rng.gen_bool(0.3) {
                        let live: Vec<u32> =
                            service.table().live_points().map(|(r, _)| r).collect();
                        service.delete(live[rng.gen_range(0..live.len())]).unwrap();
                    }
                    let live: Vec<Point> =
                        service.table().live_points().map(|(_, p)| p.clone()).collect();
                    let fresh = Table::build(live, TableConfig { cost_model: CostModel::free() });
                    let mut baseline = BaselineExecutor::new(fresh.as_ref().unwrap());
                    for (which, c) in [("this", &pair[0]), ("next", &pair[1])] {
                        let want = baseline.execute(&QueryRequest::new(c.clone())).unwrap().skyline;
                        assert_eq!(
                            bits(ask(&service, c)),
                            bits(want),
                            "{name} d={dims} k={k} {which} of {i}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn insert_into_cached_region_updates_answers() {
    let table = table_3d(1_000, 19);
    let mut service = Service::open(table, ServiceConfig::default());
    let c = Constraints::from_pairs(&[(0.2, 0.8); 3]).unwrap();
    let before = service.session().execute(&QueryRequest::new(c.clone())).unwrap().skyline;

    // A point dominating the whole region becomes the sole skyline point.
    service.insert(Point::from(vec![0.2, 0.2, 0.2])).unwrap();
    let after = service.session().execute(&QueryRequest::new(c.clone())).unwrap();
    assert_eq!(after.skyline, vec![Point::from(vec![0.2, 0.2, 0.2])]);
    // And it was answered from the (maintained) cache, not recomputed.
    assert!(after.stats.cache_hit);
    assert!(!before.is_empty());
}

#[test]
fn delete_of_skyline_point_invalidates_only_affected_items() {
    let table = table_3d(1_000, 23);
    let mut service = Service::open(table, ServiceConfig::default());

    // Two disjoint cached regions.
    let c1 = Constraints::from_pairs(&[(0.0, 0.45); 3]).unwrap();
    let c2 = Constraints::from_pairs(&[(0.55, 1.0); 3]).unwrap();
    let r1 = service.session().execute(&QueryRequest::new(c1.clone())).unwrap().skyline;
    service.session().execute(&QueryRequest::new(c2.clone())).unwrap();
    assert_eq!(service.cache().len(), 2);

    // Delete a skyline point of region 1.
    let victim = r1[0].clone();
    let row = service
        .table()
        .live_points()
        .find(|(_, p)| **p == victim)
        .map(|(row, _)| row)
        .expect("skyline point exists in table");
    service.delete(row).unwrap();

    // Region 1's item was dropped; region 2's survived.
    assert_eq!(service.cache().len(), 1);

    // Re-querying region 1 is correct (recomputed, then re-cached).
    let got = sorted(service.session().execute(&QueryRequest::new(c1.clone())).unwrap().skyline);
    let live: Vec<Point> = service.table().live_points().map(|(_, p)| p.clone()).collect();
    let fresh = Table::build(live, TableConfig { cost_model: CostModel::free() }).unwrap();
    let want = sorted(
        BaselineExecutor::new(&fresh).execute(&QueryRequest::new(c1.clone())).unwrap().skyline,
    );
    assert_eq!(got, want);
}

#[test]
fn a_borrowed_table_is_copied_on_the_first_write() {
    let table = table_3d(1_000, 29);
    let c = Constraints::from_pairs(&[(0.2, 0.8); 3]).unwrap();
    let corner = Point::from(vec![0.2, 0.2, 0.2]);
    let mut service = Service::open(&table, ServiceConfig::default());
    let before = service.session().execute(&QueryRequest::new(c.clone())).unwrap().skyline;

    // The service writes its own copy and answers over it...
    let row = service.insert(corner.clone()).unwrap();
    let after = service.session().execute(&QueryRequest::new(c.clone())).unwrap().skyline;
    assert_eq!(after, vec![corner]);
    assert_eq!(service.table().len(), 1_001);

    // ...while the caller's table is as it was.
    assert_eq!(table.len(), 1_000);
    assert!(!table.is_live(row));
    let base = BaselineExecutor::new(&table).execute(&QueryRequest::new(c)).unwrap().skyline;
    assert_eq!(sorted(base), sorted(before));
}
