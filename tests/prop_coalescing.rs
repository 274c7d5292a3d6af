//! Differential property tests for the coalescing fetch planner: for
//! *arbitrary* region sets — overlapping, abutting, nested, or genuine
//! MPR output — the coalesced plan must fetch exactly the rows a naive
//! per-region scan fetches (after deduplication) and yield the same
//! skyline over them — and account for it by the planner's contract
//! (DESIGN.md §12): never more range queries than ready regions, latency
//! the cost model's charge for the counters, and counters that do not
//! depend on whether latency is charged at all.

use proptest::prelude::*;

use skycache::algos::Sfs;
use skycache::core::{missing_points_region, MprMode};
use skycache::geom::{Constraints, HyperRect, Point, PointBlock};
use skycache::storage::{CostModel, FetchPlan, FetchScratch, RowId, Table, TableConfig};

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

fn build_with(points: Vec<Point>, cost_model: CostModel) -> Table {
    Table::build(points, TableConfig { cost_model, ..Default::default() })
        .expect("generated data is valid")
}

fn build(points: Vec<Point>) -> Table {
    build_with(points, CostModel::free())
}

fn sorted_points(mut v: Vec<Point>) -> Vec<Point> {
    v.sort_by_key(|p| p.coords().iter().map(|c| c.to_bits()).collect::<Vec<_>>());
    v
}

/// Row ids and points of a naive fetch: one independent range query per
/// region, rows deduplicated by id afterwards.
fn naive_fetch(table: &Table, regions: &[HyperRect]) -> (Vec<RowId>, Vec<Point>) {
    let mut rows: Vec<(RowId, Point)> = regions
        .iter()
        .flat_map(|r| {
            let fetched = table.fetch_plan(&FetchPlan::single(r.clone()));
            fetched.rows.into_iter().map(|row| (row.id, row.point))
        })
        .collect();
    rows.sort_by_key(|(id, _)| *id);
    rows.dedup_by_key(|(id, _)| *id);
    rows.into_iter().unzip()
}

/// Row ids and points of the coalescing planner over the same regions.
fn coalesced_fetch(table: &Table, regions: &[HyperRect]) -> (Vec<RowId>, Vec<Point>) {
    let mut scratch = FetchScratch::new();
    table.fetch_plan_into(&FetchPlan::new(regions.to_vec()).coalesced(), &mut scratch);
    let buf = scratch.rows();
    let mut rows: Vec<(RowId, Point)> = buf
        .ids()
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, Point::from(buf.row(i).to_vec())))
        .collect();
    rows.sort_by_key(|(id, _)| *id);
    rows.into_iter().unzip()
}

fn assert_same_rows_and_skyline(
    table: &Table,
    regions: &[HyperRect],
) -> std::result::Result<(), TestCaseError> {
    let (naive_ids, naive_points) = naive_fetch(table, regions);
    let (plan_ids, plan_points) = coalesced_fetch(table, regions);
    // Exact same deduplicated row set: the planner may reorder and must
    // dedup, but it can neither drop nor double-fetch a row.
    prop_assert_eq!(&plan_ids, &naive_ids, "coalesced row ids diverge from naive fetch");

    let naive_sky = sorted_points(Sfs.compute(naive_points).skyline);
    let plan_sky = sorted_points(Sfs.compute(plan_points).skyline);
    prop_assert_eq!(naive_sky, plan_sky, "skyline over fetched rows diverged");
    assert_accounting(table, regions)
}

/// The accounting half of the contract. `table` counts only
/// (`CostModel::free()`); its twin charges the default model.
fn assert_accounting(
    table: &Table,
    regions: &[HyperRect],
) -> std::result::Result<(), TestCaseError> {
    let plan = FetchPlan::new(regions.to_vec()).coalesced();
    let counted = table.fetch_plan(&plan);
    let charged = build_with(table.all_points().to_vec(), CostModel::default()).fetch_plan(&plan);
    prop_assert_eq!(counted.stats, charged.stats, "counters depend on whether latency is charged");
    prop_assert_eq!(counted.simulated_latency, std::time::Duration::ZERO);

    let s = charged.stats;
    prop_assert_eq!(charged.simulated_latency, CostModel::default().fetch_latency(&s));
    // Every generated region is bounded, so a region is empty or ready.
    let ready = s.range_queries_issued - s.range_queries_empty;
    prop_assert!(s.range_queries_executed <= ready, "more range queries than ready regions");
    prop_assert_eq!(s.regions_coalesced, ready - s.range_queries_executed);
    Ok(())
}

proptest! {
    /// Arbitrary (freely overlapping/abutting/nested) region sets.
    #[test]
    fn coalesced_fetch_matches_naive_on_random_regions(
        points in dataset(3),
        region_boxes in prop::collection::vec(constraints(3), 1..6),
    ) {
        let table = build(points);
        let regions: Vec<HyperRect> = region_boxes.iter().map(Constraints::region).collect();
        assert_same_rows_and_skyline(&table, &regions)?;
    }

    /// Slabs — one bounded dimension each, so a region's predicted cost
    /// alone *is* what it is charged alone: the coalesced plan is never
    /// dearer than the same regions fetched one by one.
    #[test]
    fn coalesced_slabs_never_cost_more_than_separate_ones(
        points in dataset(3),
        slabs in prop::collection::vec((0..3usize, coord(), coord()), 1..8),
    ) {
        let table = build_with(points, CostModel::default());
        let regions: Vec<HyperRect> = slabs
            .iter()
            .map(|&(dim, a, b)| {
                let mut pairs = [(f64::NEG_INFINITY, f64::INFINITY); 3];
                pairs[dim] = (a.min(b), a.max(b));
                Constraints::from_pairs(&pairs).expect("ordered").region()
            })
            .collect();
        let separate = table.fetch_plan(&FetchPlan::new(regions.clone()));
        let coalesced = table.fetch_plan(&FetchPlan::new(regions).coalesced());
        prop_assert!(coalesced.simulated_latency <= separate.simulated_latency);
    }

    /// Genuine MPR region sets: the planner input the engine actually
    /// produces (pairwise disjoint, often abutting along subtraction
    /// seams — the coalescing planner's main prey).
    #[test]
    fn coalesced_fetch_matches_naive_on_mpr_regions(
        points in dataset(2),
        c_old in constraints(2),
        c_new in constraints(2),
        exact in any::<bool>(),
    ) {
        let table = build(points.clone());
        let cached_sky = {
            let constrained: Vec<Point> =
                points.iter().filter(|p| c_old.satisfies(p)).cloned().collect();
            Sfs.compute(constrained).skyline
        };
        let cached = {
            let mut b = PointBlock::new(2).unwrap();
            for p in &cached_sky {
                b.push(p);
            }
            b
        };
        let mode = if exact { MprMode::Exact } else { MprMode::Approximate { k: 1 } };
        let out = missing_points_region(&c_old, &cached, &c_new, mode);
        assert_same_rows_and_skyline(&table, &out.regions)?;
    }
}
