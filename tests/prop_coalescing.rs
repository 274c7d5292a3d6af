//! Differential property tests for the coalescing fetch planner: for
//! *arbitrary* pairwise-disjoint region sets — random boxes made disjoint
//! by `subtract::disjoint_union`, abutting along its seams, or genuine
//! MPR output — the coalesced plan must fetch exactly the rows the
//! regions' one-region fetches do, each row once, and yield the same
//! skyline over them — and account for it by the planner's contract
//! (DESIGN.md §12): never more range queries than ready regions, latency
//! the cost model's charge for the counters, counters that do not depend
//! on whether latency is charged at all, and a plan never dearer *by
//! prediction* than its regions fetched alone.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test code: a failed expectation fails the test"
)]

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skycache::algos::Sfs;
use skycache::core::{missing_points_region, MprMode};
use skycache::geom::{subtract, Aabb, Constraints, Interval, Point, PointBlock, Regions};
use skycache::storage::{
    CostModel, FetchOutcome, FetchPlan, FetchScratch, FetchStats, RowId, Table, TableConfig,
};

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
    Table::build(points, TableConfig { cost_model }).expect("generated data is valid")
}

fn build(points: Vec<Point>) -> Table {
    build_with(points, CostModel::free())
}

fn sorted_points(mut v: Vec<Point>) -> Vec<Point> {
    v.sort_by_key(|p| p.coords().iter().map(|c| c.to_bits()).collect::<Vec<_>>());
    v
}

/// The rows `(id, point)` of one fetch, in emission order, and its
/// outcome.
fn fetch(table: &Table, plan: &FetchPlan) -> (Vec<(RowId, Point)>, FetchOutcome) {
    let mut scratch = FetchScratch::new();
    let outcome = table.fetch_plan_into(plan, &mut scratch);
    let buf = scratch.rows();
    let rows = (0..buf.len()).map(|i| (buf.ids()[i], Point::from(buf.row(i).to_vec())));
    (rows.collect(), outcome)
}

/// Row ids and points of a naive fetch: one independent range query per
/// region, their rows concatenated.
fn naive_fetch(table: &Table, regions: &Regions) -> (Vec<RowId>, Vec<Point>) {
    let mut rows: Vec<(RowId, Point)> = regions
        .iter()
        .flat_map(|r| fetch(table, &FetchPlan::new(Regions::from_iter([r]))).0)
        .collect();
    rows.sort_by_key(|(id, _)| *id);
    rows.into_iter().unzip()
}

/// The boxes of `c`, made pairwise disjoint: a fetch plan's precondition.
fn disjoint(c: &[Constraints]) -> Regions {
    subtract::disjoint_union(&c.iter().map(|c| c.aabb().clone()).collect::<Vec<Aabb>>())
}

/// Row ids and points of the coalescing planner over the same regions.
fn coalesced_fetch(table: &Table, regions: &Regions) -> (Vec<RowId>, Vec<Point>) {
    let (mut rows, _) = fetch(table, &FetchPlan::new(regions.clone()));
    rows.sort_by_key(|(id, _)| *id);
    rows.into_iter().unzip()
}

/// A box bounded in dimension `dim` alone, to `[a, b]` (either order).
fn slab(dim: usize, a: f64, b: f64) -> Constraints {
    let mut pairs = [(f64::NEG_INFINITY, f64::INFINITY); 3];
    pairs[dim] = (a.min(b), a.max(b));
    Constraints::from_pairs(&pairs).expect("ordered")
}

/// `regions` fetched one plan each, under `table`'s cost model: the summed
/// charge, and the summed charge with every region priced at the larger
/// of its charge and what the planner predicts for it alone (its probes
/// plus [`Table::predict_region`]).
fn one_by_one(table: &Table, regions: &Regions) -> (Duration, f64) {
    let model = table.config().cost_model;
    let (mut charged, mut priced) = (Duration::ZERO, 0.0);
    for region in regions.iter() {
        let alone = fetch(table, &FetchPlan::new(Regions::from_iter([region]))).1;
        let probes = (model.probe_ns * alone.stats.index_probes) as f64;
        let predicted = probes + table.predict_region(region).ns;
        charged += alone.simulated_latency;
        priced += predicted.max(alone.simulated_latency.as_nanos() as f64);
    }
    (charged, priced)
}

/// `n` points of the 1/16 grid in three dimensions, drawn from `seed`.
fn grid_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coord = || f64::from(rng.gen_range(0..=16u8)) / 16.0;
    (0..n).map(|_| Point::from(vec![coord(), coord(), coord()])).collect()
}

/// A plan where coalescing costs more than fetching alone, pinned: two
/// slabs of different dimensions, `x₀ ∈ [0.5, 0.75]` and
/// `x₁ ∈ [0.125, 0.5]`, carved by `subtract::disjoint_union` into the
/// first slab and the two pieces of the second on either side of it. The right piece is bounded in two dimensions; its bitmap AND is
/// estimated at 18.9 rows and matches 17. By that estimate one scan of
/// `x₀ ≥ 0.5` undercuts the piece's own range query plus the slab's, so
/// the planner merges the two; the merged scan pays its whole span, where
/// the piece alone pays only its matches. Predicted decides, actual pays
/// (DESIGN.md §12): the plan is charged 29.306 ms against 29.107 ms for
/// its regions fetched one by one. A planner that kept every plan no
/// dearer than its regions alone would turn the first assertion around;
/// what the planner does guarantee holds either way.
#[test]
fn a_bitmap_estimate_that_overshoots_makes_a_coalesced_plan_dearer() {
    let table = build_with(grid_points(200, 10), CostModel::default());
    let regions = disjoint(&[slab(0, 0.5, 0.75), slab(1, 0.125, 0.5)]);
    assert_eq!(regions.len(), 3);
    let piece: &[Interval] = &regions[2];
    assert_eq!((piece[0].lo(), piece[1].hi()), (0.75, 0.5), "the right piece of the x₁ slab");
    assert!((table.predict_region(piece).heap_fetches - 18.9).abs() < 1e-9);
    assert_eq!(
        fetch(&table, &FetchPlan::new(Regions::from_iter([piece]))).1.stats.heap_fetches,
        17
    );

    let (_, coalesced) = fetch(&table, &FetchPlan::new(regions.clone()));
    let (separate, priced) = one_by_one(&table, &regions);
    assert_eq!(coalesced.stats.regions_coalesced, 1);
    assert_eq!(
        (coalesced.simulated_latency.as_nanos(), separate.as_nanos()),
        (29_305_680, 29_107_360),
        "coalesced dearer than separate"
    );
    assert!(coalesced.simulated_latency.as_nanos() as f64 <= priced);
}

fn assert_same_rows_and_skyline(
    table: &Table,
    regions: &Regions,
) -> std::result::Result<(), TestCaseError> {
    let (naive_ids, naive_points) = naive_fetch(table, regions);
    let (plan_ids, plan_points) = coalesced_fetch(table, regions);
    // Exact same row set: the planner may reorder, but it can neither
    // drop nor double-fetch a row.
    prop_assert_eq!(&plan_ids, &naive_ids, "coalesced row ids diverge from naive fetch");
    prop_assert!(plan_ids.windows(2).all(|w| w[0] < w[1]), "a row was emitted twice");

    let naive_sky = sorted_points(Sfs.compute(naive_points).skyline);
    let plan_sky = sorted_points(Sfs.compute(plan_points).skyline);
    prop_assert_eq!(naive_sky, plan_sky, "skyline over fetched rows diverged");
    assert_accounting(table, regions)
}

/// The accounting half of the contract. `table` counts only
/// (`CostModel::free()`); its twin charges the default model.
fn assert_accounting(table: &Table, regions: &Regions) -> std::result::Result<(), TestCaseError> {
    let plan = FetchPlan::new(regions.clone());
    let (_, counted) = fetch(table, &plan);
    let (_, charged) = fetch(&build_with(table.all_points().to_vec(), CostModel::default()), &plan);
    prop_assert_eq!(counted.stats, charged.stats, "counters depend on whether latency is charged");
    prop_assert_eq!(counted.simulated_latency, std::time::Duration::ZERO);

    let s = charged.stats;
    prop_assert_eq!(charged.simulated_latency, CostModel::default().fetch_latency(&s));
    // A region is empty or ready.
    let ready = s.range_queries_issued - s.range_queries_empty;
    prop_assert!(s.range_queries_executed <= ready, "more range queries than ready regions");
    prop_assert_eq!(s.regions_coalesced, ready - s.range_queries_executed);
    Ok(())
}

proptest! {
    /// Arbitrary boxes, freely overlapping, abutting or nested, made
    /// disjoint.
    #[test]
    fn coalesced_fetch_matches_naive_on_random_regions(
        points in dataset(3),
        region_boxes in prop::collection::vec(constraints(3), 1..6),
    ) {
        let table = build(points);
        assert_same_rows_and_skyline(&table, &disjoint(&region_boxes))?;
    }

    /// Slabs of one dimension, made disjoint — still one bounded
    /// dimension each, so a region's predicted cost alone *is* what it is
    /// charged alone: the coalesced plan is never dearer than the cost
    /// model's charge for the same regions fetched one by one, one plan of
    /// one region each. (Carving slabs of two dimensions would leave
    /// pieces bounded in both, where a bitmap AND's estimate decides.)
    #[test]
    fn coalesced_slabs_never_cost_more_than_separate_ones(
        points in dataset(3),
        dim in 0..3usize,
        slabs in prop::collection::vec((coord(), coord()), 1..8),
    ) {
        let table = build_with(points, CostModel::default());
        let slabs: Vec<Constraints> = slabs.iter().map(|&(a, b)| slab(dim, a, b)).collect();
        let regions = disjoint(&slabs);
        let mut one_by_one = FetchStats::default();
        for region in regions.iter() {
            one_by_one += fetch(&table, &FetchPlan::new(Regions::from_iter([region]))).1.stats;
        }
        let separate = CostModel::default().fetch_latency(&one_by_one);
        let (_, coalesced) = fetch(&table, &FetchPlan::new(regions));
        prop_assert!(coalesced.simulated_latency <= separate);
    }

    /// Slabs of any dimension and arbitrary boxes, made disjoint: pieces
    /// bounded in two or three dimensions, where a bitmap AND's estimate
    /// may miss what it matches, so a coalesced plan can be charged more
    /// than its regions alone (pinned above). What the planner guarantees
    /// is the comparison it makes, by prediction: it merges regions only
    /// where one scan of their span is predicted cheaper than their own
    /// range queries, and a merged scan is charged exactly its
    /// prediction. So, each region priced at the larger of its charge and
    /// its prediction alone, the regions alone never cost less than their
    /// coalesced plan. (The slack covers float rounding in the sums.)
    #[test]
    fn a_coalesced_plan_is_never_dearer_by_prediction(
        points in dataset(3),
        slabs in prop::collection::vec((0..3usize, coord(), coord()), 1..8),
        boxes in prop::collection::vec(constraints(3), 0..3),
    ) {
        let table = build_with(points, CostModel::default());
        let mut all: Vec<Constraints> = slabs.iter().map(|&(dim, a, b)| slab(dim, a, b)).collect();
        all.extend(boxes);
        let regions = disjoint(&all);
        let (_, priced) = one_by_one(&table, &regions);
        let (_, coalesced) = fetch(&table, &FetchPlan::new(regions.clone()));
        let slack = regions.len() as f64;
        prop_assert!(coalesced.simulated_latency.as_nanos() as f64 <= priced + slack);
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
