//! History independence of the service under dynamic data (paper
//! Section 6.2): an answer is a function of the live table and the cache
//! alone, not of the writes that made the table what it is.
//!
//! Over random tables T — the shared adversarial inputs among them — with
//! writes W and query lists Q1 and Q2, two services are compared:
//!
//! - A opens over T, runs Q1, applies W through `Service`, then runs Q2;
//! - B opens over T after W, then runs Q1 and Q2.
//!
//! Whenever A still holds the items Q1 cached in B, each query of Q2 must
//! agree between A and B on the answer, the case, the chosen item's
//! constraints, the plan's regions and every `FetchStats` counter (and
//! every other deterministic counter of `QueryStats`). B's table is T
//! with W applied through `Table`, so both carry the bucket-sketch splits
//! T was built with (DESIGN.md §12): a table rebuilt from the live rows
//! could admit other candidates to the fetch walk, though no counter.
//!
//! The chosen item and the plan are read by running the service's choice
//! again on the snapshot each service answers from — the strategy clamped
//! to the table's live-rows box, the case analysis — and the service's
//! own case and plan size must match them. Each T holds two rows far out
//! in one dimension that W deletes, so a box that remembered them would
//! score A's candidates against other bounds than B's.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test code: a failed expectation fails the test"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skycache::core::{
    cases, Cache, CbcsConfig, MprMode, QueryOutcome, QueryRequest, QueryStats, SearchStrategy,
    Service, ServiceConfig,
};
use skycache::geom::{Aabb, Constraints, Point};
use skycache::storage::{RowId, Table};

#[allow(dead_code, reason = "each suite uses its own part of the shared inputs")]
mod common;

/// A write of W.
#[derive(Clone, Debug)]
enum Write {
    Insert(Point),
    Delete(RowId),
}

/// The strategies that score their candidates: all but `Random`, whose
/// draw the replayed choice could not repeat.
fn strategies() -> [SearchStrategy; 5] {
    [
        SearchStrategy::MaxOverlap,
        SearchStrategy::MaxOverlapSP,
        SearchStrategy::Prioritized1D,
        SearchStrategy::prioritized_nd_std(),
        SearchStrategy::OptimumDistance,
    ]
}

/// The base tables and their query boxes, for one seed and dimensionality.
fn inputs(dims: usize, seed: u64) -> Vec<(&'static str, Table, Vec<Constraints>)> {
    let plain = |cell: u8| f64::from(cell);
    let q = 10;
    vec![
        ("twins", common::twin_grid_table(dims, 40, seed), common::grid_boxes(dims, q, seed + 1)),
        (
            "signed zeros",
            common::signed_zero_table(dims, 40, seed),
            common::signed_zero_boxes(dims, q, seed + 1),
        ),
        (
            "plain grid",
            common::coord_table(dims, 120, seed, plain),
            common::open_sided_boxes(dims, q, seed + 1, plain),
        ),
        (
            "1e17 ties",
            common::coord_table(dims, 120, seed, common::huge),
            common::open_sided_boxes(dims, q, seed + 1, common::huge),
        ),
        (
            "subnormals",
            common::coord_table(dims, 120, seed, common::subnormal),
            common::open_sided_boxes(dims, q, seed + 1, common::subnormal),
        ),
    ]
}

/// `base` with two rows appended, copies of random rows moved far out in
/// dimension 0: they are T's last two rows.
fn with_far_rows(base: &Table, rng: &mut StdRng) -> Table {
    let mut points = base.all_points().to_vec();
    let bounds = Aabb::bounding(&points).unwrap();
    let (lo, hi) = (bounds.lo()[0], bounds.hi()[0]);
    for step in [4.0, 9.0] {
        let mut coords = points[rng.gen_range(0..points.len())].coords().to_vec();
        coords[0] = hi + step * (hi - lo) + 1.0;
        points.push(Point::from(coords));
    }
    Table::build(points, *base.config()).unwrap()
}

/// W over `t`: the two far rows' deletes among random deletes and
/// inserts. An inserted row mixes the coordinates of two live rows, so it
/// lies on the table's grid, zeros' signs included.
fn writes(t: &Table, rng: &mut StdRng) -> Vec<Write> {
    let slots = t.slot_count() as RowId;
    let mut w = vec![Write::Delete(slots - 1), Write::Delete(slots - 2)];
    for _ in 0..rng.gen_range(0..6) {
        let write = if rng.gen_bool(0.5) {
            Write::Delete(rng.gen_range(0..slots - 2))
        } else {
            let (a, b) = (t.point(rng.gen_range(0..slots - 2)), t.point(rng.gen_range(0..slots)));
            let coords = a.coords().iter().zip(b.coords());
            let coords = coords.map(|(&x, &y)| [x, y][rng.gen_range(0..2)]);
            Write::Insert(Point::from(coords.collect::<Vec<_>>()))
        };
        w.insert(rng.gen_range(0..=w.len()), write);
    }
    w
}

/// The cached items, by id: constraints and skyline rows as bits, the
/// rows sorted (a folded insert appends, a fresh skyline is SFS-ordered).
fn items(service: &Service<'_>) -> Vec<(u64, String, Vec<Vec<u64>>)> {
    let cache = service.cache().snapshot();
    let mut items: Vec<_> = cache
        .iter()
        .map(|item| {
            let mut rows: Vec<Vec<u64>> =
                item.skyline.rows().map(|row| row.iter().map(|c| c.to_bits()).collect()).collect();
            rows.sort();
            (item.id, format!("{:?}", item.constraints), rows)
        })
        .collect();
    items.sort_by_key(|item| item.0);
    items
}

/// The service's choice, replayed on `cache`: the chosen item's
/// constraints and its plan's case and regions, or `None` for a miss.
fn replay(
    cache: &Cache,
    table: &Table,
    c: &Constraints,
    strategy: &SearchStrategy,
    mpr: MprMode,
) -> Option<(String, String, usize)> {
    let mut ids = Vec::new();
    cache.lookup_into(c, &mut ids);
    let (lo, hi): (Vec<f64>, Vec<f64>) = table.live_bounds().unzip();
    let bounds = Aabb::new_unchecked(lo, hi);
    let item = |i: usize| cache.get(ids[i]).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    let picked = item(strategy.select_indexed(ids.len(), item, c, &bounds, &mut rng)?);
    let plan = cases::plan(&picked.constraints, &picked.skyline, c, mpr);
    let regions = format!("{:?} {:?}", plan.overlap, plan.regions);
    Some((format!("{:?}", picked.constraints), regions, plan.regions.len()))
}

/// Every deterministic counter of a query's stats: `FetchStats`'s, the
/// simulated fetch time, and the cache, plan and skyline counters.
fn counters(s: &QueryStats) -> [u64; 17] {
    [
        s.points_read,
        s.heap_fetches,
        s.range_queries_issued,
        s.range_queries_executed,
        s.range_queries_empty,
        s.regions_coalesced,
        s.index_probes,
        s.index_entries_scanned,
        s.fetch_sim_ns,
        s.dominance_tests,
        s.candidates as u64,
        s.retained_points,
        s.removed_points,
        s.mpr_regions,
        s.mpr_prune_points,
        s.mpr_invalidated_pieces,
        s.negative_hits,
    ]
}

/// The answer as a multiset of rows, bit for bit.
fn answer(outcome: &QueryOutcome) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> =
        outcome.skyline.iter().map(|p| p.coords().iter().map(|c| c.to_bits()).collect()).collect();
    rows.sort();
    rows
}

/// Runs one query on `service`, beside the replayed choice.
fn run(service: &Service<'_>, c: &Constraints) -> (QueryOutcome, Option<(String, String, usize)>) {
    let table = service.table();
    let config = &service.config().cbcs;
    let choice = (!table.probe_region_empty(&c.region()))
        .then(|| replay(&service.cache().snapshot(), table, c, &config.strategy, config.mpr))
        .flatten();
    (service.session().execute(&QueryRequest::new(c.clone())).unwrap(), choice)
}

/// The service answered through the replayed choice: the same case, and
/// as many plan regions.
fn agrees(outcome: &QueryOutcome, choice: &Option<(String, String, usize)>) -> bool {
    match choice {
        None => outcome.stats.case.is_none(),
        Some((_, regions, n)) => outcome.stats.case.is_some_and(|case| {
            regions.starts_with(&format!("{case:?} ")) && outcome.stats.mpr_regions == *n as u64
        }),
    }
}

/// The property over one table, strategy and seed. Returns whether A
/// still held B's items, and the queries of Q2 that scored two or more
/// candidates.
fn check(name: &str, t: &Table, boxes: &[Constraints], cbcs: CbcsConfig, seed: u64) -> (bool, u32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = writes(t, &mut rng);
    let split = rng.gen_range(2..boxes.len() - 1);
    let (q1, q2) = boxes.split_at(split);
    let config = || ServiceConfig::with_cbcs(cbcs.clone());

    let mut a = Service::open(t.clone(), config());
    for c in q1 {
        a.session().execute(&QueryRequest::new(c.clone())).unwrap();
    }
    let mut after = t.clone();
    for write in &w {
        match write {
            Write::Insert(p) => {
                a.insert(p.clone()).unwrap();
                after.insert(p.clone()).unwrap();
            }
            Write::Delete(row) => {
                a.delete(*row);
                after.delete(*row);
            }
        }
    }
    let b = Service::open(after, config());
    for c in q1 {
        b.session().execute(&QueryRequest::new(c.clone())).unwrap();
    }
    if items(&a) != items(&b) {
        return (false, 0);
    }

    let mut scored = 0;
    for (i, c) in q2.iter().enumerate() {
        let ctx =
            format!("{name}, {}, seed {seed}, Q2[{i}] = {c:?}, W = {w:?}", cbcs.strategy.label());
        let ((oa, choice_a), (ob, choice_b)) = (run(&a, c), run(&b, c));
        assert_eq!(answer(&oa), answer(&ob), "answer: {ctx}");
        assert_eq!(oa.stats.case, ob.stats.case, "case: {ctx}");
        assert_eq!(choice_a, choice_b, "chosen item and plan regions: {ctx}");
        assert_eq!(counters(&oa.stats), counters(&ob.stats), "counters: {ctx}");
        assert!(agrees(&oa, &choice_a), "the service's choice is the replayed one: {ctx}");
        scored += u32::from(oa.stats.candidates > 1);
    }
    (true, scored)
}

#[test]
fn answers_depend_on_the_live_table_not_on_its_history() {
    let (mut held, mut scored, mut runs) = (0, 0, 0);
    for dims in 2..=3 {
        for seed in 0..4 {
            for (name, base, boxes) in inputs(dims, 100 * seed + dims as u64) {
                let t = with_far_rows(&base, &mut StdRng::seed_from_u64(seed));
                for (k, strategy) in strategies().into_iter().enumerate() {
                    let cbcs = CbcsConfig { strategy, ..CbcsConfig::default() };
                    let (h, s) = check(name, &t, &boxes, cbcs, 10 * seed + k as u64);
                    runs += 1;
                    held += u32::from(h);
                    scored += s;
                }
            }
        }
    }
    assert!(held * 2 > runs, "A must usually keep B's items: {held} of {runs}");
    assert!(scored > 100, "Q2 must score candidates: {scored} queries scored");
}
