//! Property tests for the cache-policy layer: under every replacement
//! policy (LRU, LCU) and with evictions firing along the way, a sequence
//! of queries answered through the cache must equal the from-scratch
//! answer, on random grids and on `tests/common`'s adversarial tables.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test code: a failed expectation fails the test"
)]

use proptest::prelude::*;

use skycache::algos::Sfs;
use std::cmp::Ordering;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skycache::core::{
    classify, is_stable, Cache, CacheItem, CbcsConfig, Overlap, QueryRequest, ReplacementPolicy,
    SearchStrategy, Service, ServiceConfig,
};
use skycache::geom::{Aabb, Constraints, Point};
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

/// A 3-d constraint box whose every bound may be unbounded (the wire
/// protocol's `*`): overlap areas of such boxes can be `inf`, or NaN
/// where a zero-width side meets an infinite one.
fn open_constraints() -> impl Strategy<Value = Constraints> {
    let lo = || prop_oneof![coord(), coord(), coord(), Just(f64::NEG_INFINITY)];
    let hi = || prop_oneof![coord(), coord(), coord(), Just(f64::INFINITY)];
    prop::collection::vec((lo(), hi()), 3).prop_map(|sides| {
        let (lo, hi): (Vec<f64>, Vec<f64>) =
            sides.into_iter().map(|(a, b)| (a.min(b), a.max(b))).unzip();
        Constraints::new(lo, hi).expect("ordered")
    })
}

/// The same box with every zero bound spelled the other way (`0.0` ↔
/// `-0.0`): numerically equal, bitwise different.
fn respell_zeros(c: &Constraints) -> Constraints {
    let flip = |v: &f64| if *v == 0.0 { -*v } else { *v };
    let lo: Vec<f64> = c.lo().iter().map(flip).collect();
    let hi: Vec<f64> = c.hi().iter().map(flip).collect();
    Constraints::new(lo, hi).expect("the same numbers stay ordered")
}

/// `rows` moved inside `c`'s closed box: a cached skyline lies inside its
/// constraints.
fn inside(c: &Constraints, rows: &[Vec<f64>]) -> Vec<Point> {
    let clamp = |row: &Vec<f64>| -> Vec<f64> {
        let sides = c.lo().iter().zip(c.hi());
        row.iter().zip(sides).map(|(v, (lo, hi))| v.clamp(*lo, *hi)).collect()
    };
    rows.iter().map(clamp).map(Point::from).collect()
}

/// Up to two 3-d rows: the points of a cached item.
fn item_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(coord(), 3), 0..3)
}

/// One change to a cache between two lookups.
#[derive(Clone, Debug)]
enum Change {
    /// `Cache::remove` of the item at this position of `iter()`.
    Remove(usize),
    /// `Cache::on_insert` of a data point: every item whose constraints
    /// it satisfies and whose skyline it is not dominated by moves its
    /// MBR.
    InsertPoint(Vec<f64>),
    /// `Cache::on_delete` of the first skyline row of the item at this
    /// position of `iter()`.
    DeletePoint(usize),
    /// `Cache::insert` of one more item (a `Cache` never evicts: that is
    /// the replacement record's, on a shared cache's master).
    NewItem(Constraints, Vec<Vec<f64>>),
}

fn change() -> impl Strategy<Value = Change> {
    let point = || prop::collection::vec(coord(), 3).prop_map(Change::InsertPoint);
    prop_oneof![
        (0..64usize).prop_map(Change::Remove),
        point(),
        point(),
        (0..64usize).prop_map(Change::DeletePoint),
        (open_constraints(), item_rows()).prop_map(|(c, rows)| Change::NewItem(c, rows)),
    ]
}

/// Applies `change` to `cache`.
fn apply(cache: &mut Cache, change: &Change) {
    let nth = |cache: &Cache, k: usize| cache.iter().nth(k % cache.len().max(1)).cloned();
    match change {
        Change::Remove(k) => {
            if let Some(item) = nth(cache, *k) {
                cache.remove(item.id);
            }
        }
        Change::InsertPoint(coords) => {
            cache.on_insert(&Point::from(coords.clone()));
        }
        Change::DeletePoint(k) => {
            if let Some(row) =
                nth(cache, *k).and_then(|it| it.skyline.rows().next().map(<[f64]>::to_vec))
            {
                cache.on_delete(&Point::from(row));
            }
        }
        Change::NewItem(c, rows) => {
            cache.insert(c.clone(), &inside(c, rows));
        }
    }
}

fn dataset(dims: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(coord(), dims), 1..200)
        .prop_map(|rows| rows.into_iter().map(Point::from).collect())
}

/// A table and a query sequence on its coordinates, at a dimensionality
/// from 2 to 6: the query count exceeds the smallest capacity below, so
/// evictions actually fire. Either random points on a 1/16 grid —
/// generated at d = 6 and projected down (the vendored proptest subset
/// has no `prop_flat_map`), half the scenarios storing every row twice so
/// each skyline row has a twin every path must keep — or one of
/// `tests/common`'s adversarial tables: twin rows, signed zeros, 1e17
/// ties or subnormals, the last two under the default cost model with
/// boxes open to ±∞ on some sides.
fn scenario() -> impl Strategy<Value = (Table, Vec<Constraints>)> {
    let adversarial = |table: fn(usize, usize, u64) -> Table,
                       boxes: fn(usize, usize, u64) -> Vec<Constraints>| {
        (2..=6usize, 1..150usize, 2..8usize, any::<u64>()).prop_map(
            move |(dims, n, queries, seed)| (table(dims, n, seed), boxes(dims, queries, seed ^ 1)),
        )
    };
    let grid = (2..=6usize, dataset(6), prop::collection::vec(constraints(6), 2..8), any::<bool>())
        .prop_map(|(dims, points, queries, twins)| {
            let copies = if twins { 2 } else { 1 };
            let points: Vec<Point> = points
                .into_iter()
                .flat_map(|p| vec![Point::from(p.coords()[..dims].to_vec()); copies])
                .collect();
            let queries: Vec<Constraints> = queries
                .into_iter()
                .map(|c| {
                    Constraints::new(c.lo()[..dims].to_vec(), c.hi()[..dims].to_vec())
                        .expect("prefix of an ordered box stays ordered")
                })
                .collect();
            (build(points), queries)
        });
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

fn policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop_oneof![Just(ReplacementPolicy::Lru), Just(ReplacementPolicy::Lcu)]
}

fn build(points: Vec<Point>) -> Table {
    Table::build(points, TableConfig { cost_model: CostModel::free() })
        .expect("generated data is valid")
}

fn reference(points: &[Point], c: &Constraints) -> Vec<Point> {
    let constrained: Vec<Point> = points.iter().filter(|p| c.satisfies(p)).cloned().collect();
    sorted(Sfs.compute(constrained).skyline)
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

/// An item's index box as the lookup defines it, derived from the
/// skyline the item holds: its MBR, or its constraint box when empty.
fn index_box(item: &CacheItem) -> Aabb {
    Aabb::bounding_rows(item.skyline.rows()).unwrap_or_else(|| item.constraints.aabb().clone())
}

/// The pick of the pipeline that sorted the lookup's candidates: `ids`
/// in cover order (index-box overlap with the query descending, then id
/// ascending), and the first maximum of the strategy's score in that
/// order — or, for `Random`, the seeded draw's index into it. Each score
/// is a comparison over boxes clamped to `bounds`, a cost compared in
/// reverse.
fn first_maximum(
    strategy: &SearchStrategy,
    cache: &Cache,
    ids: &[u64],
    new: &Constraints,
    bounds: &Aabb,
    rng: &mut StdRng,
) -> Option<u64> {
    let item = |id: u64| cache.get(id).expect("lookup ids are live");
    let area = |id: u64| index_box(item(id)).overlap_area(new.aabb());
    let mut ranked = ids.to_vec();
    ranked.sort_by(|&a, &b| area(b).total_cmp(&area(a)).then(a.cmp(&b)));
    if ranked.len() < 2 {
        return ranked.first().copied();
    }
    if *strategy == SearchStrategy::Random {
        return Some(ranked[rng.gen_range(0..ranked.len())]);
    }
    let clamp = |c: &Constraints| {
        let lo: Vec<f64> = c.lo().iter().zip(bounds.lo()).map(|(v, b)| v.max(*b)).collect();
        let sides = c.hi().iter().zip(bounds.hi()).zip(&lo);
        let hi: Vec<f64> = sides.map(|((v, b), l)| v.min(*b).max(*l)).collect();
        Aabb::new_unchecked(lo, hi)
    };
    let clamped_new = clamp(new);
    let overlap = |it: &CacheItem| clamp(&it.constraints).overlap_area(&clamped_new);
    let distance = |it: &CacheItem| -> f64 {
        let corner = clamp(&it.constraints);
        corner.lo().iter().zip(clamped_new.lo()).map(|(x, y)| (x - y) * (x - y)).sum()
    };
    let rank = |it: &CacheItem| match classify(&it.constraints, new) {
        Overlap::Exact => 0,
        Overlap::CaseB { .. } => 1,
        Overlap::CaseC { .. } => 2,
        Overlap::CaseA { .. } => 3,
        Overlap::GeneralStable => 4,
        Overlap::CaseD { .. } => 5,
        Overlap::GeneralUnstable => 6,
        Overlap::Disjoint => 7,
    };
    // One bound's change, priced `down` for a decrease and `up` for an increase.
    let change = |to: f64, from: f64, down: f64, up: f64| match to.partial_cmp(&from) {
        Some(Ordering::Less) => down,
        Some(Ordering::Greater) => up,
        _ => 0.0,
    };
    let penalty = |it: &CacheItem, w: &[f64; 4]| -> f64 {
        let (old, mut sum) = (&it.constraints, 0.0);
        for i in 0..old.dims() {
            sum += change(new.lo()[i], old.lo()[i], w[0], w[3]);
            sum += change(new.hi()[i], old.hi()[i], w[1], w[2]);
        }
        sum
    };
    let better = |a: &CacheItem, b: &CacheItem| -> Ordering {
        let by_overlap = || overlap(a).total_cmp(&overlap(b));
        match strategy {
            // Drawn above.
            SearchStrategy::Random => Ordering::Equal,
            SearchStrategy::MaxOverlap => by_overlap(),
            SearchStrategy::MaxOverlapSP => {
                let stable = |it: &CacheItem| is_stable(&it.constraints, new);
                stable(a).cmp(&stable(b)).then_with(by_overlap)
            }
            SearchStrategy::Prioritized1D => rank(b).cmp(&rank(a)).then_with(by_overlap),
            SearchStrategy::PrioritizedND { weights } => {
                penalty(b, weights).total_cmp(&penalty(a, weights)).then_with(by_overlap)
            }
            SearchStrategy::OptimumDistance => distance(b).total_cmp(&distance(a)),
        }
    };
    let mut best = ranked[0];
    for &id in &ranked[1..] {
        if better(item(id), item(best)).is_gt() {
            best = id;
        }
    }
    Some(best)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every (policy × capacity) cell answers every query in the
    /// sequence exactly like a from-scratch recompute — the same rows as
    /// often, each with its own bit pattern — no matter which items the
    /// policy evicted in between. Each query is followed by its
    /// refinement that only flips its zero bounds between `0.0` and
    /// `-0.0`: that classifies as unchanged against the query, and
    /// answers like a recompute too.
    #[test]
    fn every_policy_and_capacity_equals_naive(
        scenario in scenario(),
        policy in policy(),
        capacity in prop_oneof![Just(None), Just(Some(2usize)), Just(Some(4usize))],
    ) {
        let (table, queries) = scenario;
        let points = table.all_points();
        let config = CbcsConfig { policy, capacity, ..Default::default() };
        let service = Service::open(&table, ServiceConfig::with_cbcs(config));
        let mut ex = service.session();
        for (i, c) in queries.iter().enumerate() {
            let want = bits(reference(points, c));
            let got = ex.execute(&QueryRequest::new(c.clone())).unwrap().skyline;
            prop_assert_eq!(bits(got), want.clone(), "query {}", i);
            let respelled = respell_zeros(c);
            prop_assert_eq!(classify(c, &respelled), Overlap::Exact);
            let got = ex.execute(&QueryRequest::new(respelled)).unwrap().skyline;
            prop_assert_eq!(bits(got), want, "query {} respelled", i);
        }
    }

    /// `lookup_into` is exact first. With no item cached under the query's
    /// own constraints its candidates must be the items the reference
    /// finds by scanning every item: those whose index box meets the
    /// query, as a set (the walk's order is the tree's; ranking them is
    /// `select_indexed`'s, checked below). With one or more such items —
    /// found here by scanning `iter()` for numerically equal constraints —
    /// the answer is the lowest of their ids and nothing else, however
    /// the query spells its zeros. Items without points are found by
    /// their — possibly unbounded — constraint box. Between lookups the
    /// cache changes: items are added, removed (as an eviction removes
    /// them), dropped by a deleted point, or see their skyline — and with
    /// it their MBR — change under an inserted one; the reference derives
    /// every index box from the skyline the item holds at that moment.
    #[test]
    fn lookup_candidates_match_the_per_item_reference(
        items in prop::collection::vec((open_constraints(), item_rows()), 1..40),
        steps in prop::collection::vec(
            (open_constraints(), prop::collection::vec(change(), 0..4)),
            1..8,
        ),
        repeat in 0..40usize,
    ) {
        let mut cache = Cache::new(3);
        for (c, rows) in &items {
            cache.insert(c.clone(), &inside(c, rows));
        }
        // Two last queries repeat a box, one of them with the other
        // spelling of every zero bound; that box is cached (again, if it
        // still is) without points just before them, so the repeats meet
        // duplicates.
        let repeated = items[repeat % items.len()].0.clone();
        let repeats = [
            (repeated.clone(), vec![Change::NewItem(repeated.clone(), vec![])]),
            (respell_zeros(&repeated), vec![]),
        ];
        let mut ids = Vec::new();
        for (q, changes) in steps.iter().chain(&repeats) {
            for change in changes {
                apply(&mut cache, change);
            }
            let stats = cache.lookup_into(q, &mut ids);
            let query = q.aabb();
            let exact =
                cache.iter().filter(|it| it.constraints.aabb() == query).map(|it| it.id).min();
            if let Some(lowest) = exact {
                prop_assert_eq!(&ids, &vec![lowest]);
                prop_assert_eq!(stats.scans, 1);
                continue;
            }
            let want: Vec<u64> =
                cache.iter().filter(|it| index_box(it).intersects(query)).map(|it| it.id).collect();
            let mut found = ids.clone();
            found.sort_unstable();
            prop_assert_eq!(&found, &want);
            prop_assert_eq!(stats.scans, want.len() as u64);
        }
        prop_assert_eq!(cache.lookup_into(&repeated, &mut ids).scans, 1, "the repeat is exact");
    }

    /// `select_indexed` ranks the candidates itself: over the lookup's
    /// candidates shuffled, every strategy picks what [`first_maximum`]
    /// picks from them in cover order, `Random` with the same seed as
    /// the reference. Same generators and cache changes as above.
    #[test]
    fn every_strategy_picks_the_first_maximum_in_cover_order(
        items in prop::collection::vec((open_constraints(), item_rows()), 1..40),
        steps in prop::collection::vec(
            (open_constraints(), prop::collection::vec(change(), 0..4)),
            1..8,
        ),
        seed in any::<u64>(),
    ) {
        let mut cache = Cache::new(3);
        for (c, rows) in &items {
            cache.insert(c.clone(), &inside(c, rows));
        }
        let bounds = Aabb::new(vec![0.0; 3], vec![1.0; 3]).expect("the unit cube");
        let mut ids = Vec::new();
        for (q, changes) in &steps {
            for change in changes {
                apply(&mut cache, change);
            }
            cache.lookup_into(q, &mut ids);
            let mut shuffled = ids.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            let item = |id: u64| cache.get(id).expect("lookup ids are live");
            for strategy in [
                SearchStrategy::Random,
                SearchStrategy::MaxOverlap,
                SearchStrategy::MaxOverlapSP,
                SearchStrategy::Prioritized1D,
                SearchStrategy::prioritized_nd_std(),
                SearchStrategy::prioritized_nd_bad(),
                SearchStrategy::OptimumDistance,
            ] {
                let mut rng = StdRng::seed_from_u64(seed);
                let got = strategy
                    .select_indexed(shuffled.len(), |i| item(shuffled[i]), q, &bounds, &mut rng)
                    .map(|i| shuffled[i]);
                let mut rng = StdRng::seed_from_u64(seed);
                let want = first_maximum(&strategy, &cache, &ids, q, &bounds, &mut rng);
                prop_assert_eq!(got, want, "{}", strategy.label());
            }
        }
    }

    /// The exact path against the slow path, through a session: before
    /// each query the test finds the exact item itself, by scanning the
    /// service's cache for numerically equal constraints, and the
    /// outcome must be what that scan predicts — `Overlap::Exact` and the
    /// item's own skyline with nothing read when there is one, any other
    /// case when there is none (never cached, or evicted since, under
    /// each of the two policies) — and the from-scratch skyline either
    /// way. Every answer that was computed is then cached under the
    /// query's constraints: the cache stores what it computes, and the
    /// newest item is never the one evicted. An answer the indexes prove
    /// empty is not computed, and leaves the cache untouched: nothing
    /// published, nothing touched. The pool is small, so queries repeat;
    /// a repeat may spell its zero bounds the other way; bounds may be
    /// unbounded and regions empty.
    #[test]
    fn an_exact_hit_is_what_a_scan_for_equal_constraints_predicts(
        points in dataset(3),
        pool in prop::collection::vec(open_constraints(), 2..6),
        picks in prop::collection::vec((0..6usize, any::<bool>()), 4..24),
        policy in policy(),
        capacity in prop_oneof![Just(None), Just(Some(2usize))],
    ) {
        let table = build(points.clone());
        let config = CbcsConfig { policy, capacity, ..Default::default() };
        let service = Service::open(&table, ServiceConfig::with_cbcs(config));
        let mut ex = service.session();
        // What a query can change in the cache: publications and touches.
        let writes = || {
            (service.cache().epoch(), service.cache().touches())
        };
        for (pick, respell) in picks {
            let q = &pool[pick % pool.len()];
            let q = if respell { respell_zeros(q) } else { q.clone() };
            let predicted: Option<Vec<Point>> = service
                .cache()
                .snapshot()
                .iter()
                .filter(|it| it.constraints.aabb() == q.aabb())
                .min_by_key(|it| it.id)
                .map(|it| it.skyline.to_points());
            let before: (u64, u64) = writes();
            let out = ex.execute(&QueryRequest::new(q.clone())).unwrap();
            prop_assert_eq!(out.stats.case == Some(Overlap::Exact), predicted.is_some());
            prop_assert_eq!(out.text.is_some(), predicted.is_some());
            if let Some(cached) = predicted {
                prop_assert!(out.stats.cache_hit);
                prop_assert_eq!(out.stats.points_read, 0);
                prop_assert_eq!(sorted(out.skyline.clone()), sorted(cached));
            } else if out.stats.negative_hits == 1 {
                prop_assert_eq!(writes(), before, "a proven-empty answer wrote to the cache");
            } else {
                let snapshot = service.cache().snapshot();
                let stored = snapshot.iter().any(|it| it.constraints.aabb() == q.aabb());
                prop_assert!(stored, "a computed answer was not cached");
            }
            prop_assert_eq!(sorted(out.skyline), reference(&points, &q));
        }
    }
}
