//! Property tests for the cache-policy layer: under every replacement
//! policy (LRU, LCU) and with evictions firing along the way, a sequence
//! of queries answered through the cache must equal the from-scratch
//! answer.

use proptest::prelude::*;

use skycache::algos::Sfs;
use skycache::core::{
    Cache, CbcsConfig, Overlap, QueryRequest, ReplacementPolicy, Service, ServiceConfig,
};
use skycache::geom::{Constraints, Point};
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

fn dataset(dims: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(coord(), dims), 1..200)
        .prop_map(|rows| rows.into_iter().map(Point::from).collect())
}

/// Dimensionality plus matching dataset and query sequence: the query
/// count exceeds the smallest capacity below, so evictions actually
/// fire. Generated at d = 6 and
/// projected down to the sampled dimensionality (the vendored proptest
/// subset has no `prop_flat_map`). The grid coordinates already collide;
/// half the scenarios also store every row twice, so each skyline row has
/// a twin every path must keep.
fn scenario() -> impl Strategy<Value = (Vec<Point>, Vec<Constraints>)> {
    (2..=6usize, dataset(6), prop::collection::vec(constraints(6), 2..8), any::<bool>()).prop_map(
        |(dims, points, queries, twins)| {
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
            (points, queries)
        },
    )
}

fn policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop_oneof![Just(ReplacementPolicy::Lru), Just(ReplacementPolicy::Lcu)]
}

fn build(points: Vec<Point>) -> Table {
    Table::build(points, TableConfig { cost_model: CostModel::free(), ..Default::default() })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every (policy × capacity) cell answers every query in the
    /// sequence exactly like a from-scratch recompute — the same rows as
    /// often — no matter which items the policy evicted in between.
    #[test]
    fn every_policy_and_capacity_equals_naive(
        scenario in scenario(),
        policy in policy(),
        capacity in prop_oneof![Just(None), Just(Some(2usize)), Just(Some(4usize))],
    ) {
        let (points, queries) = scenario;
        let table = build(points.clone());
        let config = CbcsConfig { policy, capacity, ..Default::default() };
        let service = Service::open(&table, ServiceConfig::with_cbcs(config));
        let mut ex = service.session();
        for c in &queries {
            let got = ex.execute(&QueryRequest::new(c.clone())).unwrap().skyline;
            prop_assert_eq!(sorted(got), reference(&points, c));
        }
    }

    /// `lookup_into` is exact first. With no item cached under the query's
    /// own constraints it ranks every candidate once and sorts the
    /// decorated list, and the order must be the one the retired
    /// comparator produced, which went back to the cache for both sides of
    /// every comparison: descending overlap area of index box and query
    /// (`total_cmp`, so `inf` and NaN have a place), then ascending id.
    /// With one or more such items — found here by scanning `iter()` for
    /// numerically equal constraints — the answer is the lowest of their
    /// ids and nothing else, however the query spells its zeros. Items
    /// without points are indexed by their — possibly unbounded —
    /// constraint box.
    #[test]
    fn lookup_order_matches_the_per_comparison_comparator(
        items in prop::collection::vec(
            (open_constraints(), prop::collection::vec(prop::collection::vec(coord(), 3), 0..3)),
            1..40,
        ),
        queries in prop::collection::vec(open_constraints(), 1..6),
        repeat in 0..40usize,
    ) {
        let mut cache = Cache::new(3);
        for (c, rows) in &items {
            // A cached skyline lies inside its constraints.
            let inside = |row: &Vec<f64>| -> Vec<f64> {
                let sides = c.lo().iter().zip(c.hi());
                row.iter().zip(sides).map(|(v, (lo, hi))| v.clamp(*lo, *hi)).collect()
            };
            let skyline: Vec<Point> = rows.iter().map(inside).map(Point::from).collect();
            cache.insert(c.clone(), &skyline);
        }
        // Two queries repeat a cached box, one of them with the other
        // spelling of every zero bound; that box is cached a second time,
        // without points, so the repeats meet duplicates.
        let repeated = items[repeat % items.len()].0.clone();
        cache.insert(repeated.clone(), &[]);
        let respelled = respell_zeros(&repeated);
        let mut ids = Vec::new();
        for q in queries.iter().chain([&repeated, &respelled]) {
            let stats = cache.lookup_into(q, &mut ids);
            let query = q.aabb();
            let exact =
                cache.iter().filter(|it| it.constraints.aabb() == query).map(|it| it.id).min();
            if let Some(lowest) = exact {
                prop_assert_eq!(&ids, &vec![lowest]);
                prop_assert_eq!(stats.scans, 1);
                continue;
            }
            let index_box = |id: u64| {
                let item = cache.get(id).expect("lookup ids are live");
                item.mbr.clone().unwrap_or_else(|| item.constraints.aabb().clone())
            };
            let area = |id: u64| index_box(id).overlap_area(query);
            let mut want: Vec<u64> =
                cache.iter().map(|it| it.id).filter(|&id| index_box(id).intersects(query)).collect();
            want.sort_by(|&a, &b| area(b).total_cmp(&area(a)).then_with(|| a.cmp(&b)));
            prop_assert_eq!(&ids, &want);
        }
        prop_assert_eq!(cache.lookup_into(&repeated, &mut ids).scans, 1, "the repeat is exact");
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
            let touches = service.cache().with_read(|c| c.iter().map(|it| it.use_count).sum());
            (service.cache().epoch(), touches)
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
