//! Property tests for the storage engine: every plan the executor may
//! choose (single-index scan, bitmap AND, a scan of a whole index,
//! empty-query detection) must return exactly the brute-force filter
//! result, and the accounting must obey its invariants — under arbitrary
//! regions, endpoint openness, dimensionalities and table mutations.

use proptest::prelude::*;

use skycache_geom::rect::contains;
use skycache_geom::{subtract, Interval, Point, Regions};
use skycache_storage::{FetchOutcome, FetchPlan, FetchScratch, Table, TableConfig};

const DIMS: usize = 3;

fn coord() -> impl Strategy<Value = f64> {
    (0..=10u8).prop_map(f64::from)
}

fn point() -> impl Strategy<Value = Point> {
    prop::collection::vec(coord(), DIMS).prop_map(Point::from)
}

fn dataset() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(point(), 1..200)
}

fn interval() -> impl Strategy<Value = Interval> {
    (coord(), coord(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |(a, b, lo_open, hi_open, unbounded)| {
            if unbounded {
                Interval::closed(f64::NEG_INFINITY, f64::INFINITY)
            } else {
                Interval::new(a.min(b), a.max(b), lo_open, hi_open)
            }
        },
    )
}

fn region() -> impl Strategy<Value = Vec<Interval>> {
    prop::collection::vec(interval(), DIMS)
}

/// [`region`]'s intervals mixed with the bounds it never draws:
/// degenerate ones (a single key, or empty by an open end) and sides open
/// at ±∞.
fn edge_region() -> impl Strategy<Value = Vec<Interval>> {
    let edge =
        (coord(), any::<bool>(), any::<bool>(), 0..4u8).prop_map(|(a, lo_open, hi_open, shape)| {
            match shape {
                0 => Interval::new(a, a, lo_open, hi_open),
                1 => Interval::new(f64::NEG_INFINITY, a, true, hi_open),
                2 => Interval::new(a, f64::INFINITY, lo_open, true),
                _ => Interval::new(f64::NEG_INFINITY, f64::INFINITY, lo_open, hi_open),
            }
        });
    prop::collection::vec(prop_oneof![interval(), edge], DIMS)
}

/// The row ids one plan fetches, in emission order, and its outcome.
fn fetch(table: &Table, plan: &FetchPlan) -> (Vec<u32>, FetchOutcome) {
    let mut scratch = FetchScratch::new();
    let outcome = table.fetch_plan_into(plan, &mut scratch);
    (scratch.rows().ids().to_vec(), outcome)
}

/// The row ids of one region fetched by a plan of its own, and the outcome.
fn fetch_one(table: &Table, region: &[Interval]) -> (Vec<u32>, FetchOutcome) {
    fetch(table, &FetchPlan::new(Regions::from_iter([region])))
}

/// The widest table of the mutation test; narrower ones use a prefix.
const WIDE_DIMS: usize = 10;

/// Small integers (so keys tie), both zeros, and values far outside what
/// an initial dataset is likely to span.
fn signed_coord() -> impl Strategy<Value = f64> {
    (0..=15u8).prop_map(|v| match v {
        11 => -0.0,
        12 => -1.5,
        13 => 2.5,
        14 => -40.0,
        15 => 100.0,
        v => f64::from(v),
    })
}

fn wide_point() -> impl Strategy<Value = Point> {
    prop::collection::vec(signed_coord(), WIDE_DIMS).prop_map(Point::from)
}

fn wide_region() -> impl Strategy<Value = Vec<Interval>> {
    let interval = (signed_coord(), signed_coord(), any::<bool>(), any::<bool>(), 0..6u8).prop_map(
        |(a, b, lo_open, hi_open, shape)| match shape {
            0 | 1 => Interval::closed(f64::NEG_INFINITY, f64::INFINITY),
            2 => Interval::new(f64::NEG_INFINITY, b, false, hi_open),
            3 => Interval::new(a, f64::INFINITY, lo_open, false),
            _ => Interval::new(a.min(b), a.max(b), lo_open, hi_open),
        },
    );
    prop::collection::vec(interval, WIDE_DIMS)
}

/// `regions` made pairwise disjoint, as a fetch plan's regions must be:
/// each one minus the closed hulls of those before it.
fn disjoint(regions: &[&[Interval]]) -> Regions {
    let mut out = Regions::default();
    for (k, region) in regions.iter().enumerate() {
        let mut pieces = Regions::from_iter([*region]);
        for prev in &regions[..k] {
            let (lo, hi): (Vec<f64>, Vec<f64>) = prev.iter().map(|iv| (iv.lo(), iv.hi())).unzip();
            let mut next = Regions::default();
            for piece in pieces.iter() {
                subtract::carve(piece, &lo, &hi, &mut next);
            }
            pieces = next;
        }
        out.extend(pieces.iter());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// fetch == brute-force filter, for every plan shape.
    #[test]
    fn fetch_matches_bruteforce(points in dataset(), region in region()) {
        let table = Table::build(points.clone(), TableConfig::default()).unwrap();
        let (mut got, result) = fetch_one(&table, &region);
        let fetched = got.len();
        got.sort_unstable();
        let mut want: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| contains(&region, p.coords()))
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);

        // Accounting invariants.
        let s = &result.stats;
        prop_assert_eq!(s.points_read as usize, fetched);
        prop_assert!(s.heap_fetches >= s.points_read);
        prop_assert_eq!(s.range_queries_issued, 1);
        prop_assert_eq!(s.range_queries_executed + s.range_queries_empty, 1);
        if s.range_queries_empty == 1 {
            prop_assert_eq!(fetched, 0);
            prop_assert_eq!(s.heap_fetches, 0);
        }
        prop_assert_eq!(
            result.simulated_latency,
            table.config().cost_model.fetch_latency(s)
        );
    }

    /// Empty-query detection never fires on a region that has matches.
    #[test]
    fn empty_detection_is_sound(points in dataset(), region in region()) {
        let table = Table::build(points.clone(), TableConfig::default()).unwrap();
        let (_, result) = fetch_one(&table, &region);
        if result.stats.range_queries_empty == 1 {
            prop_assert!(
                points.iter().all(|p| !contains(&region, p.coords())),
                "empty detection discarded a non-empty query"
            );
        }
    }

    /// The three readers of a region's one plan agree: the emptiness
    /// probe, the prediction and a fetch of the region alone prove it
    /// empty together or not at all, and a fetch charged a scan — one heap
    /// fetch per index entry, as every region that is no bitmap AND is,
    /// a region that bounds no dimension among them — fetches the rows
    /// predicted.
    #[test]
    #[expect(clippy::float_cmp, reason = "a scan's prediction is an exact row count")]
    fn probe_prediction_and_fetch_agree(points in dataset(), region in edge_region()) {
        let table = Table::build(points, TableConfig::default()).unwrap();
        let empty = table.probe_region_empty(&region);
        let predicted = table.predict_region(&region);
        let (_, result) = fetch_one(&table, &region);
        let s = &result.stats;
        prop_assert_eq!(predicted.range_queries == 0, empty);
        prop_assert_eq!(s.range_queries_empty == 1, empty);
        if s.index_entries_scanned == s.heap_fetches {
            prop_assert_eq!(predicted.heap_fetches, s.heap_fetches as f64);
        }
    }

    /// After arbitrary *interleaved* insert/delete churn, fetch still
    /// equals the filter over the live set — at every dimensionality the
    /// bucket sketch covers fully (1..=8) or in part (9, 10), with keys the
    /// splits were never built from (inserts beyond the initial range,
    /// both zeros), and with the rows a region admits spread over several
    /// disjoint regions of one plan. A sketch false negative is a row
    /// missing here.
    #[test]
    fn mutations_preserve_fetch_semantics(
        dims in 1..=WIDE_DIMS,
        initial in prop::collection::vec(wide_point(), 1..200),
        ops in prop::collection::vec((any::<bool>(), wide_point(), any::<u16>()), 0..60),
        regions in prop::collection::vec(wide_region(), 1..4),
    ) {
        let cut = |p: &Point| Point::from(p.coords()[..dims].to_vec());
        let regions = disjoint(&regions.iter().map(|r| &r[..dims]).collect::<Vec<_>>());
        let initial: Vec<Point> = initial.iter().map(cut).collect();
        let mut table = Table::build(initial.clone(), TableConfig::default()).unwrap();
        let mut model: Vec<(u32, Point)> = (0..).zip(initial).collect();

        for (insert, point, pick) in &ops {
            if *insert || model.is_empty() {
                let row = table.insert(cut(point)).unwrap();
                model.push((row, cut(point)));
            } else {
                let (row, _) = model.swap_remove(*pick as usize % model.len());
                prop_assert!(table.delete(row).is_some());
            }
        }
        prop_assert_eq!(table.len(), model.len());

        let sorted = |mut ids: Vec<u32>| {
            ids.sort_unstable();
            ids
        };
        let mut in_any = Vec::new(); // each row once: the regions are disjoint
        for region in regions.iter() {
            let (got, _) = fetch_one(&table, region);
            let want: Vec<u32> = table
                .live_points()
                .filter(|(_, p)| contains(region, p.coords()))
                .map(|(row, _)| row)
                .collect();
            let from_model =
                model.iter().filter(|(_, p)| contains(region, p.coords())).map(|(row, _)| *row);
            prop_assert_eq!(&sorted(from_model.collect()), &want);
            prop_assert_eq!(sorted(got), want.clone());
            in_any.extend(want);
        }
        let (coalesced, _) = fetch(&table, &FetchPlan::new(regions));
        prop_assert_eq!(sorted(coalesced), sorted(in_any));
    }

    /// Save/load roundtrips arbitrary mutated tables bit-exactly.
    #[test]
    fn persistence_roundtrip(
        initial in dataset(),
        delete_picks in prop::collection::vec(any::<u16>(), 0..10),
        region in region(),
    ) {
        let mut table = Table::build(initial.clone(), TableConfig::default()).unwrap();
        let mut rows: Vec<u32> = (0..initial.len() as u32).collect();
        for pick in &delete_picks {
            if rows.is_empty() {
                break;
            }
            let idx = *pick as usize % rows.len();
            table.delete(rows.swap_remove(idx)).unwrap();
        }

        let path = std::env::temp_dir().join(format!(
            "skycache-prop-{}-{:x}.skyc",
            std::process::id(),
            rand_suffix(&initial)
        ));
        table.save(&path).unwrap();
        let loaded = Table::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        prop_assert_eq!(loaded.len(), table.len());
        let (mut a, _) = fetch_one(&table, &region);
        let (mut b, _) = fetch_one(&loaded, &region);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}

/// Cheap content-derived suffix so concurrent test processes don't collide.
fn rand_suffix(points: &[Point]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in points {
        for c in p.coords() {
            h ^= c.to_bits();
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
