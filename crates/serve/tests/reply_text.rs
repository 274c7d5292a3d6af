//! The reply text a cached item keeps for exact repeats, against the
//! skyline it stands for: it must not outlive a change of that skyline,
//! and a reply built from it must be the bytes the renderer writes for
//! the same points.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test code: a failed expectation fails the test"
)]

use std::sync::Arc;

use proptest::prelude::*;

use skycache_core::{
    Cache, Overlap, QueryOutcome, QueryRequest, QueryStats, Service, ServiceConfig,
};
use skycache_geom::{Constraints, Point};
use skycache_serve::proto::query_reply;
use skycache_storage::{Table, TableConfig};

/// An exact hit on item `id` of `cache`, as the engine reports one.
fn exact_hit(cache: &Cache, id: u64) -> QueryOutcome {
    let item = cache.get(id).expect("the item is cached");
    QueryOutcome {
        skyline: item.skyline.to_points(),
        text: Some(item.skyline_text()),
        stats: QueryStats { cache_hit: true, case: Some(Overlap::Exact), ..QueryStats::default() },
        report: None,
    }
}

#[test]
fn an_insert_that_enters_a_cached_skyline_replaces_its_text() {
    let p = |x: f64, y: f64| Point::from(vec![x, y]);
    let table =
        Table::build(vec![p(1.0, 3.0), p(3.0, 1.0), p(3.0, 3.0)], TableConfig::default()).unwrap();
    let mut service = Service::open(table, ServiceConfig::default());
    let req = QueryRequest::new(Constraints::from_pairs(&[(0.0, 4.0), (0.0, 4.0)]).unwrap());

    let miss = service.session().execute(&req).unwrap();
    assert!(miss.text.is_none(), "a miss renders its own reply");
    assert_eq!(query_reply(&miss), "OK 2 miss 1,3 3,1");
    // The repeat is an exact hit: it renders the item's text and brings it.
    let hit = service.session().execute(&req).unwrap();
    assert_eq!(hit.text.as_deref(), Some(" 1,3 3,1"));
    assert_eq!(query_reply(&hit), "OK 2 hit 1,3 3,1");
    let before = service.cache().snapshot();
    let id = before.iter().next().expect("the miss cached its result").id;

    // A point the cached skyline dominates changes nothing: the next
    // repeat brings the very same text, not a second rendering of it.
    service.insert(p(3.5, 3.5)).unwrap();
    let unchanged = service.session().execute(&req).unwrap();
    assert!(Arc::ptr_eq(unchanged.text.as_ref().unwrap(), hit.text.as_ref().unwrap()));

    // (2, 2) enters the skyline, so the text of the old one must go.
    service.insert(p(2.0, 2.0)).unwrap();
    let after = service.session().execute(&req).unwrap();
    assert_eq!(after.stats.case, Some(Overlap::Exact));
    assert_eq!(query_reply(&after), "OK 3 hit 1,3 2,2 3,1");

    // The snapshot taken before the insert still holds the old skyline,
    // and the old text with it.
    assert_eq!(query_reply(&exact_hit(&before, id)), "OK 2 hit 1,3 3,1");
    let now = service.cache().snapshot();
    assert_eq!(query_reply(&exact_hit(&now, id)), "OK 3 hit 1,3 2,2 3,1");
}

/// Coordinates whose text form is easy to get wrong: both zeros,
/// subnormals, values that need all 17 significant digits, exact ties
/// between two shortest spellings, integers past 1e17, small values
/// written without an exponent, the extremes. The property below checks
/// cached text against rendered text, not against `f64`'s `Display`:
/// that contract is the writer's own test, in `skycache-core`'s `text`
/// module (`the_writer_writes_display_bytes`).
fn coordinate() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(f64::from_bits(0x4317_9085_685d_83c9)),
        Just(f64::from_bits(0x42ea_8090_bb0f_6d84)),
        Just(1e21),
        Just(123_456_789_012_345_680.0),
        Just(1.5e-7),
        Just(-0.0),
        Just(5e-324),
        Just(-2.225e-308),
        Just(0.1 + 0.2),
        Just(1.0 / 3.0),
        Just(-123_456.789_012_345_67),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        (-1000..1000i32).prop_map(|v| f64::from(v) / 8.0),
        any::<u64>().prop_map(f64::from_bits).prop_filter("finite", |v| v.is_finite()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A reply built from an item's text is byte for byte the reply
    /// rendered from the same outcome without it, whatever order the
    /// points come in.
    #[test]
    fn a_reply_from_cached_text_equals_the_rendered_reply(
        rows in prop::collection::vec(prop::collection::vec(coordinate(), 3), 0..12),
        hit in any::<bool>(),
    ) {
        let skyline: Vec<Point> = rows.into_iter().map(Point::from).collect();
        let mut cache = Cache::new(3);
        let id = cache.insert(Constraints::unbounded(3).unwrap(), &skyline);
        let mut with_text = exact_hit(&cache, id);
        with_text.stats.cache_hit = hit;
        let mut rendered = QueryOutcome { text: None, ..with_text.clone() };
        rendered.skyline.reverse();
        prop_assert_eq!(query_reply(&with_text), query_reply(&rendered));
    }
}
