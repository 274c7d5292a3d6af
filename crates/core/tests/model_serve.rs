//! skycheck model-checked harness for the service-layer protocol
//! (DESIGN.md §16): epoch publication.
//!
//! It explores *every* interleaving at preemption bound 2, written
//! against the same `skycheck::sync` shims the library uses: a writer
//! session inserts (publish-then-bump) while a reader interleaves epoch
//! loads and snapshot reads anywhere. The epoch is monotone, every
//! snapshot is a complete pre- or post-insert cache (never torn), an
//! observed epoch ≥ 1 guarantees the snapshot read after it sees the
//! insert, and a snapshot taken early is immutable no matter how the
//! writer is scheduled around it.
//!
//! It also asserts a schedule ceiling, as the harnesses in `model.rs` do.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test code: a failed expectation fails the test"
)]

use skycache_core::engine::QueryRequest;
use skycache_core::{Service, ServiceConfig};
use skycache_geom::{Constraints, Point};
use skycache_storage::{Table, TableConfig};
use skycheck::sync::thread;
use skycheck::Explorer;

fn table() -> Table {
    let points: Vec<Point> = (0..3)
        .flat_map(|i| {
            (0..3).map(move |j| Point::from(vec![f64::from(i) / 2.0, f64::from(j) / 2.0]))
        })
        .collect();
    Table::build(points, TableConfig::default()).unwrap()
}

/// Epoch publication: while a writer session computes-and-publishes, a
/// reader interleaved anywhere sees a monotone epoch and only complete
/// snapshots — publish-before-bump means an observed epoch ≥ 1
/// guarantees the next snapshot contains the insert.
#[test]
fn epoch_publication_is_never_torn() {
    let t = table();
    let c = Constraints::from_pairs(&[(0.0, 0.9), (0.0, 0.9)]).unwrap();

    let outcome = Explorer::new().with_preemption_bound(2).explore(|| {
        let service = Service::open(&t, ServiceConfig::default());
        let mut writer = service.session();
        let pre_insert = service.cache().snapshot();
        assert!(pre_insert.is_empty());

        let cache = service.cache().clone();
        let reader = thread::spawn(move || {
            for _ in 0..2 {
                let e1 = cache.epoch();
                let snap = cache.snapshot();
                let e2 = cache.epoch();
                assert!(e2 >= e1, "the epoch must be monotone");
                // A snapshot is the complete pre- or post-insert cache —
                // one insert happened at most, so 0 or 1 items, each
                // internally consistent (len agrees with iteration).
                let n = snap.len();
                assert!(n <= 1, "torn snapshot: {n} items from a single insert");
                assert_eq!(snap.iter().count(), n, "snapshot index and items must agree");
                // Publish-before-bump: an epoch observed *before* the
                // snapshot read lower-bounds the snapshot's content.
                assert!(
                    n as u64 >= e1,
                    "reader saw epoch {e1} but a snapshot of {n} items — \
                     the snapshot was bumped before it was published"
                );
            }
        });
        let skyline = writer.execute(&QueryRequest::new(c.clone())).unwrap().skyline;
        assert!(!skyline.is_empty());
        reader.join().expect("reader");

        // However the reader interleaved: exactly one publication, the
        // early snapshot never mutated.
        assert_eq!(service.cache().epoch(), 1);
        assert_eq!(service.cache().snapshot().len(), 1);
        assert!(pre_insert.is_empty(), "published snapshots must be immutable");
    });
    outcome.assert_ok();
    assert!(outcome.exhausted, "schedule space must be exhausted: {:?}", outcome.stats);
    // 51 schedules observed (debug and release alike); ceiling 2×.
    assert!(outcome.stats.schedules <= 102, "interleaving space grew: {:?}", outcome.stats);
}
