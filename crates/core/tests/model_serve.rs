//! skycheck model-checked harnesses for the service-layer protocols
//! (DESIGN.md §16): singleflight coalescing and epoch publication.
//!
//! Both harnesses explore *every* interleaving at preemption bound 2,
//! written against the same `skycheck::sync` shims the library uses:
//!
//! * **Singleflight** — two concurrent identical queries: no schedule
//!   deadlocks, both observe the correct skyline, and the compute count
//!   always equals `2 − joins` (a joiner never recomputes — it received
//!   the leader's outcome through the flight slot). At least one
//!   explored schedule must actually coalesce, so the property is not
//!   vacuously true.
//! * **Epoch publication** — a writer inserts (publish-then-bump) while
//!   a reader interleaves epoch loads and snapshot reads anywhere: the
//!   epoch is monotone, every snapshot is a complete pre- or post-insert
//!   cache (never torn), an observed epoch ≥ 1 guarantees the snapshot
//!   read after it sees the insert, and a snapshot taken early is
//!   immutable no matter how the writer is scheduled around it.
//!
//! Both also assert a schedule ceiling, as the harnesses in `model.rs` do.

use std::sync::atomic::{AtomicU64, Ordering};

use skycache_core::engine::QueryRequest;
use skycache_core::{Service, ServiceConfig, Session};
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

fn sorted(mut sky: Vec<Point>) -> Vec<Point> {
    sky.sort_by_key(|p| (p[0].to_bits(), p[1].to_bits()));
    sky
}

fn run_query(session: &mut Session<'_>, c: &Constraints) -> Vec<Point> {
    sorted(session.execute(&QueryRequest::new(c.clone())).unwrap().skyline)
}

/// Singleflight: two concurrent identical queries → in every schedule,
/// no deadlock, correct results, and exactly `2 − joins` computations;
/// across the exhaustive exploration, at least one schedule coalesces.
#[test]
fn singleflight_two_identical_queries_compute_once_per_leader() {
    let t = table();
    let c = Constraints::from_pairs(&[(0.0, 0.9), (0.0, 0.9)]).unwrap();
    let want = run_query(&mut Service::open(&t, ServiceConfig::default()).session(), &c);

    // Process-level: did ANY schedule coalesce? (Serial schedules finish
    // the first flight before the second query arrives, so per-schedule
    // "exactly one compute" would be wrong — but if no interleaving ever
    // joins a flight, the protocol is dead code and this harness must
    // say so.)
    let schedules_with_join = AtomicU64::new(0);

    let outcome = Explorer::new().with_preemption_bound(2).explore(|| {
        let service = Service::open(&t, ServiceConfig::default());
        let mut sa = service.session();
        let mut sb = service.session();
        let (got_a, got_b) = thread::scope(|s| {
            let c_ref = &c;
            let ha = s.spawn(move || run_query(&mut sa, c_ref));
            let hb = s.spawn(move || run_query(&mut sb, c_ref));
            (ha.join().expect("user a"), hb.join().expect("user b"))
        });
        assert_eq!(got_a, want, "user a's skyline must be correct in every schedule");
        assert_eq!(got_b, want, "a joiner must observe the winner's (correct) outcome");

        let m = service.metrics();
        assert!(m.coalesced <= 1, "with two queries at most one can join");
        assert_eq!(
            m.computes,
            2 - m.coalesced,
            "every join must save exactly one computation (loser reuses \
             the winner's outcome; it never recomputes)"
        );
        // Only *missed* computations insert: a joiner reuses the
        // winner's outcome, and a serial second query scores an exact
        // hit and publishes nothing. The epoch mirrors the insert count.
        let inserted = service.cache().len() as u64;
        assert_eq!(service.cache().epoch(), inserted);
        assert!(inserted >= 1, "the first computation always inserts");
        assert!(inserted <= m.computes, "a joiner provably never runs the insert path");
        if m.coalesced == 1 {
            schedules_with_join.fetch_add(1, Ordering::Relaxed);
        }
    });
    outcome.assert_ok();
    assert!(outcome.exhausted, "schedule space must be exhausted: {:?}", outcome.stats);
    // 178 schedules observed; ceiling 376.
    assert!(outcome.stats.schedules <= 376, "interleaving space grew: {:?}", outcome.stats);
    assert!(
        schedules_with_join.load(Ordering::Relaxed) >= 1,
        "exhaustive exploration must include schedules where the queries \
         actually coalesce"
    );
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
    // 81 schedules observed (debug and release alike); ceiling 2×.
    assert!(outcome.stats.schedules <= 162, "interleaving space grew: {:?}", outcome.stats);
}
