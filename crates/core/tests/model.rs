//! skycheck model-checked harnesses for the shared-cache protocol.
//!
//! Each test explores *every* interleaving (at preemption bound 2) of a
//! small concurrent scenario written against the `skycheck::sync` shims the
//! library itself uses. The three load-bearing invariants of
//! `core::shared`'s read → compute → write protocol are pinned here:
//!
//! (a) an exact hit's `touch` racing a miss's publish records exactly one
//!     use, copies no item and leaves a pinned snapshot as it was (the
//!     replacement record asserts its clock invariant on every stamp);
//! (b) eviction between an executor's read and write phases never loses
//!     the inserted result or double-counts a hit;
//! (c) `shared.rs`'s lock order (`master → snap`) admits no AB/BA
//!     schedule — two full concurrent `execute()` calls cannot deadlock.
//!
//! Plus the satellite pins: `SharedCache::with_read` re-entrancy, and a
//! deliberately seeded touch-without-write-lock bug that must yield a
//! byte-reproducible failing trace.
//!
//! Every exhaustive harness also asserts a schedule ceiling, so a change
//! that blows up the interleaving space fails here instead of just
//! running longer.
//!
//! The library holds no process-wide mutable state, so every run of a
//! harness starts from the same state — run-to-run determinism is what
//! makes trace replay byte-stable.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test code: a failed expectation fails the test"
)]

use skycache_core::engine::{CbcsConfig, QueryRequest};
use skycache_core::{Service, ServiceConfig, SharedCache};
use skycache_geom::{Constraints, Point};
use skycache_storage::{Table, TableConfig};
use skycheck::sync::{thread, Arc, RwLock};
use skycheck::{Explorer, FailureKind};

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

/// Service config for the raw shared-cache protocol: every session
/// reaches `execute`'s read → compute → write protocol itself. (The
/// emptiness probe in front of it touches no shim primitive, and no
/// region here is provably empty.)
fn raw_config(cbcs: CbcsConfig) -> ServiceConfig {
    ServiceConfig::with_cbcs(cbcs)
}

fn run_query(session: &mut skycache_core::Session<'_>, c: &Constraints) -> (Vec<Point>, bool) {
    let r = session.execute(&QueryRequest::new(c.clone())).unwrap();
    (sorted(r.skyline), r.stats.cache_hit)
}

/// The sequential answer, for comparison inside the model runs.
fn reference(table: &Table, c: &Constraints) -> Vec<Point> {
    let service = Service::open(table, raw_config(CbcsConfig::default()));
    run_query(&mut service.session(), c).0
}

/// Invariant (a): through `Service`, a repeat of a cached box (an exact
/// hit, whose write phase is one `touch`) races a miss (an insert and a
/// publish). In every schedule the repeat hits, exactly one use is
/// recorded, the cache holds both items, and a snapshot pinned before the
/// race keeps its one item — the very allocation the master holds, since
/// a use is written to the replacement record alone — and its epoch. The
/// record asserts on every stamp it issues (debug builds) that its clock
/// runs ahead of every stamp recorded, so a schedule that broke recency
/// would panic inside the model run.
#[test]
fn harness_a_concurrent_touch_insert_keeps_clock_monotone() {
    let t = table();
    let cached = Constraints::from_pairs(&[(0.0, 0.4), (0.0, 1.0)]).unwrap();
    let fresh = Constraints::from_pairs(&[(0.6, 1.0), (0.0, 1.0)]).unwrap();
    let ref_fresh = reference(&t, &fresh);

    let outcome = Explorer::new().with_preemption_bound(2).explore(|| {
        let service = Service::open(&t, raw_config(CbcsConfig::default()));
        let (first, _) = run_query(&mut service.session(), &cached);
        let pinned = service.cache().snapshot();
        let pinned_epoch = service.cache().epoch();
        let mut repeater = service.session();
        let mut misser = service.session();
        let (repeat, miss) = thread::scope(|s| {
            let (cached, fresh) = (&cached, &fresh);
            let hr = s.spawn(move || run_query(&mut repeater, cached));
            let hm = s.spawn(move || run_query(&mut misser, fresh));
            (hr.join().expect("repeater"), hm.join().expect("misser"))
        });
        assert_eq!(repeat, (first, true), "the repeat hits, with the cached answer");
        assert_eq!(miss, (ref_fresh.clone(), false), "the miss computes its own answer");
        assert_eq!(service.cache().touches(), 1, "exactly one use is recorded");
        assert_eq!(service.cache().len(), 2, "the cache holds both items");
        assert_eq!((pinned_epoch, service.cache().epoch()), (1, 2), "one publish in the race");
        let id = pinned.iter().next().expect("the pinned snapshot holds the first item").id;
        assert_eq!(pinned.len(), 1, "the pinned snapshot keeps its items");
        service.cache().with_read(|master| {
            assert!(std::ptr::eq(master.get(id).unwrap(), pinned.get(id).unwrap()));
        });
    });
    outcome.assert_ok();
    assert!(outcome.exhausted, "schedule space must be exhausted: {:?}", outcome.stats);
    // 100 schedules observed (debug and release alike); ceiling 2×.
    assert!(outcome.stats.schedules <= 200, "interleaving space grew: {:?}", outcome.stats);
}

/// Invariant (b): with a capacity-1 cache, two concurrent executors with
/// disjoint queries race insert-vs-evict between each other's read and
/// write phases. In every schedule both must return the correct skyline,
/// exactly one eviction happens, and neither counts a spurious hit.
#[test]
fn harness_b_eviction_between_phases_never_loses_or_double_counts() {
    let t = table();
    let ca = Constraints::from_pairs(&[(0.0, 0.4), (0.0, 1.0)]).unwrap();
    let cb = Constraints::from_pairs(&[(0.6, 1.0), (0.0, 1.0)]).unwrap();
    let ref_a = reference(&t, &ca);
    let ref_b = reference(&t, &cb);

    let config = CbcsConfig { capacity: Some(1), ..Default::default() };
    let outcome = Explorer::new().with_preemption_bound(2).explore(|| {
        let service = Service::open(&t, raw_config(config.clone()));
        let mut sa = service.session();
        let mut sb = service.session();
        let (got_a, got_b) = thread::scope(|s| {
            let (ca_ref, cb_ref) = (&ca, &cb);
            let ha = s.spawn(move || run_query(&mut sa, ca_ref));
            let hb = s.spawn(move || run_query(&mut sb, cb_ref));
            (ha.join().expect("user a"), hb.join().expect("user b"))
        });
        assert_eq!(got_a.0, ref_a, "user a's result must survive the race");
        assert_eq!(got_b.0, ref_b, "user b's result must survive the race");
        assert!(!got_a.1 && !got_b.1, "disjoint queries must never count a hit");
        assert_eq!(service.cache().len(), 1, "capacity-1 cache holds exactly one result");
        service.cache().with_read(|c| {
            assert_eq!(c.evictions(), 1, "exactly one insert is evicted, never both");
        });
    });
    outcome.assert_ok();
    assert!(outcome.exhausted, "schedule space must be exhausted: {:?}", outcome.stats);
    // 130 schedules observed (debug and release alike); ceiling 2×.
    assert!(outcome.stats.schedules <= 260, "interleaving space grew: {:?}", outcome.stats);
}

/// Invariant (c): `shared.rs` takes its two locks only in the order
/// `master → snap` (debug builds assert each acquisition's held-guard
/// count), so two full concurrent `execute()` calls admit no AB/BA
/// schedule — exhaustive exploration finds no deadlock, and hit
/// accounting stays consistent.
#[test]
fn harness_c_concurrent_execute_admits_no_deadlock() {
    let t = table();
    let c = Constraints::from_pairs(&[(0.0, 0.9), (0.0, 0.9)]).unwrap();
    let want = reference(&t, &c);

    let outcome = Explorer::new().with_preemption_bound(2).explore(|| {
        let service = Service::open(&t, raw_config(CbcsConfig::default()));
        let mut sa = service.session();
        let mut sb = service.session();
        let (got_a, got_b) = thread::scope(|s| {
            let c_ref = &c;
            let ha = s.spawn(move || run_query(&mut sa, c_ref));
            let hb = s.spawn(move || run_query(&mut sb, c_ref));
            (ha.join().expect("user a"), hb.join().expect("user b"))
        });
        assert_eq!(got_a.0, want);
        assert_eq!(got_b.0, want);
        let hits = usize::from(got_a.1) + usize::from(got_b.1);
        assert!(hits <= 1, "an empty cache admits at most one hit");
        // Every miss publishes its result; an exact hit touches the
        // existing item instead of re-inserting a duplicate.
        assert_eq!(service.cache().len(), 2 - hits);
        assert_eq!(service.cache().touches() as usize, hits, "hits and touches must agree");
    });
    outcome.assert_ok();
    assert!(outcome.exhausted, "schedule space must be exhausted: {:?}", outcome.stats);
    // 112 schedules observed; ceiling 248.
    assert!(outcome.stats.schedules <= 248, "interleaving space grew: {:?}", outcome.stats);
}

/// Satellite: `SharedCache::with_read` re-entrancy. The shim RwLock grants
/// shared acquisition whenever no writer holds the lock — recursively from
/// the same thread included — so a nested `with_read` is safe even with a
/// concurrent writer waiting.
#[test]
fn with_read_reentrancy_is_safe_under_the_shim_rwlock() {
    let outcome = Explorer::new().with_preemption_bound(2).explore(|| {
        let shared = SharedCache::new(2, &CbcsConfig::default());
        let observer = shared.clone();
        let h = thread::spawn(move || observer.len());
        let (outer_len, inner_len) = shared.with_read(|outer| {
            // Nested read acquisition of the same lock, while `h` may be
            // interleaved anywhere: must never deadlock.
            let inner_len = shared.with_read(|inner| inner.len());
            (outer.len(), inner_len)
        });
        assert_eq!(outer_len, inner_len);
        assert_eq!(h.join().expect("observer"), 0);
    });
    outcome.assert_ok();
    assert!(outcome.exhausted, "schedule space must be exhausted: {:?}", outcome.stats);
    // 13 schedules observed (debug and release alike); ceiling 2×.
    assert!(outcome.stats.schedules <= 26, "interleaving space grew: {:?}", outcome.stats);
}

/// Seeded bug: perform `touch`'s clock bump the *wrong* way — read the
/// clock under a read lock, drop it, then write the incremented value
/// under a separate write lock (i.e. skip the touch write-lock critical
/// section). skycheck must find the lost update and hand back a
/// byte-reproducible, replayable schedule trace.
#[test]
fn seeded_bug_touch_without_write_lock_yields_reproducible_trace() {
    let harness = || {
        let clock = Arc::new(RwLock::new(0u64));
        let clock2 = clock.clone();
        let buggy_touch = |clk: &RwLock<u64>| {
            let seen = *clk.read(); // BUG: decide under the read lock…
            *clk.write() = seen + 1; // …publish under a later write lock.
        };
        let h = thread::spawn(move || {
            let seen = *clock2.read();
            *clock2.write() = seen + 1;
        });
        buggy_touch(&clock);
        h.join().expect("toucher");
        assert_eq!(*clock.read(), 2, "lost clock update");
    };

    let first = Explorer::new().with_preemption_bound(2).explore(harness);
    let failure = first.failure.expect("the lost update must be found");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("lost clock update"), "{}", failure.message);

    // Byte-reproducible: a fresh exploration finds the identical trace…
    let second = Explorer::new().with_preemption_bound(2).explore(harness);
    assert_eq!(second.failure.expect("same bug").trace, failure.trace);

    // …and replaying the printed trace reproduces the failure directly.
    let replayed = Explorer::new().replay(&failure.trace, harness);
    let rf = replayed.failure.expect("replay must reproduce the failure");
    assert_eq!(rf.trace, failure.trace);
    assert_eq!(rf.message, failure.message);
}
