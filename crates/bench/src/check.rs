//! `repro check` — exhaustive schedule exploration of the shared-cache
//! protocol under the skycheck model checker (DESIGN.md §15).
//!
//! Runs the three load-bearing invariants of `core::shared`'s
//! read → compute → write protocol and the two service-layer protocols
//! (singleflight coalescing and epoch publication, DESIGN.md §16), each
//! explored to exhaustion at preemption bound 2, and writes the
//! per-harness exploration statistics to `BENCH_check.json`
//! (schema `skycheck-bench/1`) so CI can track schedule counts, pruning
//! effectiveness and wall time across commits.
//!
//! The deep assertions live in `crates/core/tests/model.rs`; this pass
//! re-runs the same scenarios for measurement, so a regression that
//! slips past the tests (e.g. a pruning bug exploding the schedule
//! count) still shows up in the benchmark record.

use skycache_core::engine::{CbcsConfig, QueryRequest};
use skycache_core::{Cache, ReplacementPolicy, Service, ServiceConfig, Session};
use skycache_geom::{Constraints, Point};
use skycache_storage::{Table, TableConfig};
use skycheck::sync::{thread, Arc, RwLock};
use skycheck::{Explorer, Outcome};

use crate::figures::Scale;

/// Preemption bound every harness is explored at (matches the tests).
const PREEMPTION_BOUND: usize = 2;

/// A named harness: runs one exploration and reports its outcome.
type Harness = (&'static str, fn() -> Outcome);

fn table() -> Table {
    let points: Vec<Point> = (0..3)
        .flat_map(|i| {
            (0..3).map(move |j| Point::from(vec![f64::from(i) / 2.0, f64::from(j) / 2.0]))
        })
        .collect();
    Table::build(points, TableConfig::default()).expect("grid table")
}

/// Service config pinning the raw shared-cache protocol (the service
/// fast paths get their own harnesses below).
fn raw_config(cbcs: CbcsConfig) -> ServiceConfig {
    ServiceConfig { cbcs, coalesce: false, negative_cache: false, ..ServiceConfig::default() }
}

fn run_query(session: &mut Session<'_>, c: &Constraints) -> (Vec<Point>, bool) {
    let r = session.execute(&QueryRequest::new(c.clone())).expect("query");
    (r.skyline, r.stats.cache_hit)
}

/// Invariant (a): concurrent `touch`/`insert` keep the LRU clock monotone.
fn clock_monotone() -> Outcome {
    let c0 = Constraints::from_pairs(&[(0.0, 0.4), (0.0, 1.0)]).expect("constraints");
    let c1 = Constraints::from_pairs(&[(0.6, 1.0), (0.0, 1.0)]).expect("constraints");
    let pts = vec![Point::from(vec![0.1, 0.1])];
    Explorer::new().with_preemption_bound(PREEMPTION_BOUND).explore(move || {
        let cache = Arc::new(RwLock::new(Cache::with_capacity(2, None, ReplacementPolicy::Lru)));
        let id = cache.write().insert(c0.clone(), &pts).expect("Lru admits below capacity");
        let cache2 = cache.clone();
        let h = thread::spawn(move || cache2.write().touch(id));
        cache.write().insert(c1.clone(), &pts);
        h.join().expect("toucher");
        let g = cache.read();
        let touched = g.get(id).expect("untouched items are never evicted");
        assert_eq!(touched.use_count, 1);
        assert!(touched.last_used > touched.inserted_at);
    })
}

/// Invariant (b): capacity-1 eviction race between two executors' read
/// and write phases never loses a result or double-counts a hit.
fn eviction_race() -> Outcome {
    let t = table();
    let ca = Constraints::from_pairs(&[(0.0, 0.4), (0.0, 1.0)]).expect("constraints");
    let cb = Constraints::from_pairs(&[(0.6, 1.0), (0.0, 1.0)]).expect("constraints");
    let config = CbcsConfig { capacity: Some(1), ..Default::default() };
    Explorer::new().with_preemption_bound(PREEMPTION_BOUND).explore(move || {
        let service = Service::open(&t, raw_config(config.clone()));
        let mut sa = service.session();
        let mut sb = service.session();
        let (got_a, got_b) = thread::scope(|s| {
            let (ca_ref, cb_ref) = (&ca, &cb);
            let ha = s.spawn(move || run_query(&mut sa, ca_ref));
            let hb = s.spawn(move || run_query(&mut sb, cb_ref));
            (ha.join().expect("user a"), hb.join().expect("user b"))
        });
        assert!(!got_a.1 && !got_b.1, "disjoint queries must never count a hit");
        assert_eq!(service.cache().len(), 1);
        service.cache().with_read(|c| assert_eq!(c.evictions(), 1));
    })
}

/// Invariant (c): two full concurrent `execute()` calls admit no AB/BA
/// schedule — no interleaving deadlocks, and hit accounting agrees.
fn no_deadlock() -> Outcome {
    let t = table();
    let c = Constraints::from_pairs(&[(0.0, 0.9), (0.0, 0.9)]).expect("constraints");
    Explorer::new().with_preemption_bound(PREEMPTION_BOUND).explore(move || {
        let service = Service::open(&t, raw_config(CbcsConfig::default()));
        let mut sa = service.session();
        let mut sb = service.session();
        let (got_a, got_b) = thread::scope(|s| {
            let c_ref = &c;
            let ha = s.spawn(move || run_query(&mut sa, c_ref));
            let hb = s.spawn(move || run_query(&mut sb, c_ref));
            (ha.join().expect("user a"), hb.join().expect("user b"))
        });
        let hits = usize::from(got_a.1) + usize::from(got_b.1);
        assert!(hits <= 1, "an empty cache admits at most one hit");
        // An exact hit does not re-insert its item.
        assert_eq!(service.cache().len(), 2 - hits);
    })
}

/// Service invariant (d): two identical concurrent queries through the
/// singleflight table — every join saves exactly one computation and the
/// joiner observes the leader's outcome (deep version: `model_serve.rs`).
fn singleflight() -> Outcome {
    let t = table();
    let c = Constraints::from_pairs(&[(0.0, 0.9), (0.0, 0.9)]).expect("constraints");
    Explorer::new().with_preemption_bound(PREEMPTION_BOUND).explore(move || {
        let config = ServiceConfig { negative_cache: false, ..ServiceConfig::default() };
        let service = Service::open(&t, config);
        let mut sa = service.session();
        let mut sb = service.session();
        let (got_a, got_b) = thread::scope(|s| {
            let c_ref = &c;
            let ha = s.spawn(move || run_query(&mut sa, c_ref));
            let hb = s.spawn(move || run_query(&mut sb, c_ref));
            (ha.join().expect("user a"), hb.join().expect("user b"))
        });
        assert_eq!(got_a.0, got_b.0, "a joiner must observe the winner's outcome");
        let m = service.metrics();
        assert_eq!(m.computes, 2 - m.coalesced, "every join saves exactly one compute");
        // Only missed computations insert: a serial second query scores
        // an exact hit and publishes nothing.
        let inserted = service.cache().len() as u64;
        assert!((1..=m.computes).contains(&inserted), "a joiner never runs the insert path");
    })
}

/// Service invariant (e): epoch publication — a reader interleaved with
/// an inserting writer sees a monotone epoch and only complete
/// snapshots, with publish ordered before the epoch bump.
fn epoch_publish() -> Outcome {
    let t = table();
    let c = Constraints::from_pairs(&[(0.0, 0.9), (0.0, 0.9)]).expect("constraints");
    Explorer::new().with_preemption_bound(PREEMPTION_BOUND).explore(move || {
        let config = ServiceConfig { negative_cache: false, ..ServiceConfig::default() };
        let service = Service::open(&t, config);
        let mut writer = service.session();
        let cache = service.cache().clone();
        let reader = thread::spawn(move || {
            let e1 = cache.epoch();
            let snap = cache.snapshot();
            let e2 = cache.epoch();
            assert!(e2 >= e1, "epoch must be monotone");
            assert!(snap.len() <= 1, "torn snapshot");
            assert!(snap.len() as u64 >= e1, "epoch bumped before snapshot published");
        });
        let r = writer.execute(&QueryRequest::new(c.clone())).expect("writer query");
        assert!(!r.skyline.is_empty());
        reader.join().expect("reader");
        assert_eq!(service.cache().epoch(), 1);
    })
}

/// `repro check` entry point: runs every harness, prints the exploration
/// table and writes `BENCH_check.json`.
pub fn check(_scale: &Scale) {
    let max_schedules = std::env::var("SKYCHECK_MAX_SCHEDULES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(100_000);
    println!();
    println!(
        "== Model check: shared-cache protocol (preemption bound {PREEMPTION_BOUND}, \
         cap {max_schedules} schedules) =="
    );
    println!(
        "{:<16} {:>10} {:>12} {:>14} {:>9} {:>9}  verdict",
        "harness", "schedules", "pruned-sleep", "pruned-preempt", "depth", "wall-ms"
    );

    let harnesses: [Harness; 5] = [
        ("clock-monotone", clock_monotone),
        ("eviction-race", eviction_race),
        ("no-deadlock", no_deadlock),
        ("singleflight", singleflight),
        ("epoch-publish", epoch_publish),
    ];
    let mut rows = Vec::new();
    let mut all_ok = true;
    for (name, run) in harnesses {
        let outcome = run();
        let s = &outcome.stats;
        let verdict = match (&outcome.failure, outcome.exhausted) {
            (Some(f), _) => {
                all_ok = false;
                format!("FAILED ({:?}, trace {})", f.kind, f.trace)
            }
            (None, true) => "ok (exhausted)".to_owned(),
            (None, false) => {
                all_ok = false;
                "INCONCLUSIVE (schedule cap hit)".to_owned()
            }
        };
        println!(
            "{name:<16} {:>10} {:>12} {:>14} {:>9} {:>9}  {verdict}",
            s.schedules, s.pruned_sleep, s.pruned_preempt, s.max_depth, s.wall_ms
        );
        rows.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"schedules\": {}, \"pruned_sleep\": {}, ",
                "\"pruned_preempt\": {}, \"max_depth\": {}, \"wall_ms\": {}, ",
                "\"exhausted\": {}, \"failed\": {}}}"
            ),
            name,
            s.schedules,
            s.pruned_sleep,
            s.pruned_preempt,
            s.max_depth,
            s.wall_ms,
            outcome.exhausted,
            outcome.failure.is_some(),
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"skycheck-bench/1\",\n",
            "  \"preemption_bound\": {},\n",
            "  \"max_schedules\": {},\n",
            "  \"all_ok\": {},\n",
            "  \"harnesses\": [\n{}\n  ]\n",
            "}}\n"
        ),
        PREEMPTION_BOUND,
        max_schedules,
        all_ok,
        rows.join(",\n"),
    );
    match std::fs::write("BENCH_check.json", &json) {
        Ok(()) => println!("wrote BENCH_check.json"),
        Err(e) => eprintln!("could not write BENCH_check.json: {e}"),
    }
    assert!(all_ok, "model check found a violation — see the table above");
}
