//! What the benchmark measures: the four workloads and every metric by
//! name, unit, direction and bound. `BENCHMARK.json` at the repo root
//! declares the same lists to the driver; a self-test keeps the two equal.

use skycache_core::{CbcsConfig, ServiceConfig};
use skycache_datagen::Distribution;

use crate::json::Json;

/// How a workload's query stream is drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Queries {
    /// Two `InteractiveWorkload` chains (paper §7.1 workload 1),
    /// interleaved so each of the two clients walks its own chain.
    Explore,
    /// `IndependentWorkload` (paper §7.1 workload 2).
    Independent,
    /// `ZipfWorkload` over a fixed pool, no drift, no rotation; the
    /// warm-up is every distinct query of the stream once.
    Zipf { pool: usize, exponent: f64 },
}

/// One workload: a table, a query stream and a cache capacity. Every
/// other setting is the shipping default.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub dist: Distribution,
    pub points: usize,
    pub dims: usize,
    pub queries: Queries,
    /// `CbcsConfig::capacity`; `None` is the shipped default (unbounded).
    pub capacity: Option<usize>,
    /// Queries answered before timing starts (charged to `setup_s`).
    /// Ignored for `Queries::Zipf`, whose warm-up is its distinct set.
    pub warmup: usize,
    /// Timed queries per round. Every round replays the same stream
    /// against a freshly started server, so rounds are replicas: short
    /// rounds, so that many fit in a run (see `load.rs`).
    pub timed: usize,
    /// The oracle checks the timed query at every this-many-th position
    /// against a from-scratch `BaselineExecutor` answer (1 = every
    /// query). Coprime with [`CLIENTS`], so every client is sampled.
    pub oracle_stride: usize,
}

/// Load-pass clients: one thread and one connection each, closed loop.
/// The bench host has two cores; client `k` sends the stream positions
/// congruent to `k` modulo this.
pub const CLIENTS: usize = 2;

/// `run_seconds` of `BENCHMARK.json`: how long the load pass of one run
/// keeps starting rounds (and the traced loop keeps repeating).
pub const RUN_SECONDS: f64 = 20.0;

/// A load pass runs at least this many rounds, however slow the host:
/// every timing is the best of four or more replicas.
pub const MIN_ROUNDS: usize = 4;

/// Untraced runs of each workload in the full run (`skybench all`).
pub const REPEATS: usize = 3;

/// Expensive layer probes (plan, fetch, SFS, cache clone, insert) replay
/// on every this-many-th traced query; cheap ones run on every query.
pub const PROBE_EVERY: usize = 16;

/// The traced run keeps spans of this many leading requests for
/// `trace-<workload>.jsonl`; the self-time table covers all requests.
pub const TRACE_FILE_REQUESTS: usize = 2_000;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "explore",
        why:
            "Interactive refinement chains on 200k independent 4-d points, cache 256: the paper's \
              headline case; planning, small fetches and a moderate SFS all do real work.",
        dist: Distribution::Independent,
        points: 200_000,
        dims: 4,
        queries: Queries::Explore,
        capacity: Some(256),
        warmup: 500,
        timed: 1_500,
        oracle_stride: 3,
    },
    Workload {
        name: "scatter",
        why:
            "Independent queries on 100k anti-correlated 6-d points, cache 64 << distinct queries: \
              fetch and wide-kernel skyline dominate, every answer inserts, evicts and publishes.",
        dist: Distribution::AntiCorrelated,
        points: 100_000,
        dims: 6,
        queries: Queries::Independent,
        capacity: Some(64),
        warmup: 200,
        timed: 1_000,
        oracle_stride: 3,
    },
    Workload {
        name: "hot",
        why: "Zipf over a 256-query pool that fits the cache: exact and negative hits only, zero \
              publishes, so serve.* and service bookkeeping are the whole cost.",
        dist: Distribution::Independent,
        points: 100_000,
        dims: 3,
        queries: Queries::Zipf { pool: 256, exponent: 1.0 },
        capacity: Some(512),
        warmup: 0,
        timed: 20_000,
        oracle_stride: 1,
    },
    Workload {
        name: "grow",
        why: "Cheap independent queries on 20k points, unbounded cache from empty: every miss \
              deep-clones an ever-larger cache to publish; the write side of the layer hot reads.",
        dist: Distribution::Independent,
        points: 20_000,
        dims: 3,
        queries: Queries::Independent,
        capacity: None,
        warmup: 0,
        timed: 1_500,
        oracle_stride: 1,
    },
];

impl Workload {
    /// Whether the oracle checks the timed query at stream position `pos`.
    pub fn oracle_sampled(&self, pos: usize) -> bool {
        pos.is_multiple_of(self.oracle_stride)
    }
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The service configuration of a workload: the shipping default (aMPR
/// k = 1, MaxOverlapSP, LRU, coalescing and negative cache on, sequential
/// execution, block path) with the workload's cache capacity.
pub fn service_config(w: &Workload) -> ServiceConfig {
    ServiceConfig::with_cbcs(CbcsConfig { capacity: w.capacity, ..CbcsConfig::default() })
}

/// A workload shrunk so a self-test generates and runs it in milliseconds.
#[cfg(test)]
pub fn small(w: &Workload) -> Workload {
    Workload { points: 3_000, warmup: w.warmup.min(20), timed: 200, ..*w }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric with a bound: the share of the baseline median by which it
/// may worsen before that counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct Bounded {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end metrics (`end_to_end` in `BENCHMARK.json`): what a
/// client of the loaded server sees, what running it costs, and the
/// paper's two cost measures, simulated disk time (`CostModel`) and points
/// read (Fig. 8). `load.rs` and `inproc.rs` say how each is taken.
///
/// The bounds are as tight as this shared 2-vCPU host allows: the driver
/// accepts a bound only if ten runs on ten seeds spread (first to third
/// quartile) no wider than it. The issue's `fail_ratio` is not in the
/// list because a metric may never read 0: every run reports `attempted`
/// and `failed` instead, and is `correct` only when nothing failed.
pub const END_TO_END: [Bounded; 8] = [
    Bounded { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    Bounded { name: "qps", unit: "queries/s", better: Better::Higher, bound: 0.25 },
    Bounded { name: "p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    Bounded { name: "p99_us", unit: "us", better: Better::Lower, bound: 0.25 },
    Bounded { name: "cpu_ms_per_query", unit: "ms", better: Better::Lower, bound: 0.25 },
    Bounded { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.15 },
    Bounded { name: "sim_io_ms_per_query", unit: "ms", better: Better::Lower, bound: 0.08 },
    Bounded { name: "points_read_per_query", unit: "points", better: Better::Lower, bound: 0.05 },
];

/// A per-layer metric: no bound, read to explain an end-to-end move.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count made by a single-threaded pass: the same inputs and the
    /// same code must give the same bits.
    pub exact: bool,
}

/// A measured (timing or concurrency-dependent) layer metric.
const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: false }
}

/// An exactly repeating layer count.
const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: true }
}

use Better::{Higher, Lower};

/// `_ns` metrics are mean nanoseconds per call over the traced queries
/// that made the call; `_per_query` and ratios are over all timed
/// queries of the deterministic counts pass.
pub const PER_LAYER: [PerLayer; 55] = [
    layer("serve.proto.parse_ns", "ns", Lower),
    layer("serve.proto.reply_ns", "ns", Lower),
    count("serve.proto.reply_bytes", "bytes", Lower),
    count("serve.proto.allocs_per_request", "count", Lower),
    layer("serve.server.ping_rtt_ns", "ns", Lower),
    layer("serve.server.overhead_ns", "ns", Lower),
    layer("core.service.execute_ns", "ns", Lower),
    layer("core.service.self_ns", "ns", Lower),
    layer("core.service.negative_hit_ratio", "ratio", Higher),
    layer("core.service.negative_insert_ratio", "ratio", Lower),
    layer("core.service.coalesced_ratio", "ratio", Higher),
    count("core.service.allocs_per_query", "count", Lower),
    layer("core.shared.snapshot_ns", "ns", Lower),
    layer("core.shared.publish_clone_ns", "ns", Lower),
    count("core.shared.publishes_per_query", "count", Lower),
    count("core.shared.cache_len_end", "count", Lower),
    layer("core.cache.lookup_ns", "ns", Lower),
    count("core.cache.lookup_scans", "count", Lower),
    count("core.cache.candidates", "count", Lower),
    layer("core.cache.insert_ns", "ns", Lower),
    count("core.cache.hit_ratio", "ratio", Higher),
    count("core.cache.exact_hit_ratio", "ratio", Higher),
    count("core.cache.evictions_per_query", "count", Lower),
    layer("core.strategy.select_ns", "ns", Lower),
    layer("core.cases.plan_ns", "ns", Lower),
    count("core.cases.regions_per_plan", "count", Lower),
    count("core.cases.retained_per_plan", "count", Higher),
    count("core.cases.stable_share", "ratio", Higher),
    layer("core.engine.phase.cache_lookup_ns", "ns", Lower),
    layer("core.engine.phase.case_analysis_ns", "ns", Lower),
    layer("core.engine.phase.mpr_compute_ns", "ns", Lower),
    layer("core.engine.phase.fetch_cpu_ns", "ns", Lower),
    layer("core.engine.phase.merge_ns", "ns", Lower),
    layer("core.engine.phase.skyline_ns", "ns", Lower),
    layer("storage.build_s", "s", Lower),
    layer("storage.fetch_ns", "ns", Lower),
    layer("storage.probe_ns", "ns", Lower),
    count("storage.heap_fetches_per_query", "count", Lower),
    count("storage.rq_issued_per_query", "count", Lower),
    count("storage.rq_executed_per_query", "count", Lower),
    count("storage.regions_coalesced_per_query", "count", Higher),
    count("storage.read_amplification", "ratio", Lower),
    layer("algos.sfs_ns", "ns", Lower),
    count("algos.dominance_tests_per_query", "count", Lower),
    count("algos.result_size", "points", Lower),
    layer("geom.kernel.scalar_mtests_per_s", "Mtests/s", Higher),
    layer("geom.kernel.wide_mtests_per_s", "Mtests/s", Higher),
    layer("rtree.search_ns", "ns", Lower),
    layer("rtree.insert_ns", "ns", Lower),
    layer("rtree.clone_ns", "ns", Lower),
    count("rtree.height", "count", Lower),
    layer("obs.record_overhead_ratio", "ratio", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.requests", "count", Higher),
    layer("trace.probe_samples", "count", Higher),
];

/// The `BENCHMARK.json` document, from the lists in this module.
pub fn benchmark_json() -> Json {
    let text = |s: &str| Json::Str(s.to_owned());
    Json::obj([
        ("command", Json::Arr(vec![text("bash"), text("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(valid_unit(unit), "{unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            // p99 needs ten samples beyond it in every round.
            assert!(w.timed >= 1_000, "{}", w.name);
            assert_eq!(w.warmup % CLIENTS, 0, "{}: warm-up must keep client parity", w.name);
            // `explore` gives each client its own chains: an oracle that
            // skipped a client would skip half the traffic.
            assert!(w.oracle_stride <= 4, "{}: at least every 4th query is checked", w.name);
            for client in 0..CLIENTS {
                let sampled = (client..w.timed).step_by(CLIENTS).any(|pos| w.oracle_sampled(pos));
                assert!(sampled, "{}: the oracle never samples client {client}", w.name);
            }
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// `BENCHMARK.json` is what the driver reads; this crate's lists are
    /// what the code computes. The file must be the lists, key for key.
    #[test]
    fn benchmark_json_round_trips_and_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc, "round trip");
        assert_eq!(doc, benchmark_json(), "regenerate it with `skybench spec > BENCHMARK.json`");

        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!((1.0..=60.0).contains(&RUN_SECONDS) && RUN_SECONDS.fract() == 0.0);
        assert!(text.len() <= 64 * 1024);
    }
}
