//! The in-process passes: one `Session`, the canonical query order, no
//! sockets.
//!
//! * [`counts`] runs unrecorded requests: the deterministic numbers
//!   (points read, simulated I/O, allocations, hits, publishes), the
//!   reply fingerprints the load pass is checked against, and the oracle
//!   check of those replies against a from-scratch `BaselineExecutor`.
//! * [`trace`] runs recorded requests under spans and replays each layer
//!   through its public functions: the per-layer numbers.
//!
//! All layer timing happens here, from outside: nothing under `crates/`
//! is instrumented for this benchmark.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use skycache_algos::{Sfs, SkylineScratch};
use skycache_core::cases;
use skycache_core::{
    BaselineExecutor, Cache, Executor, ItemCost, Overlap, QueryOutcome, QueryRequest, Service,
};
use skycache_geom::{Aabb, Constraints, Kernel, PointBlock};
use skycache_obs::Phase;
use skycache_rtree::RStarTree;
use skycache_serve::proto::{self, Request};
use skycache_storage::{FetchPlan, FetchScratch, Table};

use crate::alloc::thread_allocs;
use crate::gen::{read_lines, Inputs};
use crate::json::Json;
use crate::spec::{service_config, Workload, PROBE_EVERY, TRACE_FILE_REQUESTS};
use crate::stats::percentile;
use crate::wire::{fingerprint, reply_points};

fn load(inputs: &Inputs) -> Result<(Table, Vec<String>, Vec<String>), String> {
    let table = Table::load(inputs.table()).map_err(|e| format!("load table: {e}"))?;
    let io = |e: std::io::Error| format!("read query file: {e}");
    Ok((table, read_lines(&inputs.warmup()).map_err(io)?, read_lines(&inputs.timed()).map_err(io)?))
}

fn parse_query(line: &str) -> Result<Constraints, String> {
    match proto::parse_request(line)? {
        Request::Query { constraints, .. } => Ok(constraints),
        other => Err(format!("query file holds a non-query line: {other:?}")),
    }
}

/// Answers the warm-up queries; returns the points they read and the
/// simulated disk nanoseconds they cost.
fn warm_up(session: &mut impl Executor, warmup: &[String]) -> Result<(u64, u64), String> {
    let (mut points_read, mut fetch_sim_ns) = (0, 0);
    for line in warmup {
        let outcome = session
            .execute(&QueryRequest::new(parse_query(line)?))
            .map_err(|e| format!("warm-up query failed: {e}"))?;
        points_read += outcome.stats.points_read;
        fetch_sim_ns += outcome.stats.fetch_sim_ns;
    }
    Ok((points_read, fetch_sim_ns))
}

/// Sums of the per-query statistics the program already returns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    pub queries: u64,
    pub points_read: u64,
    pub fetch_sim_ns: u64,
    pub heap_fetches: u64,
    pub rq_issued: u64,
    pub rq_executed: u64,
    pub regions_coalesced: u64,
    pub dominance_tests: u64,
    pub result_size: u64,
    pub hits: u64,
    pub exact_hits: u64,
    pub stable_hits: u64,
    pub candidates: u64,
    /// Allocation calls inside `Session::execute`.
    pub allocs: u64,
    /// Allocation calls inside `proto::parse_request` and
    /// `proto::query_reply`.
    pub proto_allocs: u64,
    pub reply_bytes: u64,
}

impl Tally {
    fn add(&mut self, outcome: &QueryOutcome, allocs: u64) {
        let s = &outcome.stats;
        self.queries += 1;
        self.points_read += s.points_read;
        self.fetch_sim_ns += s.fetch_sim_ns;
        self.heap_fetches += s.heap_fetches;
        self.rq_issued += s.range_queries_issued;
        self.rq_executed += s.range_queries_executed;
        self.regions_coalesced += s.regions_coalesced;
        self.dominance_tests += s.dominance_tests;
        self.result_size += outcome.skyline.len() as u64;
        self.hits += u64::from(s.cache_hit);
        self.exact_hits += u64::from(matches!(s.case, Some(Overlap::Exact)));
        self.stable_hits += u64::from(s.stable() == Some(true));
        self.candidates += s.candidates as u64;
        self.allocs += allocs;
    }
}

/// The deterministic part of a counts pass: everything that must repeat
/// exactly between two runs over the same inputs.
#[derive(Debug, PartialEq)]
pub struct CountsOutput {
    pub tally: Tally,
    /// Warm-up queries answered, the points they read and the simulated
    /// disk nanoseconds they cost.
    pub warmup: (u64, u64, u64),
    pub publishes: u64,
    pub evictions: u64,
    pub cache_len_end: u64,
    /// One fingerprint per timed query, in canonical order.
    pub fingerprints: Vec<u64>,
    pub oracle_checked: u64,
    pub oracle_failed: u64,
}

impl CountsOutput {
    /// The two cost metrics, per query served. The warm-up counts because
    /// a metric may never read 0 and the timed section of `hot` reads
    /// nothing: there they are the cost of filling the cache, spread over
    /// the queries it then serves.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let (warm_queries, warm_points, warm_sim_ns) = self.warmup;
        let served = (warm_queries + self.tally.queries).max(1) as f64;
        vec![
            ("sim_io_ms_per_query", (warm_sim_ns + self.tally.fetch_sim_ns) as f64 / served / 1e6),
            ("points_read_per_query", (warm_points + self.tally.points_read) as f64 / served),
        ]
    }

    /// The count-type layer metrics (over the timed queries only).
    pub fn layers(&self) -> Vec<(&'static str, f64)> {
        let t = &self.tally;
        let q = t.queries.max(1) as f64;
        let per = |x: u64| x as f64 / q;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        vec![
            ("serve.proto.reply_bytes", per(t.reply_bytes)),
            ("serve.proto.allocs_per_request", per(t.proto_allocs)),
            ("core.service.allocs_per_query", per(t.allocs)),
            ("core.shared.publishes_per_query", per(self.publishes)),
            ("core.shared.cache_len_end", self.cache_len_end as f64),
            ("core.cache.candidates", per(t.candidates)),
            ("core.cache.hit_ratio", per(t.hits)),
            ("core.cache.exact_hit_ratio", per(t.exact_hits)),
            ("core.cache.evictions_per_query", per(self.evictions)),
            ("core.cases.stable_share", ratio(t.stable_hits, t.hits)),
            ("storage.heap_fetches_per_query", per(t.heap_fetches)),
            ("storage.rq_issued_per_query", per(t.rq_issued)),
            ("storage.rq_executed_per_query", per(t.rq_executed)),
            ("storage.regions_coalesced_per_query", per(t.regions_coalesced)),
            ("storage.read_amplification", ratio(t.heap_fetches, t.points_read)),
            ("algos.dominance_tests_per_query", per(t.dominance_tests)),
            ("algos.result_size", per(t.result_size)),
        ]
    }
}

/// Runs the counts pass.
pub fn counts(w: &Workload, inputs: &Inputs) -> Result<CountsOutput, String> {
    let (table, warmup, timed) = load(inputs)?;
    let service = Service::open(&table, service_config(w));
    let mut session = service.session();
    let (warm_points, warm_sim_ns) = warm_up(&mut session, &warmup)?;

    let epoch0 = service.cache().epoch();
    let evictions0 = service.cache().with_read(Cache::evictions);
    let mut tally = Tally::default();
    let mut fingerprints = Vec::with_capacity(timed.len());
    // First fingerprint seen for each distinct query line: a repeated
    // query must repeat its answer, so one oracle check covers them all.
    let mut first_answer: BTreeMap<&str, u64> = BTreeMap::new();
    let mut sampled: BTreeMap<&str, String> = BTreeMap::new();
    let mut oracle_failed = 0u64;

    for (pos, line) in timed.iter().enumerate() {
        let allocs0 = thread_allocs();
        let req = QueryRequest::new(parse_query(line)?);
        let allocs1 = thread_allocs();
        let outcome = session.execute(&req).map_err(|e| format!("query {pos} failed: {e}"))?;
        let allocs2 = thread_allocs();
        let reply = proto::query_reply(&outcome);
        tally.add(&outcome, allocs2 - allocs1);
        tally.proto_allocs += (allocs1 - allocs0) + (thread_allocs() - allocs2);
        tally.reply_bytes += reply.len() as u64;
        let print = fingerprint(&reply).ok_or_else(|| format!("query {pos}: not a query reply"))?;
        fingerprints.push(print);
        let first = *first_answer.entry(line).or_insert(print);
        oracle_failed += u64::from(first != print);
        if w.oracle_sampled(pos) {
            sampled.entry(line).or_insert(reply);
        }
    }

    let mut oracle = BaselineExecutor::new(&table);
    for (line, reply) in &sampled {
        let truth = oracle
            .execute(&QueryRequest::new(parse_query(line)?))
            .map_err(|e| format!("oracle failed: {e}"))?;
        let mut want: Vec<Vec<u64>> = truth
            .skyline
            .iter()
            .map(|p| p.coords().iter().map(|x| x.to_bits()).collect())
            .collect();
        want.sort();
        if reply_points(reply).ok() != Some(want) {
            oracle_failed += 1;
        }
    }

    Ok(CountsOutput {
        tally,
        warmup: (warmup.len() as u64, warm_points, warm_sim_ns),
        publishes: service.cache().epoch() - epoch0,
        evictions: service.cache().with_read(Cache::evictions) - evictions0,
        cache_len_end: service.cache().len() as u64,
        fingerprints,
        oracle_checked: sampled.len() as u64,
        oracle_failed,
    })
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/// The spans of the traced run. A request is the root span `Request`;
/// `Parse`, `Execute` and `Reply` are its children; the six report
/// phases are `Execute`'s children; everything from `Snapshot` on is a
/// probe: a replay of one layer's public function, a sibling of the
/// request that shares its id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Layer {
    Request,
    Parse,
    Execute,
    PhaseLookup,
    PhaseAnalysis,
    PhaseMpr,
    PhaseFetch,
    PhaseMerge,
    PhaseSkyline,
    Reply,
    Snapshot,
    Lookup,
    Select,
    ProbeEmpty,
    Plan,
    Fetch,
    Sfs,
    PublishClone,
    Insert,
}

const LAYERS: usize = Layer::Insert as usize + 1;

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Parse => "serve.proto.parse",
            Layer::Execute => "core.service.execute",
            Layer::PhaseLookup => "core.engine.phase.cache_lookup",
            Layer::PhaseAnalysis => "core.engine.phase.case_analysis",
            Layer::PhaseMpr => "core.engine.phase.mpr_compute",
            Layer::PhaseFetch => "core.engine.phase.fetch_cpu",
            Layer::PhaseMerge => "core.engine.phase.merge",
            Layer::PhaseSkyline => "core.engine.phase.skyline",
            Layer::Reply => "serve.proto.reply",
            Layer::Snapshot => "core.shared.snapshot",
            Layer::Lookup => "core.cache.lookup",
            Layer::Select => "core.strategy.select",
            Layer::ProbeEmpty => "storage.probe",
            Layer::Plan => "core.cases.plan",
            Layer::Fetch => "storage.fetch",
            Layer::Sfs => "algos.sfs",
            Layer::PublishClone => "core.shared.publish_clone",
            Layer::Insert => "core.cache.insert",
        }
    }

    fn is_probe(self) -> bool {
        self >= Layer::Snapshot
    }
}

/// The report phases in pipeline order, with their span layers and
/// their layer metrics.
const PHASES: [(Phase, Layer, &str); 6] = [
    (Phase::CacheLookup, Layer::PhaseLookup, "core.engine.phase.cache_lookup_ns"),
    (Phase::CaseAnalysis, Layer::PhaseAnalysis, "core.engine.phase.case_analysis_ns"),
    (Phase::MprCompute, Layer::PhaseMpr, "core.engine.phase.mpr_compute_ns"),
    (Phase::Fetch, Layer::PhaseFetch, "core.engine.phase.fetch_cpu_ns"),
    (Phase::Merge, Layer::PhaseMerge, "core.engine.phase.merge_ns"),
    (Phase::Skyline, Layer::PhaseSkyline, "core.engine.phase.skyline_ns"),
];

/// One recorded span. `id` and `parent` index the spans of one trace
/// file; a root span and a probe have no parent.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub probe: bool,
}

/// Span collector: per-layer totals, and the spans themselves for the
/// leading requests that go to the trace file.
struct Tracer {
    origin: Instant,
    sum_ns: [u64; LAYERS],
    calls: [u64; LAYERS],
    spans: Vec<Span>,
    keep_spans: bool,
    /// Whether the spans being recorded enter the totals (they are kept
    /// for the trace file either way).
    tally: bool,
    request: u32,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    fn record(&mut self, layer: Layer, parent: Option<u32>, start_ns: u64, end_ns: u64) -> u32 {
        if self.tally {
            self.sum_ns[layer as usize] += end_ns - start_ns;
            self.calls[layer as usize] += 1;
        }
        let id = self.spans.len() as u32;
        if self.keep_spans {
            self.spans.push(Span {
                id,
                parent,
                request: self.request,
                name: layer.name(),
                start_ns,
                end_ns,
                probe: layer.is_probe(),
            });
        }
        id
    }

    /// Times `f` as a probe span of the current request.
    fn probe<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(layer, None, start, end);
        out
    }

    fn mean(&self, layer: Layer) -> f64 {
        let calls = self.calls[layer as usize];
        if calls == 0 {
            0.0
        } else {
            self.sum_ns[layer as usize] as f64 / calls as f64
        }
    }
}

/// Writes spans as JSON lines:
/// `{"id":3,"parent":0,"request":0,"span":"serve.proto.reply","start_ns":..,"end_ns":..,"probe":false}`.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 128);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"span\":\"{}\",\"start_ns\":{},\
             \"end_ns\":{},\"probe\":{}}}",
            s.id, s.request, s.name, s.start_ns, s.end_ns, s.probe
        );
    }
    out
}

/// Pairwise `dominates` throughput of one kernel generation over
/// `rows`, in million tests per second.
fn kernel_mtests_per_s(kernel: Kernel, rows: &[&[f64]]) -> f64 {
    let start = Instant::now();
    let mut dominated = 0u64;
    for s in rows {
        for t in rows {
            dominated += u64::from(kernel.dominates(black_box(s), black_box(t)));
        }
    }
    black_box(dominated);
    let tests = (rows.len() * rows.len()) as f64;
    tests / start.elapsed().as_secs_f64().max(1e-9) / 1e6
}

/// `RStarTree<u64>` over the cached items' constraint boxes: per-insert,
/// per-search and per-clone nanoseconds plus the height.
fn rtree_probes(cache: &Cache, dims: usize, queries: &[Constraints]) -> [f64; 4] {
    let boxes: Vec<Aabb> = cache.iter().map(|item| item.constraints.aabb().clone()).collect();
    if boxes.is_empty() || queries.is_empty() {
        return [0.0; 4];
    }
    let mut tree: RStarTree<u64> = RStarTree::new(dims);
    let start = Instant::now();
    for (i, b) in boxes.iter().enumerate() {
        tree.insert(b.clone(), i as u64);
    }
    let insert_ns = start.elapsed().as_nanos() as f64 / boxes.len() as f64;

    let start = Instant::now();
    let mut found = 0u64;
    for q in queries {
        tree.for_each_in(q.aabb(), |_, _| found += 1);
    }
    black_box(found);
    let search_ns = start.elapsed().as_nanos() as f64 / queries.len() as f64;

    const CLONES: u32 = 5;
    let start = Instant::now();
    for _ in 0..CLONES {
        black_box(tree.clone());
    }
    let clone_ns = start.elapsed().as_nanos() as f64 / f64::from(CLONES);
    [search_ns, insert_ns, clone_ns, tree.height() as f64]
}

/// What the traced run hands back to the parent.
pub struct TraceOutput {
    /// `(metric, value)` for every layer metric the trace measures.
    pub layers: Vec<(&'static str, f64)>,
    /// `(span, mean self ns per request)`; rows sum to the request span.
    pub self_time: Vec<(&'static str, f64)>,
    pub requests: u64,
    /// Median over the timed queries of the untraced in-process request
    /// (parse + execute + reply), each at its minimum over the rounds —
    /// the load pass's `p50_us` without the server around it.
    pub request_p50_ns: f64,
    /// Spans of the leading requests of the first round.
    pub spans: Vec<Span>,
}

/// Buffers the probes reuse across requests, as a session would.
struct ProbeScratch {
    ids: Vec<u64>,
    fetch: FetchScratch,
    merged: PointBlock,
    sky: SkylineScratch,
    sky_out: PointBlock,
    rng: StdRng,
}

/// Per stream position, the least time seen over the rounds: the load
/// pass's estimator, a replica of each query that the host left alone.
struct Least {
    /// One loop iteration, with everything the loop does for the query.
    iteration_ns: Vec<u64>,
    /// Its `Session::execute` call.
    execute_ns: Vec<u64>,
}

impl Least {
    fn new(positions: usize) -> Least {
        Least { iteration_ns: vec![u64::MAX; positions], execute_ns: vec![u64::MAX; positions] }
    }

    fn keep(slot: &mut u64, ns: u64) {
        *slot = (*slot).min(ns);
    }
}

/// Runs an untraced replica of a traced round: the same fresh service,
/// warm-up and parse-execute-reply loop, with unrecorded requests and
/// neither spans nor probes. Returns the wall nanoseconds of the loop.
fn plain_round(
    service: &Service<'_>,
    warmup: &[String],
    timed: &[String],
    least: &mut Least,
) -> Result<u64, String> {
    let mut session = service.session();
    warm_up(&mut session, warmup)?;
    let loop_start = Instant::now();
    for (pos, line) in timed.iter().enumerate() {
        let t0 = Instant::now();
        let req = QueryRequest::new(parse_query(line)?);
        let t1 = Instant::now();
        let outcome = session.execute(&req).map_err(|e| format!("query {pos} failed: {e}"))?;
        Least::keep(&mut least.execute_ns[pos], t1.elapsed().as_nanos() as u64);
        black_box(proto::query_reply(&outcome));
        Least::keep(&mut least.iteration_ns[pos], t0.elapsed().as_nanos() as u64);
    }
    Ok(loop_start.elapsed().as_nanos() as u64)
}

/// Runs pairs of rounds — an untraced replica, then the traced round:
/// fresh service, warm-up, the timed stream under spans and probes —
/// until `seconds` of loops have run. The untraced replicas are the
/// baseline of the two overhead ratios, measured in the same process and
/// the same minutes as what they are compared with; both sides of a ratio
/// are sums over the stream of each position's least time.
pub fn trace(w: &Workload, inputs: &Inputs, seconds: f64) -> Result<TraceOutput, String> {
    let (table, warmup, timed) = load(inputs)?;
    let dims = table.dims();
    let config = service_config(w);
    let data_bounds = Aabb::bounding(table.all_points()).ok_or("empty table")?;
    let queries: Vec<Constraints> =
        timed.iter().map(|l| parse_query(l)).collect::<Result<_, _>>()?;

    let build = Instant::now();
    let rebuilt = Table::build(table.all_points().to_vec(), *table.config());
    let build_s = build.elapsed().as_secs_f64();
    drop(rebuilt.map_err(|e| format!("rebuild table: {e}"))?);

    let block = || PointBlock::new(dims).map_err(|e| e.to_string());
    let mut scratch = ProbeScratch {
        ids: Vec::new(),
        fetch: FetchScratch::new(),
        merged: block()?,
        sky: SkylineScratch::new(),
        sky_out: block()?,
        rng: StdRng::seed_from_u64(config.cbcs.seed),
    };
    let mut tracer = Tracer {
        origin: Instant::now(),
        sum_ns: [0; LAYERS],
        calls: [0; LAYERS],
        spans: Vec::new(),
        keep_spans: true,
        tally: true,
        request: 0,
    };
    let (mut plain, mut traced) = (Least::new(timed.len()), Least::new(timed.len()));
    let mut plain_loop_ns = 0u64;
    let (mut lookups, mut scans, mut plan_regions, mut plan_retained) = (0u64, 0u64, 0u64, 0u64);
    let mut loop_ns = 0u64;
    let mut rtree = [0.0; 4];

    let mut round = 0;
    // Another pair of rounds starts only if, at the pace so far, it fits.
    while round == 0
        || ((loop_ns + plain_loop_ns) as f64) * (1.0 + 1.0 / round as f64) <= seconds * 1e9
    {
        let untraced = Service::open(&table, config.clone());
        plain_loop_ns += plain_round(&untraced, &warmup, &timed, &mut plain)?;
        drop(untraced);

        let service = Service::open(&table, config.clone());
        let mut session = service.session();
        warm_up(&mut session, &warmup)?;

        let loop_start = Instant::now();
        // An iteration lasts until the next one starts (the probes leave
        // it at several points).
        let mut iteration_start = tracer.now();
        for (pos, line) in timed.iter().enumerate() {
            let now = tracer.now();
            if let Some(previous) = pos.checked_sub(1) {
                Least::keep(&mut traced.iteration_ns[previous], now - iteration_start);
            }
            iteration_start = now;
            tracer.keep_spans = round == 0 && pos < TRACE_FILE_REQUESTS;
            tracer.request = pos as u32;
            // Probed requests free a whole cache clone when they end, and
            // the allocator charges the clean-up to whoever allocates
            // next: the request after a probed one stays out of the totals.
            let probed = pos % PROBE_EVERY == 0;
            let after_probed = pos % PROBE_EVERY == 1;
            let snap = tracer.probe(Layer::Snapshot, || service.cache().snapshot());
            // Only a probed request keeps the snapshot it is about to
            // search; otherwise the publish frees it, as in production.
            let snap = probed.then_some(snap);

            // ---- the request: parse -> execute -> reply ----
            tracer.tally = !after_probed;
            let t0 = tracer.now();
            let parsed = proto::parse_request(line);
            let t1 = tracer.now();
            let Ok(Request::Query { constraints, .. }) = parsed else {
                return Err(format!("query {pos} does not parse"));
            };
            let req = QueryRequest::new(constraints).recorded();
            let t2 = tracer.now();
            let outcome = session.execute(&req).map_err(|e| format!("query {pos} failed: {e}"))?;
            let t3 = tracer.now();
            let reply = proto::query_reply(&outcome);
            let t4 = tracer.now();
            black_box(&reply);
            Least::keep(&mut traced.execute_ns[pos], t3 - t2);

            let root = tracer.record(Layer::Request, None, t0, t4);
            tracer.record(Layer::Parse, Some(root), t0, t1);
            let execute = tracer.record(Layer::Execute, Some(root), t2, t3);
            tracer.record(Layer::Reply, Some(root), t3, t4);
            // The report gives phase durations, not start times: the
            // phase spans are laid end to end from the start of execute.
            // The fetch phase is recorded with the cost model's simulated
            // latency added; only its measured part becomes a span.
            if let Some(report) = &outcome.report {
                let mut cursor = t2;
                for (phase, layer, _) in PHASES {
                    let mut ns = report.phase_ns(phase);
                    if phase == Phase::Fetch {
                        ns = ns.saturating_sub(outcome.stats.fetch_sim_ns);
                    }
                    if ns > 0 {
                        let end = (cursor + ns).min(t3);
                        tracer.record(layer, Some(execute), cursor, end);
                        cursor = end;
                    }
                }
            }
            tracer.tally = true;

            // ---- probes: each layer's public function, replayed ----
            let c = &req.constraints;
            let region = c.region();
            let empty = tracer.probe(Layer::ProbeEmpty, || table.probe_region_empty(&region));
            // A provably empty region ends the real request here.
            let Some(snap) = snap.filter(|_| !empty) else { continue };
            let found = tracer.probe(Layer::Lookup, || snap.lookup_into(c, &mut scratch.ids));
            lookups += 1;
            scans += found.scans;
            let ids = &scratch.ids;
            let picked = tracer.probe(Layer::Select, || {
                config.cbcs.strategy.select_indexed(
                    ids.len(),
                    |i| snap.get(ids[i]).expect("lookup ids are live in their snapshot"),
                    c,
                    &data_bounds,
                    &mut scratch.rng,
                )
            });
            let item = picked.and_then(|i| snap.get(ids[i]));
            let plan = item.map(|item| {
                tracer.probe(Layer::Plan, || {
                    cases::plan(&item.constraints, &item.skyline, c, config.cbcs.mpr)
                })
            });
            let (fetch_plan, needs_skyline) = match &plan {
                Some(p) => {
                    plan_regions += p.regions.len() as u64;
                    plan_retained += p.retained.len() as u64;
                    (FetchPlan::remainder(p.regions.clone()), p.needs_skyline)
                }
                None => (FetchPlan::constrained(c), true),
            };
            tracer.probe(Layer::Fetch, || table.fetch_plan_into(&fetch_plan, &mut scratch.fetch));
            if needs_skyline {
                scratch.merged.clear();
                if let Some(p) = &plan {
                    p.retained.rows().for_each(|row| scratch.merged.push_row(row));
                }
                let fetched = scratch.fetch.rows();
                (0..fetched.len()).for_each(|i| scratch.merged.push_row(fetched.row(i)));
                scratch.sky_out.clear();
                let rows = scratch.merged.as_flat();
                tracer.probe(Layer::Sfs, || {
                    Sfs.compute_block_into(rows, dims, &mut scratch.sky, &mut scratch.sky_out)
                });
            }
            // What a publish does under the master lock: a deep clone of
            // the current cache. An exact hit neither inserts nor clones.
            if plan.as_ref().is_some_and(|p| p.overlap == Overlap::Exact) {
                continue;
            }
            let mut private = tracer.probe(Layer::PublishClone, || Cache::clone(&snap));
            let cost = ItemCost {
                points_read: outcome.stats.points_read,
                fetch_ns: outcome.stats.fetch_sim_ns,
            };
            tracer.probe(Layer::Insert, || {
                private.insert_with_cost(c.clone(), &outcome.skyline, cost)
            });
        }
        if let Some(last) = traced.iteration_ns.last_mut() {
            Least::keep(last, tracer.now() - iteration_start);
        }
        loop_ns += loop_start.elapsed().as_nanos() as u64;
        if round == 0 {
            let sample = &queries[..queries.len().min(1_000)];
            rtree = rtree_probes(&service.cache().snapshot(), dims, sample);
        }
        round += 1;
    }

    let points = table.all_points();
    let rows: Vec<&[f64]> = points.iter().take(1_024).map(|p| p.coords()).collect();
    let scalar = kernel_mtests_per_s(Kernel::Scalar, &rows);
    let wide = kernel_mtests_per_s(Kernel::Wide, &rows);

    // `requests` are the ones in the totals; `round * timed.len()` ran.
    let requests = tracer.calls[Layer::Request as usize];
    let ran = (round * timed.len()) as u64;
    let per_request = |layer: Layer| tracer.sum_ns[layer as usize] as f64 / requests as f64;
    let phases_total: f64 = PHASES.iter().map(|&(_, layer, _)| per_request(layer)).sum();
    let execute_self = per_request(Layer::Execute) - phases_total;
    let plans = tracer.calls[Layer::Plan as usize].max(1) as f64;

    let total = |least_ns: &[u64]| least_ns.iter().sum::<u64>() as f64;
    let mut layers = vec![
        ("serve.proto.parse_ns", tracer.mean(Layer::Parse)),
        ("serve.proto.reply_ns", tracer.mean(Layer::Reply)),
        ("core.service.execute_ns", tracer.mean(Layer::Execute)),
        ("core.service.self_ns", execute_self),
        ("core.shared.snapshot_ns", tracer.mean(Layer::Snapshot)),
        ("core.shared.publish_clone_ns", tracer.mean(Layer::PublishClone)),
        ("core.cache.lookup_ns", tracer.mean(Layer::Lookup)),
        ("core.cache.lookup_scans", scans as f64 / lookups.max(1) as f64),
        ("core.cache.insert_ns", tracer.mean(Layer::Insert)),
        ("core.strategy.select_ns", tracer.mean(Layer::Select)),
        ("core.cases.plan_ns", tracer.mean(Layer::Plan)),
        ("core.cases.regions_per_plan", plan_regions as f64 / plans),
        ("core.cases.retained_per_plan", plan_retained as f64 / plans),
        ("storage.build_s", build_s),
        ("storage.fetch_ns", tracer.mean(Layer::Fetch)),
        ("storage.probe_ns", tracer.mean(Layer::ProbeEmpty)),
        ("algos.sfs_ns", tracer.mean(Layer::Sfs)),
        ("geom.kernel.scalar_mtests_per_s", scalar),
        ("geom.kernel.wide_mtests_per_s", wide),
        ("rtree.search_ns", rtree[0]),
        ("rtree.insert_ns", rtree[1]),
        ("rtree.clone_ns", rtree[2]),
        ("rtree.height", rtree[3]),
        // Recorded against unrecorded execute, and the traced loop (spans
        // and probes included) against the untraced one.
        ("obs.record_overhead_ratio", total(&traced.execute_ns) / total(&plain.execute_ns)),
        ("trace.overhead_ratio", total(&traced.iteration_ns) / total(&plain.iteration_ns)),
        ("trace.requests", ran as f64),
        ("trace.probe_samples", lookups as f64),
    ];
    // The phase metrics are per request (a phase that did not run counts
    // as zero), so they add up to the execute span like the table below.
    layers.extend(PHASES.iter().map(|&(_, layer, metric)| (metric, per_request(layer))));

    let request_self = per_request(Layer::Request)
        - per_request(Layer::Parse)
        - per_request(Layer::Execute)
        - per_request(Layer::Reply);
    let mut self_time = vec![
        (Layer::Request.name(), request_self),
        (Layer::Parse.name(), per_request(Layer::Parse)),
        (Layer::Execute.name(), execute_self),
    ];
    self_time.extend(PHASES.iter().map(|&(_, layer, _)| (layer.name(), per_request(layer))));
    self_time.push((Layer::Reply.name(), per_request(Layer::Reply)));

    plain.iteration_ns.sort_unstable();
    Ok(TraceOutput {
        layers,
        self_time,
        requests: ran,
        request_p50_ns: percentile(&plain.iteration_ns, 50.0) as f64,
        spans: tracer.spans,
    })
}

impl TraceOutput {
    pub fn to_json(&self) -> Json {
        let pairs =
            |v: &[(&'static str, f64)]| Json::obj(v.iter().map(|&(k, x)| (k, Json::Num(x))));
        Json::obj([
            ("pass", Json::Str("trace".to_owned())),
            ("requests", Json::Num(self.requests as f64)),
            ("request_p50_ns", Json::Num(self.request_p50_ns)),
            ("layers", pairs(&self.layers)),
            ("self_time", pairs(&self.self_time)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::spec::{small, WORKLOADS};

    /// Self time of every span: its duration minus the part of it that its
    /// child spans cover (children of one parent never overlap here).
    fn self_times(spans: &[Span]) -> Vec<u64> {
        let index: BTreeMap<u32, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans {
            if let Some(&parent) = s.parent.and_then(|p| index.get(&p)) {
                own[parent] = own[parent].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    fn inputs(w: &Workload, tag: &str) -> Inputs {
        let dir = std::env::temp_dir().join(format!("skybench-inproc-{}-{tag}", w.name));
        generate(w, 5, &dir).unwrap()
    }

    #[test]
    fn counts_pass_repeats_exactly_and_agrees_with_the_oracle() {
        for w in WORKLOADS.iter().map(small) {
            let inputs = inputs(&w, "counts");
            let first = counts(&w, &inputs).unwrap();
            let second = counts(&w, &inputs).unwrap();
            assert_eq!(first, second, "{}: counts must repeat exactly", w.name);
            assert_eq!(first.layers(), second.layers());
            assert!(first.oracle_checked > 0, "{}", w.name);
            assert_eq!(first.oracle_failed, 0, "{}", w.name);
            assert_eq!(first.tally.queries as usize, w.timed);
            assert!(first.tally.allocs > 0);
            std::fs::remove_dir_all(&inputs.dir).unwrap();
        }
    }

    #[test]
    fn span_self_times_sum_to_the_root_span() {
        let w = small(&WORKLOADS[0]);
        let inputs = inputs(&w, "trace");
        let out = trace(&w, &inputs, 0.0).unwrap();
        std::fs::remove_dir_all(&inputs.dir).unwrap();
        assert_eq!(out.requests as usize, w.timed);

        // Per request: the selves of the request's span tree add up to
        // the root span's duration.
        let own = self_times(&out.spans);
        let mut by_request: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (span, own) in out.spans.iter().zip(&own) {
            if span.probe {
                assert_eq!(span.parent, None, "probes are siblings, not children");
                continue;
            }
            let entry = by_request.entry(span.request).or_default();
            entry.0 += own;
            if span.name == "request" {
                entry.1 = span.end_ns - span.start_ns;
            }
        }
        assert_eq!(by_request.len(), w.timed);
        for (request, (selves, root)) in by_request {
            assert_eq!(selves, root, "request {request}");
        }

        // And in aggregate: the self-time table sums to the mean request
        // span (over the requests that enter the totals).
        let table_total: f64 = out.self_time.iter().map(|(_, ns)| ns).sum();
        let roots: Vec<f64> = out
            .spans
            .iter()
            .filter(|s| s.name == "request" && s.request as usize % PROBE_EVERY != 1)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        let root_mean = roots.iter().sum::<f64>() / roots.len() as f64;
        assert!((table_total - root_mean).abs() < 1.0, "{table_total} vs {root_mean}");

        let text = spans_jsonl(&out.spans);
        assert_eq!(text.lines().count(), out.spans.len());
        for line in text.lines().take(50) {
            Json::parse(line).expect("every span line is JSON");
        }
    }
}
