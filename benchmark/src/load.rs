//! The load pass: tracing off, a real `skyserve` on loopback, two
//! closed-loop clients. Produces set-up time, peak memory and every
//! client-observed timing, and checks every reply.
//!
//! A pass is a sequence of rounds. Each round starts a fresh server over
//! a freshly loaded table, warms it up, then replays the same timed
//! stream, so rounds are replicas of one experiment that differ only by
//! what the host did to them. The shared bench host runs at full speed
//! only part of the time: it slows by about 1.45x, and takes the CPU away
//! altogether, in bursts of milliseconds to seconds whose share of the
//! time drifts over minutes (see the README). A query is far shorter
//! than a burst, so among enough replicas of it some ran on a quiet host:
//! each query's latency is its **minimum over the rounds**, the latency
//! percentiles are taken over the timed queries of those minima,
//! throughput is what the closed loop reaches at them, and set-up time and
//! CPU time are put together from least parts in the same way. Medians
//! over rounds of whole-round wall time moved two to five times as much.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use skycache_serve::serve;
use skycache_storage::Table;

use crate::gen::{read_lines, Inputs};
use crate::json::Json;
use crate::spec::{service_config, Workload, CLIENTS};
use crate::stats::{
    loadavg_1m, parse_stats, peak_rss_mib, percentile, process_cpu_ns, supported_tail, ServerStats,
};
use crate::wire::{fingerprint, Client};

/// `PING` round trips timed per round for `serve.server.ping_rtt_ns`.
const PINGS: usize = 1_000;

/// Client 0 reads the process CPU clock this many times per round,
/// evenly over its requests: the windows between the readings are to CPU
/// time what a single query is to latency, short enough that among the
/// replicas of one some ran on a quiet host.
const CPU_WINDOWS: usize = 32;

/// What one client thread measured.
struct ClientRun {
    /// Latency of the client's answered requests, in sending order: entry
    /// `i` of client `k` belongs to stream position `k + i * CLIENTS`.
    latencies_ns: Vec<u64>,
    /// Client 0 only: the process CPU clock at the start of each window.
    cpu_marks_ns: Vec<u64>,
    failed: u64,
    start: Instant,
    end: Instant,
}

/// Replays `lines` against `addr` from `CLIENTS` closed-loop clients;
/// client `k` sends positions `k, k + CLIENTS, ..`. A reply fails when it
/// is not `OK`, or when `expected` is given and its fingerprint differs.
/// A connection error fails every request that client had left.
fn drive(addr: SocketAddr, lines: &[Vec<u8>], expected: Option<&[u64]>) -> Vec<ClientRun> {
    let barrier = Barrier::new(CLIENTS);
    thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let barrier = &barrier;
                s.spawn(move || {
                    let positions = (k..lines.len()).step_by(CLIENTS);
                    let mut client = Client::connect(addr);
                    // All clients start together, connected.
                    barrier.wait();
                    let start = Instant::now();
                    let mut latencies_ns = Vec::with_capacity(positions.len());
                    let mut cpu_marks_ns = Vec::new();
                    let window = positions.len().div_ceil(CPU_WINDOWS).max(1);
                    let mut failed = positions.len() as u64;
                    if let Ok(client) = &mut client {
                        failed = 0;
                        for (done, pos) in positions.clone().enumerate() {
                            if k == 0 && done % window == 0 {
                                cpu_marks_ns.push(process_cpu_ns());
                            }
                            let sent = Instant::now();
                            let reply = client.roundtrip(&lines[pos]);
                            let latency = sent.elapsed();
                            // Checking is client think time: after the
                            // latency is taken, before the next send.
                            let Ok(reply) = reply else {
                                failed += (positions.len() - done) as u64;
                                break;
                            };
                            latencies_ns.push(latency.as_nanos() as u64);
                            let print = fingerprint(reply);
                            if print.is_none() || expected.is_some_and(|e| print != Some(e[pos])) {
                                failed += 1;
                            }
                        }
                        drop(client.roundtrip(b"QUIT\n"));
                    }
                    ClientRun { latencies_ns, cpu_marks_ns, failed, start, end: Instant::now() }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load client panicked")).collect()
    })
}

/// The clients' latencies by stream position; 0 where no answer came.
fn by_position(clients: &[ClientRun], positions: usize) -> Vec<u64> {
    let mut latency_ns = vec![0u64; positions];
    for (k, client) in clients.iter().enumerate() {
        for (i, &ns) in client.latencies_ns.iter().enumerate() {
            latency_ns[k + i * CLIENTS] = ns;
        }
    }
    latency_ns
}

/// One round's measurements.
pub struct Round {
    /// Wall time of the whole set-up, and of its part before the warm-up
    /// (load the table, start the server, answer a `PING`).
    pub setup_s: f64,
    pub start_s: f64,
    /// Warm-up latency by stream position; 0 where no answer came.
    pub warm_latency_ns: Vec<u64>,
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub cpu_ms_per_query: f64,
    /// Process CPU nanoseconds of each of the round's [`CPU_WINDOWS`].
    pub cpu_window_ns: Vec<u64>,
    pub ping_rtt_ns: f64,
    pub wall_s: f64,
    pub attempted: u64,
    /// Timed queries that were answered: the latency sample count.
    pub answered: u64,
    pub failed: u64,
    /// Highest percentile with ten samples beyond it, and its value.
    pub tail: Option<(f64, f64)>,
    /// `STATS` counters over the timed section only.
    pub served: ServerStats,
    pub loadavg: (f64, f64),
    /// Latency by stream position; 0 where no answer came.
    pub latency_ns: Vec<u64>,
}

fn with_newline(lines: Vec<String>) -> Vec<Vec<u8>> {
    lines.into_iter().map(|l| format!("{l}\n").into_bytes()).collect()
}

fn round(
    w: &Workload,
    inputs: &Inputs,
    warmup: &[Vec<u8>],
    timed: &[Vec<u8>],
    expected: &[u64],
) -> Result<Round, String> {
    let load_before = loadavg_1m();

    // ---- set-up: load the table, start the server, PING, warm up ----
    let setup = Instant::now();
    let table = Table::load(inputs.table()).map_err(|e| format!("load table: {e}"))?;
    let server =
        serve(table, service_config(w), "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
    let addr = server.addr();
    let io = |e: std::io::Error| format!("control connection: {e}");
    let mut control = Client::connect(addr).map_err(io)?;
    control.roundtrip(b"PING\n").map_err(io)?;
    let start_s = setup.elapsed().as_secs_f64();
    let warm = drive(addr, warmup, None);
    let warm_failed: u64 = warm.iter().map(|c| c.failed).sum();
    if warm_failed > 0 {
        return Err(format!("{warm_failed} warm-up queries failed"));
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let mut pings: Vec<u64> = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let sent = Instant::now();
        control.roundtrip(b"PING\n").map_err(io)?;
        pings.push(sent.elapsed().as_nanos() as u64);
    }
    pings.sort_unstable();

    // ---- timed section ----
    let before = parse_stats(control.roundtrip(b"STATS\n").map_err(io)?)?;
    let clients = drive(addr, timed, Some(expected));
    let cpu_marks_ns = [clients[0].cpu_marks_ns.as_slice(), &[process_cpu_ns()]].concat();
    let cpu_window_ns: Vec<u64> = cpu_marks_ns.windows(2).map(|w| w[1] - w[0]).collect();
    let after = parse_stats(control.roundtrip(b"STATS\n").map_err(io)?)?;
    drop(control.roundtrip(b"QUIT\n"));
    server.shutdown().map_err(|e| format!("server shutdown: {e}"))?;

    let start = clients.iter().map(|c| c.start).min().expect("at least one client");
    let end = clients.iter().map(|c| c.end).max().expect("at least one client");
    let wall_s = (end - start).max(Duration::from_nanos(1)).as_secs_f64();
    let latency_ns = by_position(&clients, timed.len());
    let mut latencies: Vec<u64> = latency_ns.iter().copied().filter(|&ns| ns > 0).collect();
    latencies.sort_unstable();
    if latencies.is_empty() {
        return Err("no timed query was answered".to_owned());
    }
    let us = |pct: f64| percentile(&latencies, pct) as f64 / 1_000.0;
    let attempted = timed.len() as u64;
    Ok(Round {
        setup_s,
        start_s,
        warm_latency_ns: by_position(&warm, warmup.len()),
        qps: latencies.len() as f64 / wall_s,
        p50_us: us(50.0),
        p99_us: us(99.0),
        cpu_ms_per_query: cpu_window_ns.iter().sum::<u64>() as f64 / 1e6 / attempted as f64,
        cpu_window_ns,
        ping_rtt_ns: percentile(&pings, 50.0) as f64,
        wall_s,
        attempted,
        answered: latencies.len() as u64,
        failed: clients.iter().map(|c| c.failed).sum(),
        tail: supported_tail(latencies.len()).map(|pct| (pct, us(pct))),
        served: ServerStats {
            coalesced: after.coalesced - before.coalesced,
            negative_hits: after.negative_hits - before.negative_hits,
            negative_inserts: after.negative_inserts - before.negative_inserts,
            computes: after.computes - before.computes,
            cache_len: after.cache_len,
            epoch: after.epoch - before.epoch,
        },
        loadavg: (load_before, loadavg_1m()),
        latency_ns,
    })
}

/// Each stream position's least latency over the rounds that answered it.
fn least_latency(rounds: &[Round], stream: fn(&Round) -> &[u64]) -> Vec<Option<u64>> {
    let positions = rounds.first().map_or(0, |r| stream(r).len());
    (0..positions)
        .map(|pos| rounds.iter().map(|r| stream(r)[pos]).filter(|&ns| ns > 0).min())
        .collect()
}

/// How long the closed loop takes at these latencies: a client is done
/// when its latencies have added up, and the stream is done when the
/// slower client is.
fn stream_ns(latency_ns: &[Option<u64>]) -> u64 {
    (0..CLIENTS)
        .map(|k| latency_ns.iter().skip(k).step_by(CLIENTS).flatten().sum::<u64>())
        .max()
        .unwrap_or(0)
}

/// Runs rounds for `seconds` (at least `min_rounds` of them), and reports
/// per-round raw values plus the metrics taken over all rounds.
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    seconds: f64,
    min_rounds: usize,
    expected: &[u64],
) -> Result<Json, String> {
    let io = |e: std::io::Error| format!("read query file: {e}");
    let warmup = with_newline(read_lines(&inputs.warmup()).map_err(io)?);
    let timed = with_newline(read_lines(&inputs.timed()).map_err(io)?);
    if expected.len() != timed.len() {
        return Err("expected fingerprints do not match the timed stream".to_owned());
    }

    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    // Peak RSS is read after the first round: the same work on every
    // run, where the peak over all rounds would grow with their number
    // (and so with how fast the build under test is).
    let mut peak_rss_mb = 0.0;
    while rounds.len() < min_rounds || started.elapsed().as_secs_f64() < seconds {
        rounds.push(round(w, inputs, &warmup, &timed, expected)?);
        if rounds.len() == 1 {
            peak_rss_mb = peak_rss_mib();
        }
    }

    // Each query's latency on a quiet host: its minimum over the rounds.
    let best_ns = least_latency(&rounds, |r| &r.latency_ns);
    let mut sorted: Vec<u64> = best_ns.iter().flatten().copied().collect();
    if sorted.is_empty() {
        return Err("no timed query was answered".to_owned());
    }
    let qps = sorted.len() as f64 / (stream_ns(&best_ns).max(1) as f64 / 1e9);
    sorted.sort_unstable();
    let best_us = |pct: f64| Json::Num(percentile(&sorted, pct) as f64 / 1_000.0);

    // Set-up time the same way: the least start, and the warm-up stream
    // at its queries' least latencies.
    let setup_s = rounds.iter().map(|r| r.start_s).fold(f64::MAX, f64::min)
        + stream_ns(&least_latency(&rounds, |r| &r.warm_latency_ns)) as f64 / 1e9;

    // CPU time likewise, by windows, each at its least but one over the
    // rounds: the very least is now and then a window through which the
    // other client happened to stand still.
    let cpu_ns: u64 = (0..CPU_WINDOWS)
        .filter_map(|w| {
            let mut seen: Vec<u64> =
                rounds.iter().filter_map(|r| r.cpu_window_ns.get(w)).copied().collect();
            seen.sort_unstable();
            seen.get(1).or(seen.first()).copied()
        })
        .sum();

    let values = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let least = |f: fn(&Round) -> f64| Json::Num(values(f).into_iter().fold(f64::MAX, f64::min));
    let raw = |f: fn(&Round) -> f64| Json::Arr(values(f).into_iter().map(Json::Num).collect());
    let per_query = |f: fn(&ServerStats) -> u64| {
        let total: u64 = rounds.iter().map(|r| f(&r.served)).sum();
        Json::Num(total as f64 / rounds.iter().map(|r| r.attempted).sum::<u64>() as f64)
    };
    Ok(Json::obj([
        ("pass", Json::Str("load".to_owned())),
        ("rounds", Json::Num(rounds.len() as f64)),
        ("samples_per_round", Json::Num(timed.len() as f64)),
        ("attempted", Json::Num(rounds.iter().map(|r| r.attempted).sum::<u64>() as f64)),
        ("failed", Json::Num(rounds.iter().map(|r| r.failed).sum::<u64>() as f64)),
        (
            "metrics",
            Json::obj([
                ("setup_s", Json::Num(setup_s)),
                ("qps", Json::Num(qps)),
                ("p50_us", best_us(50.0)),
                ("p99_us", best_us(99.0)),
                ("cpu_ms_per_query", Json::Num(cpu_ns as f64 / 1e6 / timed.len() as f64)),
                ("peak_rss_mb", Json::Num(peak_rss_mb)),
            ]),
        ),
        (
            "layers",
            Json::obj([
                ("serve.server.ping_rtt_ns", least(|r| r.ping_rtt_ns)),
                ("core.service.negative_hit_ratio", per_query(|s| s.negative_hits)),
                ("core.service.negative_insert_ratio", per_query(|s| s.negative_inserts)),
                ("core.service.coalesced_ratio", per_query(|s| s.coalesced)),
            ]),
        ),
        (
            "raw",
            Json::obj([
                ("setup_s", raw(|r| r.setup_s)),
                ("qps", raw(|r| r.qps)),
                ("p50_us", raw(|r| r.p50_us)),
                ("p99_us", raw(|r| r.p99_us)),
                ("cpu_ms_per_query", raw(|r| r.cpu_ms_per_query)),
                ("wall_s", raw(|r| r.wall_s)),
                ("samples", raw(|r| r.answered as f64)),
                ("tail_pct", raw(|r| r.tail.map_or(f64::NAN, |t| t.0))),
                ("tail_us", raw(|r| r.tail.map_or(f64::NAN, |t| t.1))),
                ("loadavg_start", raw(|r| r.loadavg.0)),
                ("loadavg_end", raw(|r| r.loadavg.1)),
                ("publishes", raw(|r| r.served.epoch as f64)),
                ("cache_len_end", raw(|r| r.served.cache_len as f64)),
            ]),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::inproc::counts;
    use crate::spec::{small, WORKLOADS};

    #[test]
    fn load_replies_match_the_counts_pass_and_wrong_ones_fail() {
        let w = small(&WORKLOADS[0]);
        let dir = std::env::temp_dir().join("skybench-load-test");
        let inputs = generate(&w, 11, &dir).unwrap();
        let reference = counts(&w, &inputs).unwrap();

        let doc = run(&w, &inputs, 0.0, 2, &reference.fingerprints).unwrap();
        assert_eq!(doc.num("rounds").unwrap(), 2.0);
        assert_eq!(doc.num("attempted").unwrap(), 2.0 * w.timed as f64);
        assert_eq!(doc.num("failed").unwrap(), 0.0);
        for (part, names) in [
            ("metrics", &["setup_s", "peak_rss_mb", "qps", "p50_us", "p99_us"][..]),
            ("layers", &["serve.server.ping_rtt_ns"][..]),
        ] {
            for name in names {
                assert!(doc.get(part).unwrap().num(name).unwrap() > 0.0, "{name}");
            }
        }

        // Every reply checked against a wrong fingerprint must fail.
        let wrong: Vec<u64> = reference.fingerprints.iter().map(|p| p ^ 1).collect();
        let doc = run(&w, &inputs, 0.0, 1, &wrong).unwrap();
        assert_eq!(doc.num("failed").unwrap(), w.timed as f64);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
