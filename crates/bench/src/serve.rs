//! `repro serve` — concurrent-load benchmark of the TCP query server
//! (DESIGN.md §16), written to `BENCH_serve.json` (schema
//! `skyserve-bench/2`).
//!
//! Two phases against a real loopback server:
//!
//! 1. **Load matrix** — qps and latency percentiles per client count
//!    over the seeded interactive workload (clients stride the same
//!    query list, so identical queries genuinely collide in flight).
//! 2. **Read scaling** — the cache is warmed with the full workload,
//!    then hit-only throughput is measured per client count; snapshot
//!    reads should scale instead of serializing on the cache lock.
//!
//! Everything data-shaped is seeded; only wall-clock numbers vary.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use skycache_core::ServiceConfig;
use skycache_datagen::Distribution;
use skycache_geom::{Constraints, Point};
use skycache_serve::{serve, ServerHandle};
use skycache_storage::{Table, TableConfig};

use crate::figures::Scale;
use crate::{fmt_size, interactive_queries, print_header, print_row};

/// Data/workload seed for every phase (workload generation is seeded on
/// top of it, so the whole run is reproducible modulo wall clock).
const SEED: u64 = 101;

/// Client counts for the load matrix and read-scaling phases.
const CLIENTS: [usize; 4] = [1, 2, 4, 8];

/// One TCP client speaking the line protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to bench server");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { reader, writer: stream }
    }

    fn roundtrip(&mut self, request: &str) -> String {
        writeln!(self.writer, "{request}").expect("send request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        let reply = line.trim_end().to_owned();
        assert!(reply.starts_with("OK "), "server error for {request:?}: {reply:?}");
        reply
    }
}

/// Serializes a query request line: `Q lo hi lo hi ...`.
fn query_line(c: &Constraints) -> String {
    let mut line = String::from("Q");
    for dim in 0..c.dims() {
        line.push_str(&format!(" {} {}", c.lo()[dim], c.hi()[dim]));
    }
    line
}

/// Server-side counters scraped from a `STATS` reply.
#[derive(Clone, Copy, Debug, Default)]
struct Stats {
    negative_hits: u64,
    computes: u64,
}

fn fetch_stats(addr: SocketAddr) -> Stats {
    let mut client = Client::connect(addr);
    let reply = client.roundtrip("STATS");
    client.roundtrip("QUIT");
    let field = |name: &str| -> u64 {
        reply
            .split(' ')
            .find_map(|t| t.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("missing {name} in {reply:?}"))
            .parse()
            .expect("numeric stats field")
    };
    Stats { negative_hits: field("negative_hits"), computes: field("computes") }
}

fn start_server(points: &[Point]) -> ServerHandle {
    let table =
        Table::build(points.to_vec(), TableConfig::default()).expect("bench table is valid");
    serve(table, ServiceConfig::default(), "127.0.0.1:0").expect("bind loopback server")
}

/// Runs `clients` threads striding `queries`; returns (qps, p50µs, p99µs).
fn drive(addr: SocketAddr, clients: usize, queries: &[String], rounds: usize) -> (f64, u64, u64) {
    let start = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|worker| {
                s.spawn(move || {
                    let mut client = Client::connect(addr);
                    let mut lat = Vec::with_capacity(rounds * queries.len() / clients + 1);
                    for _ in 0..rounds {
                        // All clients walk the same list (offset by their
                        // index), so identical queries overlap in flight.
                        for line in queries.iter().cycle().skip(worker).take(queries.len()) {
                            let t = Instant::now();
                            client.roundtrip(line);
                            lat.push(t.elapsed().as_micros() as u64);
                        }
                    }
                    client.roundtrip("QUIT");
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("bench client")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let pct = |p: usize| latencies[(latencies.len() - 1) * p / 100];
    ((latencies.len() as f64 / wall).max(0.0), pct(50), pct(99))
}

/// One load-matrix row as both a table line and a JSON object.
struct Run {
    clients: usize,
    qps: f64,
    p50_us: u64,
    p99_us: u64,
    stats: Stats,
}

impl Run {
    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\"clients\": {}, \"qps\": {:.1}, \"p50_us\": {}, ",
                "\"p99_us\": {}, \"negative_hits\": {}, \"computes\": {}}}"
            ),
            self.clients,
            self.qps,
            self.p50_us,
            self.p99_us,
            self.stats.negative_hits,
            self.stats.computes,
        )
    }
}

/// `repro serve` entry point.
///
/// # Panics
/// Panics if the server misbehaves.
pub fn serve_bench(scale: &Scale) {
    let n = scale.mid_n / 4;
    let dims = 3;
    let gen = skycache_datagen::SyntheticGen::new(Distribution::Independent, dims, SEED);
    let points = gen.generate(n);
    let table = Table::build(points.clone(), TableConfig::default()).expect("bench table");
    let queries: Vec<String> = interactive_queries(&table, scale.interactive_queries, SEED, None)
        .iter()
        .map(query_line)
        .collect();
    drop(table);

    // ---- Phase 1: load matrix --------------------------------------
    print_header(
        &format!("serve: loopback load, {} points, {} queries", fmt_size(n), queries.len()),
        &["clients", "qps", "p50", "p99", "neg-hits", "computes"].map(String::from),
    );
    let mut runs = Vec::new();
    for clients in CLIENTS {
        let server = start_server(&points);
        let addr = server.addr();
        let (qps, p50_us, p99_us) = drive(addr, clients, &queries, 2);
        let stats = fetch_stats(addr);
        server.shutdown().expect("clean shutdown");
        print_row(
            "",
            &[
                clients.to_string(),
                format!("{qps:.0}"),
                format!("{p50_us}us"),
                format!("{p99_us}us"),
                stats.negative_hits.to_string(),
                stats.computes.to_string(),
            ],
        );
        runs.push(Run { clients, qps, p50_us, p99_us, stats });
    }

    // ---- Phase 2: read scaling over a warm cache -------------------
    let server = start_server(&points);
    let addr = server.addr();
    {
        let mut warm = Client::connect(addr);
        for line in &queries {
            warm.roundtrip(line);
        }
        warm.roundtrip("QUIT");
    }
    let mut scaling = Vec::new();
    println!("\nserve: warm-cache read scaling");
    for clients in CLIENTS {
        let (qps, _, p99_us) = drive(addr, clients, &queries, 2);
        println!("  {clients} client(s): {qps:.0} qps (p99 {p99_us}us)");
        scaling.push(format!("    {{\"clients\": {clients}, \"qps\": {qps:.1}}}"));
    }
    server.shutdown().expect("clean shutdown");

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"skyserve-bench/2\",\n",
            "  \"points\": {},\n",
            "  \"dims\": {},\n",
            "  \"seed\": {},\n",
            "  \"queries\": {},\n",
            "  \"cores\": {},\n",
            "  \"runs\": [\n{}\n  ],\n",
            "  \"read_scaling\": [\n{}\n  ]\n",
            "}}\n"
        ),
        n,
        dims,
        SEED,
        queries.len(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        runs.iter().map(Run::json).collect::<Vec<_>>().join(",\n"),
        scaling.join(",\n"),
    );
    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => println!("wrote BENCH_serve.json"),
        Err(e) => eprintln!("could not write BENCH_serve.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_lines_serialize_bounds_in_order() {
        let c = Constraints::from_pairs(&[(0.25, 0.75), (0.0, 1.0)]).unwrap();
        assert_eq!(query_line(&c), "Q 0.25 0.75 0 1");
    }

    #[test]
    fn run_rows_emit_the_schema_fields() {
        let run = Run {
            clients: 4,
            qps: 1234.5,
            p50_us: 80,
            p99_us: 900,
            stats: Stats { negative_hits: 2, computes: 7 },
        };
        let json = run.json();
        for field in [
            "\"clients\": 4",
            "\"qps\": 1234.5",
            "\"p50_us\": 80",
            "\"p99_us\": 900",
            "\"negative_hits\": 2",
            "\"computes\": 7",
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
    }
}
