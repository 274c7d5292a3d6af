//! `skyserve` — serve constrained skyline queries over TCP.
//!
//! Builds a synthetic table and answers the line protocol until killed:
//!
//! ```text
//! cargo run --release -p skycache-serve --bin skyserve -- --addr 127.0.0.1:7878
//! printf 'Q 0.2 0.8 0.2 0.8 0.2 0.8\nSTATS\nQUIT\n' | nc 127.0.0.1 7878
//! ```

use std::process::ExitCode;

use skycache_core::ServiceConfig;
use skycache_datagen::{Distribution, SyntheticGen};
use skycache_serve::serve;
use skycache_storage::{Table, TableConfig};

const USAGE: &str = "usage: skyserve [options]
  --addr <host:port>   listen address (default 127.0.0.1:7878; port 0 picks one)
  --points <n>         synthetic table size (default 100000)
  --dims <d>           dimensionality (default 3)
  --seed <s>           data seed (default 42)
  --dist <name>        independent | correlated | anticorrelated (default independent)";

struct Options {
    addr: String,
    points: usize,
    dims: usize,
    seed: u64,
    dist: Distribution,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:7878".to_owned(),
        points: 100_000,
        dims: 3,
        seed: 42,
        dist: Distribution::Independent,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("--{flag} requires a value"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("addr")?.to_owned(),
            "--points" => {
                opts.points =
                    value("points")?.parse().map_err(|_| "--points expects a count".to_owned())?;
            }
            "--dims" => {
                opts.dims =
                    value("dims")?.parse().map_err(|_| "--dims expects a count".to_owned())?;
            }
            "--seed" => {
                opts.seed =
                    value("seed")?.parse().map_err(|_| "--seed expects an integer".to_owned())?;
            }
            "--dist" => {
                opts.dist = match value("dist")? {
                    "independent" => Distribution::Independent,
                    "correlated" => Distribution::Correlated,
                    "anticorrelated" => Distribution::AntiCorrelated,
                    other => return Err(format!("unknown distribution {other:?}")),
                };
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("skyserve: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let points = SyntheticGen::new(opts.dist, opts.dims, opts.seed).generate(opts.points);
    let table = match Table::build(points, TableConfig::default()) {
        Ok(table) => table,
        Err(e) => {
            eprintln!("skyserve: could not build table: {e}");
            return ExitCode::FAILURE;
        }
    };

    let handle = match serve(table, ServiceConfig::default(), opts.addr.as_str()) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("skyserve: could not bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "skyserve listening on {} ({} {} points, {} dims, seed {})",
        handle.addr(),
        opts.points,
        opts.dist.label(),
        opts.dims,
        opts.seed,
    );
    match handle.wait() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("skyserve: server error: {e}");
            ExitCode::FAILURE
        }
    }
}
