//! `skybench` — one end-to-end + per-layer benchmark of skycache through
//! the `skyserve` TCP server. See `benchmark/README.md`.
//!
//! ```text
//! skybench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! skybench all [--seed N]                                  the full run; writes benchmark/out/results-seedN.json
//! skybench compare A.json B.json
//! skybench spec                                            print BENCHMARK.json
//! skybench pass counts|load|trace --workload W --dir D --seconds S
//!                                                          one pass over written inputs (what a run spawns)
//! ```
//!
//! Every command runs from the repository root.

mod alloc;
mod gen;
mod inproc;
mod json;
mod load;
mod report;
mod run;
mod spec;
mod stats;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  skybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  skybench all [--seed <n>]
  skybench compare <A.json> <B.json>
  skybench spec
workloads: explore scatter hot grow; run from the repository root";

/// `--flag value` pairs after the subcommand, plus positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args { flags: Vec::new(), positional: Vec::new() };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(flag) => {
                    let value = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                    parsed.flags.push((flag.to_owned(), value.clone()));
                }
                None => parsed.positional.push(arg.clone()),
            }
        }
        Ok(parsed)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(f, _)| f == flag) {
            None => Ok(None),
            Some((_, v)) => {
                v.parse().map(Some).map_err(|_| format!("bad value for --{flag}: {v:?}"))
            }
        }
    }

    /// Rejects any flag a command does not take.
    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(f, _)| !known.contains(&f.as_str())) {
            Some((flag, _)) => Err(format!("unknown flag --{flag}")),
            None => Ok(()),
        }
    }

    fn require<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.get(flag)?.ok_or_else(|| format!("--{flag} is required"))
    }

    fn workload(&self) -> Result<&'static spec::Workload, String> {
        let name: String = self.require("workload")?;
        spec::workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(cmd @ ("all" | "compare" | "spec" | "pass")) => (cmd, &argv[1..]),
        _ => ("run", argv),
    };
    let args = Args::parse(rest)?;
    let pass_fail = |ok: bool| if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    match command {
        "run" => {
            args.only(&["workload", "seed", "seconds", "trace"])?;
            let trace: u8 = args.require("trace")?;
            if trace > 1 {
                return Err("--trace takes 0 or 1".to_owned());
            }
            let out = run::run(
                args.workload()?,
                args.require("seed")?,
                args.require("seconds")?,
                trace == 1,
            )?;
            println!("{}", out.result.compact());
            Ok(ExitCode::SUCCESS)
        }
        "pass" => {
            args.only(&["workload", "dir", "seconds"])?;
            let kind = args.positional.first().ok_or("pass needs a kind")?;
            let dir: PathBuf = args.require("dir")?;
            let doc = run::pass(kind, args.workload()?, &dir, args.require("seconds")?)?;
            println!("{}", doc.compact());
            Ok(ExitCode::SUCCESS)
        }
        "all" => {
            args.only(&["seed"])?;
            Ok(pass_fail(report::all(args.get("seed")?.unwrap_or(1))?))
        }
        "compare" => match args.positional.as_slice() {
            [a, b] => Ok(pass_fail(report::compare(Path::new(a), Path::new(b))?)),
            _ => Err("compare takes two results files".to_owned()),
        },
        "spec" => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => unreachable!("command is one of the matched names"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    match dispatch(&argv) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("skybench: {msg}");
            ExitCode::FAILURE
        }
    }
}
