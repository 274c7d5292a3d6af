//! `skycache` — command-line front end for the constrained-skyline cache
//! library: generate datasets, inspect them, pose queries, and compare
//! the paper's methods.

mod args;
mod commands;

use std::process::ExitCode;

const USAGE: &str = "skycache — cache-based constrained skyline queries (EDBT 2015 reproduction)

usage: skycache <command> [args]

commands:
  generate   create a dataset and save it
             --dist independent|correlated|anti | --real-estate
             --dims N (synthetic only)  --n COUNT  --seed S  --out FILE
  info       print a dataset summary
             skycache info FILE
  query      answer one constrained skyline query
             skycache query FILE --range lo:hi[,lo:hi...]
             [--method baseline|bbs|cbcs]  [--limit ROWS]
  workload   run a generated workload through CBCS
             skycache workload FILE [--interactive N | --independent N]
             [--seed S] [--k NN] [--strategy NAME]
  compare    run the same workload through Baseline, BBS and CBCS
             skycache compare FILE [--queries N] [--seed S] [--k NN]

strategies: random, maxoverlap, maxoverlapsp, prioritized1d,
            prioritizednd-std, prioritizednd-bad, optimumdistance";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };

    let parsed = match args::Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let result = match command.as_str() {
        "generate" => commands::generate(&parsed),
        "info" => commands::info(&parsed),
        "query" => commands::query(&parsed),
        "workload" => commands::workload(&parsed),
        "compare" => commands::compare(&parsed),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command: {other}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
