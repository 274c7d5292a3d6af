//! Regenerates the paper's evaluation figures as text tables.
//!
//! ```text
//! cargo run --release -p skycache-bench --bin repro -- all
//! cargo run --release -p skycache-bench --bin repro -- fig5 fig9
//! cargo run --release -p skycache-bench --bin repro -- --full fig5   # paper sizes (hours)
//! ```

use std::process::ExitCode;

use skycache_bench::figures::{self, Scale};

const USAGE: &str = "usage: repro [--full] <experiment>...
experiments:
  fig5   runtime vs dataset size, |D|=5, 3 distributions
  fig6   runtime vs dataset size, |D|=3, with exact MPR
  fig7   runtime vs dimensionality (6..10)
  fig8   avg points read vs dataset size (|D|=5 and |D|=3)
  fig9   avg range queries generated vs dimensionality (|S|=5k)
  fig10  avg ms per stage (processing / fetching / skyline)
  fig11  cache search strategies (interactive + independent)
  fig12  real-estate dataset (interactive + independent)
  ablation-replacement   LRU vs LCU under small capacities (interactive + Zipf)
  ablation-k             aMPR nearest-neighbor sweep
  serve                  TCP server under concurrent load: qps/p99 per client count, read scaling (writes BENCH_serve.json)
  all    everything above
timings come from benchmark/run.sh (skybench), schedule exploration from
`cargo test -p skycache-core --test model --test model_serve`";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let wanted: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    if wanted.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }

    let scale = if full { Scale::full() } else { Scale::default() };
    println!(
        "# skycache repro — {} scale{}",
        if full { "paper (full)" } else { "reduced (default)" },
        if full { "; expect hours, as in the original evaluation" } else { "" },
    );

    let all = wanted.contains(&"all");
    let want = |name: &str| all || wanted.contains(&name);
    let mut ran = false;

    for (name, runner) in [
        ("fig5", figures::fig5 as fn(&Scale)),
        ("fig6", figures::fig6),
        ("fig7", figures::fig7),
        ("fig8", figures::fig8),
        ("fig9", figures::fig9),
        ("fig10", figures::fig10),
        ("fig11", figures::fig11),
        ("fig12", figures::fig12),
        ("ablation-replacement", figures::ablation_replacement),
        ("ablation-k", figures::ablation_k),
        ("serve", skycache_bench::serve::serve_bench),
    ] {
        if want(name) {
            runner(&scale);
            ran = true;
        }
    }

    if !ran {
        eprintln!("unknown experiment(s): {wanted:?}\n{USAGE}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
