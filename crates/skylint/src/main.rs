//! `skylint` CLI: `check [--root PATH]`, `rules`.

use std::path::Path;
use std::process::ExitCode;

use skylint::report::render_human;
use skylint::rules::RULES;
use skylint::{scan, Policy};

const USAGE: &str = "\
skylint — static analysis for the skycache workspace

USAGE:
    skylint check [--root PATH]    lint the tree under PATH (default `.`)
                                   with the policy in PATH/skylint.toml
    skylint rules                  list every rule with a one-line summary

Exit codes: 0 clean · 1 violations found · 2 usage, policy or I/O error.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["check"] => check(Path::new(".")),
        ["check", "--root", root] => check(Path::new(root)),
        ["rules"] => {
            for (id, summary) in RULES {
                println!("{id} — {summary}");
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn check(root: &Path) -> ExitCode {
    let outcome = match Policy::load(root).and_then(|policy| scan(root, &policy)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("skylint: {e}");
            return ExitCode::from(2);
        }
    };
    if outcome.findings.is_empty() {
        println!(
            "skylint: clean — {} files, {} lines, {} fns, {} call edges, {} rules",
            outcome.files_scanned,
            outcome.lines_scanned,
            outcome.functions_analyzed,
            outcome.call_edges,
            RULES.len(),
        );
        ExitCode::SUCCESS
    } else {
        print!("{}", render_human(&outcome.findings));
        ExitCode::from(1)
    }
}
