//! The full run (`skybench all`: every workload, interleaved repeats, a
//! traced run each, one results file) and `skybench compare`, which
//! judges one results file against another by the benchmark's bounds.

use std::fs;
use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::run::{run, trace_file, RunResult, OUT_DIR};
use crate::spec::{
    Better, Bounded, Workload, END_TO_END, PER_LAYER, REPEATS, RUN_SECONDS, WORKLOADS,
};
use crate::stats::{loadavg_1m, median};

pub const RESULTS_SCHEMA: &str = "skybench-results/1";

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_owned(), |o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
}

/// Runs every workload [`REPEATS`] times untraced (round-robin, so a noisy
/// minute on a shared host hits all workloads alike) and once traced,
/// prints every metric, and writes `benchmark/out/results-seed<seed>.json`.
/// Returns whether no operation failed.
pub fn all(seed: u64) -> Result<bool, String> {
    let (seconds, repeats) = (RUN_SECONDS, REPEATS);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let provenance = Json::obj([
        ("commit", Json::Str(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        ("nproc", Json::Num(cores as f64)),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
        ("repeats", Json::Num(repeats as f64)),
    ]);
    println!("skybench: seed {seed}, {repeats} x {seconds} s per workload, {cores} cores");
    // Noise guard: a warning, not a failure. Only this first reading is
    // the host's own load; later ones hold this benchmark's two busy
    // threads, and are recorded with each repeat.
    let idle_load = loadavg_1m();
    if idle_load > cores as f64 - 1.0 {
        println!(
            "  warning: 1-min loadavg {idle_load:.2} exceeds nproc - 1 = {} before the first \
             repeat; timings may be noisy",
            cores - 1
        );
    }

    let mut untraced: Vec<Vec<(RunResult, f64, f64)>> =
        WORKLOADS.iter().map(|_| Vec::new()).collect();
    for repeat in 0..repeats {
        for (w, runs) in WORKLOADS.iter().zip(&mut untraced) {
            let before = loadavg_1m();
            let r = run(w, seed, seconds, false)?;
            let qps = r.measured("qps");
            println!(
                "  load   {:8} repeat {} of {repeats}: {:.0} queries/s, {} failed",
                w.name,
                repeat + 1,
                qps.unwrap_or(0.0),
                r.failed()
            );
            runs.push((r, before, loadavg_1m()));
        }
    }
    let mut traced = Vec::new();
    for w in &WORKLOADS {
        traced.push(run(w, seed, seconds, true)?);
        println!("  traced {:8}: spans in {}", w.name, trace_file(w).display());
    }

    let mut ok = true;
    let mut workloads = Vec::new();
    for ((w, runs), traced) in WORKLOADS.iter().zip(&untraced).zip(&traced) {
        let (doc, failed) = workload_results(w, runs, traced)?;
        ok &= failed == 0;
        print_workload(w, &doc);
        workloads.push((w.name, doc));
    }
    let results = Json::obj([
        ("schema", Json::Str(RESULTS_SCHEMA.to_owned())),
        ("provenance", provenance),
        ("workloads", Json::obj(workloads)),
    ]);
    let out = Path::new(OUT_DIR).join(format!("results-seed{seed}.json"));
    fs::write(&out, results.pretty()).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("\nwrote {}", out.display());
    Ok(ok)
}

/// Folds one workload's runs into its results entry; also returns the
/// number of failed operations over all of them.
fn workload_results(
    w: &Workload,
    runs: &[(RunResult, f64, f64)],
    traced: &RunResult,
) -> Result<(Json, u64), String> {
    let mut end_to_end = Vec::new();
    for m in &END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .map(|(r, ..)| r.measured(m.name).ok_or(format!("run lacks metric {}", m.name)))
            .collect::<Result<_, _>>()?;
        let (lo, hi) =
            values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        end_to_end.push((
            m.name,
            Json::obj([
                ("unit", Json::Str(m.unit.to_owned())),
                ("median", Json::Num(median(&values))),
                ("min", Json::Num(lo)),
                ("max", Json::Num(hi)),
                ("runs", Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())),
            ]),
        ));
    }
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Ok((
                m.name,
                Json::obj([
                    ("unit", Json::Str(m.unit.to_owned())),
                    (
                        "value",
                        Json::Num(
                            traced
                                .measured(m.name)
                                .ok_or_else(|| format!("traced run lacks {}", m.name))?,
                        ),
                    ),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let sum = |key: &str| -> f64 {
        runs.iter().map(|(r, ..)| r.result.num(key).unwrap_or(0.0)).sum::<f64>()
            + traced.result.num(key).unwrap_or(0.0)
    };
    let failed = sum("failed");
    let load_raw = |r: &RunResult| r.passes.get("load").and_then(|l| l.get("raw")).cloned();
    let repeats = runs
        .iter()
        .map(|(r, before, after)| {
            Json::obj([
                ("loadavg_start", Json::Num(*before)),
                ("loadavg_end", Json::Num(*after)),
                ("rounds", load_raw(r).unwrap_or(Json::Null)),
            ])
        })
        .collect();
    let self_time = traced.passes.get("trace").and_then(|t| t.get("self_time")).cloned();
    Ok((
        Json::obj([
            ("why", Json::Str(w.why.to_owned())),
            ("attempted", Json::Num(sum("attempted"))),
            ("failed", Json::Num(failed)),
            ("fail_ratio", Json::Num(failed / sum("attempted").max(1.0))),
            ("end_to_end", Json::obj(end_to_end)),
            ("per_layer", Json::obj(per_layer)),
            ("self_time_ns", self_time.unwrap_or(Json::Null)),
            ("repeats", Json::Arr(repeats)),
        ]),
        failed as u64,
    ))
}

fn print_workload(w: &Workload, doc: &Json) {
    println!("\n== {} ==  {}", w.name, w.why);
    println!(
        "  attempted {}, failed {}, fail_ratio {}",
        doc.num("attempted").unwrap_or(0.0),
        doc.num("failed").unwrap_or(0.0),
        doc.num("fail_ratio").unwrap_or(0.0)
    );
    println!("  end to end (median of repeats, min - max):");
    for m in &END_TO_END {
        if let Some(e) = doc.get("end_to_end").and_then(|e| e.get(m.name)) {
            println!(
                "    {:<34} {:>14.4} {:<10} ({:.4} - {:.4})",
                m.name,
                e.num("median").unwrap_or(f64::NAN),
                m.unit,
                e.num("min").unwrap_or(f64::NAN),
                e.num("max").unwrap_or(f64::NAN)
            );
        }
    }
    println!("  per layer (traced run):");
    for m in &PER_LAYER {
        if let Some(v) = doc.get("per_layer").and_then(|l| l.get(m.name)?.get("value")?.as_f64()) {
            println!("    {:<42} {:>16.4} {}", m.name, v, m.unit);
        }
    }
    if let Some(rows) = doc.get("self_time_ns").and_then(Json::as_obj) {
        let total: f64 = rows.iter().filter_map(|(_, v)| v.as_f64()).sum();
        println!("  self time per request (traced run, rows sum to the request span):");
        for (name, ns) in rows {
            let ns = ns.as_f64().unwrap_or(0.0);
            println!("    {:<42} {:>12.1} ns {:>6.1} %", name, ns, 100.0 * ns / total.max(1e-9));
        }
        println!("    {:<42} {:>12.1} ns", "= request span", total);
    }
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges candidate runs `b` against baseline runs `a` of one metric
/// (choosing-metrics §6.5): `worse` when `b`'s median is worse than
/// `a`'s by more than the bound; but where either side's own min-max
/// spread is wider than the bound, the medians alone decide nothing —
/// then only strictly separated runs give `ok` or `worse`, anything else
/// is `unresolved`.
pub fn judge(m: &Bounded, a: &[f64], b: &[f64]) -> Verdict {
    let (med_a, med_b) = (median(a), median(b));
    let worse_by = match m.better {
        Better::Lower => (med_b - med_a) / med_a,
        Better::Higher => (med_a - med_b) / med_a,
    };
    let range =
        |v: &[f64]| v.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let ((lo_a, hi_a), (lo_b, hi_b)) = (range(a), range(b));
    let spread = ((hi_a - lo_a) / med_a).max((hi_b - lo_b) / med_b);
    let (all_better, all_worse) = match m.better {
        Better::Lower => (hi_b < lo_a, lo_b > hi_a),
        Better::Higher => (lo_b > hi_a, hi_b < lo_a),
    };
    if spread > m.bound {
        if all_better {
            Verdict::Ok
        } else if all_worse && worse_by > m.bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > m.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn read_results(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(Json::as_str) != Some(RESULTS_SCHEMA) {
        return Err(format!("{} is not a {RESULTS_SCHEMA} file", path.display()));
    }
    Ok(doc)
}

fn runs_of(doc: &Json, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    doc.get("workloads")
        .and_then(|w| w.get(workload)?.get("end_to_end")?.get(metric)?.get("runs")?.as_arr())
        .map(|runs| runs.iter().filter_map(Json::as_f64).collect::<Vec<_>>())
        .filter(|runs| !runs.is_empty())
        .ok_or_else(|| format!("no runs of {workload}/{metric}"))
}

/// Prints the comparison of baseline `a` and candidate `b`; returns
/// whether no metric is `worse`.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (doc_a, doc_b) = (read_results(a)?, read_results(b)?);
    println!("baseline  A = {}\ncandidate B = {}\n", a.display(), b.display());
    println!(
        "{:<8} {:<18} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A min - max",
        "B median",
        "B min - max",
        "B vs A",
        "bound"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (ra, rb) = (runs_of(&doc_a, w.name, m.name)?, runs_of(&doc_b, w.name, m.name)?);
            let verdict = judge(m, &ra, &rb);
            worse += usize::from(verdict == Verdict::Worse);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            let span = |v: &[f64]| {
                let lo = v.iter().copied().fold(f64::MAX, f64::min);
                let hi = v.iter().copied().fold(f64::MIN, f64::max);
                format!("{lo:.4} - {hi:.4}")
            };
            println!(
                "{:<8} {:<18} {:>12.4} {:>25} {:>12.4} {:>25} {:>+7.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                median(&ra),
                span(&ra),
                median(&rb),
                span(&rb),
                100.0 * (median(&rb) - median(&ra)) / median(&ra),
                100.0 * m.bound,
                verdict.label(),
            );
        }
    }

    let (mut same, mut differ) = (0, Vec::new());
    for w in &WORKLOADS {
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let value = |doc: &Json| {
                doc.get("workloads").and_then(|x| {
                    x.get(w.name)?.get("per_layer")?.get(m.name)?.get("value")?.as_f64()
                })
            };
            match (value(&doc_a), value(&doc_b)) {
                (Some(x), Some(y)) if x.to_bits() == y.to_bits() => same += 1,
                (x, y) => differ.push(format!("{}/{}: {x:?} vs {y:?}", w.name, m.name)),
            }
        }
    }
    println!("\ncount-type layer metrics: {same} bit-identical, {} differ", differ.len());
    for line in &differ {
        println!("  {line}");
    }
    println!("end-to-end metrics: {worse} worse, {unresolved} unresolved");
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The rule under test at a bound of 10 %, whatever the live bounds.
    const QPS: Bounded = Bounded { bound: 0.10, ..END_TO_END[1] };
    const P50: Bounded = Bounded { bound: 0.10, ..END_TO_END[2] };

    #[test]
    fn judge_applies_bound_spread_and_separation() {
        assert_eq!((QPS.name, P50.name), ("qps", "p50_us"));
        // Tight runs, small loss: ok. Tight runs, big loss: worse.
        assert_eq!(judge(&QPS, &[1000.0, 1010.0, 990.0], &[980.0, 970.0, 985.0]), Verdict::Ok);
        assert_eq!(judge(&QPS, &[1000.0, 1010.0, 990.0], &[850.0, 860.0, 840.0]), Verdict::Worse);
        // Lower-is-better metric: direction flips.
        assert_eq!(judge(&P50, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]), Verdict::Worse);
        assert_eq!(judge(&P50, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]), Verdict::Ok);
        // Spread wider than the bound and overlapping runs: unresolved,
        // whichever way the medians point.
        assert_eq!(
            judge(&QPS, &[1000.0, 1200.0, 900.0], &[990.0, 1100.0, 950.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&QPS, &[1000.0, 1200.0, 900.0], &[800.0, 1100.0, 950.0]),
            Verdict::Unresolved
        );
        // Wide spread but strictly separated runs decide.
        assert_eq!(judge(&QPS, &[1000.0, 1200.0, 900.0], &[1300.0, 1500.0, 1250.0]), Verdict::Ok);
        assert_eq!(judge(&QPS, &[1000.0, 1200.0, 900.0], &[500.0, 700.0, 600.0]), Verdict::Worse);
        // Exactly at the bound is still within it.
        assert_eq!(judge(&QPS, &[1000.0], &[900.0]), Verdict::Ok);
    }
}
