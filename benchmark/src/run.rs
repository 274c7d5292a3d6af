//! One benchmark run: generate the inputs of (workload, seed), run the
//! passes in fresh child processes, check the answers, assemble the
//! metrics.
//!
//! Each pass is a child process of this same executable that is handed
//! only the generated files, so one pass's allocator state, page cache
//! footprint and `VmHWM` never leak into another's numbers.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::gen::{generate, Inputs};
use crate::inproc;
use crate::json::Json;
use crate::load;
use crate::spec::{Workload, END_TO_END, MIN_ROUNDS, PER_LAYER};

/// Where generated inputs, trace files and results go (relative to the
/// repository root, which is the working directory of every command).
pub const OUT_DIR: &str = "benchmark/out";

fn fingerprint_file(inputs: &Inputs) -> PathBuf {
    inputs.dir.join("expected.fp")
}

pub fn trace_file(w: &Workload) -> PathBuf {
    Path::new(OUT_DIR).join(format!("trace-{}.jsonl", w.name))
}

// ---------------------------------------------------------------------
// Child side: `skybench pass <kind> --workload W --dir D --seconds S`
// ---------------------------------------------------------------------

/// Runs one pass in this process and returns its JSON document.
pub fn pass(kind: &str, w: &Workload, dir: &Path, seconds: f64) -> Result<Json, String> {
    let inputs = Inputs { dir: dir.to_owned() };
    match kind {
        "counts" => {
            let out = inproc::counts(w, &inputs)?;
            let prints: String = out.fingerprints.iter().map(|p| format!("{p}\n")).collect();
            fs::write(fingerprint_file(&inputs), prints).map_err(|e| e.to_string())?;
            Ok(Json::obj([
                ("pass", Json::Str("counts".to_owned())),
                ("queries", Json::Num(out.tally.queries as f64)),
                ("oracle_checked", Json::Num(out.oracle_checked as f64)),
                ("oracle_failed", Json::Num(out.oracle_failed as f64)),
                (
                    "metrics",
                    Json::obj(out.end_to_end().into_iter().map(|(k, v)| (k, Json::Num(v)))),
                ),
                ("layers", Json::obj(out.layers().into_iter().map(|(k, v)| (k, Json::Num(v))))),
            ]))
        }
        "load" => {
            let expected: Vec<u64> = fs::read_to_string(fingerprint_file(&inputs))
                .map_err(|e| format!("read fingerprints (run the counts pass first): {e}"))?
                .lines()
                .map(|l| l.parse().map_err(|_| format!("bad fingerprint {l:?}")))
                .collect::<Result<_, _>>()?;
            load::run(w, &inputs, seconds, MIN_ROUNDS, &expected)
        }
        "trace" => {
            let out = inproc::trace(w, &inputs, seconds)?;
            fs::write(trace_file(w), inproc::spans_jsonl(&out.spans)).map_err(|e| e.to_string())?;
            Ok(out.to_json())
        }
        other => Err(format!("unknown pass {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------

/// Spawns a pass as a child process and parses the JSON document it
/// prints as its last line. The child's stderr (warnings) passes through.
fn spawn_pass(kind: &str, w: &Workload, dir: &Path, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate skybench: {e}"))?;
    let output = Command::new(exe)
        .arg("pass")
        .arg(kind)
        .args(["--workload", w.name])
        .arg("--dir")
        .arg(dir)
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {kind} pass: {e}"))?;
    if !output.status.success() {
        return Err(format!("{kind} pass of {} exited with {}", w.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or_else(|| format!("{kind} pass printed nothing"))?;
    Json::parse(last).map_err(|e| format!("{kind} pass output: {e}"))
}

/// Everything one run produced.
pub struct RunResult {
    /// The result object of the driver contract: `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub result: Json,
    /// The pass documents (`counts`, `load`, and `trace` when traced).
    pub passes: Json,
}

impl RunResult {
    pub fn failed(&self) -> u64 {
        self.result.num("failed").unwrap_or(1.0) as u64
    }

    /// A metric by name, whichever pass measured it (the gated metrics
    /// sit under a pass's `metrics`, the layer metrics under `layers`).
    pub fn measured(&self, name: &str) -> Option<f64> {
        measured(self.passes.as_obj()?.iter().map(|(_, doc)| doc), name)
    }
}

fn measured<'a>(mut passes: impl Iterator<Item = &'a Json>, name: &str) -> Option<f64> {
    passes.find_map(|doc| {
        ["metrics", "layers"].iter().find_map(|part| doc.get(part)?.get(name)?.as_f64())
    })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.to_owned()))])
}

/// Runs (workload, seed): the untraced run yields the end-to-end
/// metrics, the traced run the per-layer metrics.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let dir = Path::new(OUT_DIR).join(format!("{}-seed{seed}", w.name));
    generate(w, seed, &dir).map_err(|e| format!("generate inputs: {e}"))?;

    // Counts first: it leaves the fingerprints the load pass checks
    // every reply against, and has itself been checked by the oracle.
    let counts = spawn_pass("counts", w, &dir, 0.0)?;
    let oracle_checked = counts.num("oracle_checked")?;
    let oracle_failed = counts.num("oracle_failed")?;

    // In a traced run `--seconds` go to the traced loop; the load pass
    // (there for the layer metrics only a server can give) runs its
    // minimum of rounds.
    let load = spawn_pass("load", w, &dir, if traced { 0.0 } else { seconds })?;
    let failed = load.num("failed")? + oracle_failed;
    let mut attempted = load.num("attempted")?;
    let mut wanted: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let mut passes = vec![("counts", counts), ("load", load)];

    if traced {
        let trace = spawn_pass("trace", w, &dir, seconds)?;
        attempted = trace.num("requests")?;
        wanted = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        // What the server adds to a request: the client-observed median
        // less the same requests answered in process.
        let p50_us = passes[1].1.get("metrics").ok_or("load pass lacks metrics")?.num("p50_us")?;
        let derived = Json::obj([(
            "serve.server.overhead_ns",
            Json::Num(p50_us * 1e3 - trace.num("request_p50_ns")?),
        )]);
        passes.push(("trace", trace));
        passes.push(("derived", Json::obj([("layers", derived)])));
    }

    let metrics = wanted
        .into_iter()
        .map(|(name, unit)| {
            let value = measured(passes.iter().map(|(_, doc)| doc), name)
                .ok_or(format!("no pass measured {name}"))?;
            Ok((name, metric(value, unit)))
        })
        .collect::<Result<Vec<_>, String>>()?;

    Ok(RunResult {
        result: Json::obj([
            ("correct", Json::Bool(failed == 0.0 && oracle_checked > 0.0)),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("metrics", Json::obj(metrics)),
        ]),
        passes: Json::obj(passes),
    })
}
