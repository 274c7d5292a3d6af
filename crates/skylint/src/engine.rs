//! Scan orchestration: policy resolution, config validation, file
//! walking, per-file rule dispatch and the whole-workspace dataflow pass.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::callgraph::Workspace;
use crate::config::Config;
use crate::model::SourceModel;
use crate::parser::parse;
use crate::report::Finding;
use crate::rules::{dead_allow, run_all, run_workspace, FileCtx, RULE_IDS};
use crate::symbols::extract_fns;

/// A scan that could not produce findings: either the filesystem failed
/// or the configuration/annotations are invalid (hard error, exit 2).
#[derive(Debug)]
pub enum ScanError {
    /// Filesystem error while walking or reading sources.
    Io(std::io::Error),
    /// Invalid configuration or malformed/unknown allow annotations.
    /// Each entry is one pointed message.
    Policy(Vec<String>),
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanError::Io(e) => write!(f, "io error: {e}"),
            ScanError::Policy(msgs) => {
                writeln!(f, "configuration errors:")?;
                for m in msgs {
                    writeln!(f, "  - {m}")?;
                }
                Ok(())
            }
        }
    }
}

impl From<std::io::Error> for ScanError {
    fn from(e: std::io::Error) -> Self {
        ScanError::Io(e)
    }
}

/// Resolved policy: one field per `skylint.toml` key. An absent key is
/// an empty list — a rule with no subject — never a built-in default.
#[derive(Clone, Debug)]
pub struct Policy {
    /// Path prefixes scanned for Rust sources.
    pub include: Vec<String>,
    /// Path prefixes skipped entirely (vendored code, build output, …).
    pub exclude: Vec<String>,
    /// Crates (or single files) that carry the full library policy.
    pub library_paths: Vec<String>,
    /// Files where bracket indexing counts as a panic site
    /// (no-panic-paths).
    pub index_strict_files: Vec<String>,
    /// Files where float `==`/`!=` is checked (determinism).
    pub float_files: Vec<String>,
    /// Identifier names treated as float-valued in those files.
    pub float_fields: Vec<String>,
    /// Library files allowed to call `spawn(…)` (concurrency-hygiene).
    pub spawn_allowed: Vec<String>,
    /// Headers every library crate root must carry (api-hygiene).
    pub required_headers: Vec<String>,
    /// Files/dirs whose functions enter the lock-acquisition graph and
    /// whose acquisitions need a `// lock-order:` phase (lock-order).
    pub lock_graph_files: Vec<String>,
    /// Kernel designators (`fn` or `Type::fn`) rooting hot-path-alloc
    /// reachability.
    pub alloc_kernels: Vec<String>,
    /// Files/dirs where allocation calls reachable from a kernel are
    /// flagged (keeps shared helpers out of scope).
    pub alloc_scope_files: Vec<String>,
    /// Call names (`push`) and paths (`Vec::new`) counted as allocation
    /// machinery.
    pub alloc_calls: Vec<String>,
    /// Files/dirs whose functions are checked by guard-hold-span.
    pub guard_span_files: Vec<String>,
    /// Designators (`fn` or `Type::fn`) of expensive operations a live
    /// lock guard must not span; callees reaching one transitively over
    /// the call graph count too.
    pub expensive_calls: Vec<String>,
    /// Files/dirs checked by range-taint.
    pub taint_files: Vec<String>,
    /// Call names that bless a tainted argument (range-taint validators).
    pub taint_validators: Vec<String>,
    /// Files/dirs whose sync primitives must come from the
    /// `skycheck::sync` shims (sync-confinement).
    pub sync_confine_files: Vec<String>,
}

/// Every `section.key` the config may set. Anything else is a hard error.
const KNOWN_KEYS: [&str; 17] = [
    "paths.include",
    "paths.exclude",
    "crates.library",
    "rules.no-panic-paths.index-strict-files",
    "rules.determinism.float-eq-files",
    "rules.determinism.float-fields",
    "rules.concurrency-hygiene.spawn-allowed",
    "rules.api-hygiene.required-headers",
    "rules.lock-order.files",
    "rules.hot-path-alloc.kernels",
    "rules.hot-path-alloc.scope-files",
    "rules.hot-path-alloc.calls",
    "rules.guard-hold-span.files",
    "rules.guard-hold-span.expensive",
    "rules.range-taint.files",
    "rules.range-taint.validators",
    "rules.sync-confinement.files",
];

impl Policy {
    /// Reads and strictly validates `<root>/skylint.toml`: a missing or
    /// unparsable file and unknown sections or keys are all hard errors.
    pub fn load(root: &Path) -> Result<Policy, ScanError> {
        let path = root.join("skylint.toml");
        let src = fs::read_to_string(&path)
            .map_err(|e| ScanError::Policy(vec![format!("cannot read {}: {e}", path.display())]))?;
        let cfg = Config::parse(&src).map_err(|e| ScanError::Policy(vec![e.to_string()]))?;
        let errors = validate_config(&cfg);
        if !errors.is_empty() {
            return Err(ScanError::Policy(errors));
        }
        Ok(Policy::from_config(&cfg))
    }

    /// Builds the policy from a parsed config.
    pub fn from_config(cfg: &Config) -> Policy {
        Policy {
            include: cfg.list("paths.include"),
            exclude: cfg.list("paths.exclude"),
            library_paths: cfg.list("crates.library"),
            index_strict_files: cfg.list("rules.no-panic-paths.index-strict-files"),
            float_files: cfg.list("rules.determinism.float-eq-files"),
            float_fields: cfg.list("rules.determinism.float-fields"),
            spawn_allowed: cfg.list("rules.concurrency-hygiene.spawn-allowed"),
            required_headers: cfg.list("rules.api-hygiene.required-headers"),
            lock_graph_files: cfg.list("rules.lock-order.files"),
            alloc_kernels: cfg.list("rules.hot-path-alloc.kernels"),
            alloc_scope_files: cfg.list("rules.hot-path-alloc.scope-files"),
            alloc_calls: cfg.list("rules.hot-path-alloc.calls"),
            guard_span_files: cfg.list("rules.guard-hold-span.files"),
            expensive_calls: cfg.list("rules.guard-hold-span.expensive"),
            taint_files: cfg.list("rules.range-taint.files"),
            taint_validators: cfg.list("rules.range-taint.validators"),
            sync_confine_files: cfg.list("rules.sync-confinement.files"),
        }
    }

    /// The path-valued lists, by key. A path that does not exist under
    /// the scan root silently disables whatever it was meant to scope.
    fn path_lists(&self) -> [(&'static str, &[String]); 10] {
        [
            ("paths.include", &self.include),
            ("crates.library", &self.library_paths),
            ("rules.no-panic-paths.index-strict-files", &self.index_strict_files),
            ("rules.determinism.float-eq-files", &self.float_files),
            ("rules.concurrency-hygiene.spawn-allowed", &self.spawn_allowed),
            ("rules.lock-order.files", &self.lock_graph_files),
            ("rules.hot-path-alloc.scope-files", &self.alloc_scope_files),
            ("rules.guard-hold-span.files", &self.guard_span_files),
            ("rules.range-taint.files", &self.taint_files),
            ("rules.sync-confinement.files", &self.sync_confine_files),
        ]
    }

    /// The function-designator lists, by key. A designator that matches
    /// no scanned function roots or cuts nothing.
    fn designator_lists(&self) -> [(&'static str, &[String]); 2] {
        [
            ("rules.hot-path-alloc.kernels", &self.alloc_kernels),
            ("rules.guard-hold-span.expensive", &self.expensive_calls),
        ]
    }
}

/// Validates a parsed config strictly: unknown keys and unknown rule
/// names in `rules.*` sections are hard errors.
fn validate_config(cfg: &Config) -> Vec<String> {
    let mut errors = Vec::new();
    for key in cfg.keys().filter(|k| !KNOWN_KEYS.contains(&k.as_str())) {
        match key.strip_prefix("rules.").and_then(|rest| rest.split('.').next()) {
            Some(rule) if !RULE_IDS.contains(&rule) => errors.push(format!(
                "skylint.toml: `[rules.{rule}]` is not a known rule (known: {})",
                RULE_IDS.join(", ")
            )),
            _ => errors.push(format!("skylint.toml: unknown key `{key}`")),
        }
    }
    errors
}

/// Aggregate result of one scan.
pub struct ScanOutcome {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files lexed.
    pub files_scanned: usize,
    /// Total source lines lexed.
    pub lines_scanned: usize,
    /// Functions in the call-graph universe (library, non-test).
    pub functions_analyzed: usize,
    /// Resolved call edges in the workspace graph.
    pub call_edges: usize,
}

/// Scans `root` under `policy` and returns every finding.
///
/// Per-file name bans first, then the whole-workspace event rules over
/// the call graph of library functions, then `dead-allow` last (it needs
/// to see every suppression the earlier rules recorded). A policy that
/// names a path missing under `root` or a designator no function
/// matches, and malformed or unknown allow annotations, abort the scan
/// with [`ScanError::Policy`].
pub fn scan(root: &Path, policy: &Policy) -> Result<ScanOutcome, ScanError> {
    let mut missing = Vec::new();
    for (key, list) in policy.path_lists() {
        for p in list.iter().filter(|p| !root.join(p).exists()) {
            missing.push(format!("skylint.toml: `{key}` names `{p}`, which does not exist"));
        }
    }
    if !missing.is_empty() {
        return Err(ScanError::Policy(missing));
    }

    let mut files = Vec::new();
    for inc in &policy.include {
        collect_rs_files(root, &root.join(inc), policy, &mut files)?;
    }
    files.sort();
    files.dedup();

    let mut models = Vec::new();
    let mut lines_scanned = 0usize;
    for rel in &files {
        let src = fs::read_to_string(root.join(rel))?;
        lines_scanned += src.lines().count();
        models.push(SourceModel::build(rel.clone(), &src));
    }
    let outcome = scan_models(&models, policy, true)?;
    Ok(ScanOutcome { lines_scanned, ..outcome })
}

/// Lints a single in-memory file (used by the fixture tests). Runs the
/// per-file rules *and* the workspace rules with this file as the whole
/// universe; the policy's paths and designators are not resolved, so one
/// synthetic policy can serve many fixtures.
pub fn scan_source(path: &str, src: &str, policy: &Policy) -> Result<Vec<Finding>, ScanError> {
    let models = vec![SourceModel::build(path.to_owned(), src)];
    Ok(scan_models(&models, policy, false)?.findings)
}

/// The shared second half of [`scan`]/[`scan_source`]: annotation
/// validation, per-file rules, workspace rules, dead-allow.
fn scan_models(
    models: &[SourceModel],
    policy: &Policy,
    resolve_designators: bool,
) -> Result<ScanOutcome, ScanError> {
    let mut errors = Vec::new();
    for m in models {
        for (line, msg) in &m.malformed_allows {
            errors.push(format!("{}:{line}: malformed skylint annotation: {msg}", m.path));
        }
        for (line, rules) in &m.allows {
            for r in rules.iter().filter(|r| !RULE_IDS.contains(&r.as_str())) {
                errors.push(format!(
                    "{}:{line}: allow annotation names unknown rule `{r}` (known: {})",
                    m.path,
                    RULE_IDS.join(", ")
                ));
            }
        }
    }

    // The workspace universe: library, non-test functions only.
    let is_library =
        |m: &SourceModel| file_in(&m.path, &policy.library_paths) && !is_test_path(&m.path);
    let mut fns = Vec::new();
    let mut by_path: BTreeMap<&str, &SourceModel> = BTreeMap::new();
    for m in models {
        by_path.insert(m.path.as_str(), m);
        if is_library(m) {
            let file = parse(&m.tokens);
            fns.extend(extract_fns(m, &file).into_iter().filter(|f| !f.in_test));
        }
    }
    let ws = Workspace::build(fns);
    if resolve_designators {
        for (key, list) in policy.designator_lists() {
            for d in list.iter().filter(|d| !ws.fns.iter().any(|f| f.matches_designator(d))) {
                errors
                    .push(format!("skylint.toml: `{key}` names `{d}`, which matches no function"));
            }
        }
    }
    if !errors.is_empty() {
        return Err(ScanError::Policy(errors));
    }

    let mut findings = Vec::new();
    for m in models {
        run_all(&FileCtx { is_library: is_library(m), model: m, policy }, &mut findings);
    }
    run_workspace(&ws, &by_path, policy, &mut findings);
    dead_allow(models, &by_path, &mut findings);

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    // No dedup: two identical-looking findings on one line are two real
    // sites (`let _: HashMap<_, _> = HashMap::new();` flags twice), and
    // the workspace rules already dedup their own edge/path sets.
    Ok(ScanOutcome {
        findings,
        files_scanned: models.len(),
        lines_scanned: 0,
        functions_analyzed: ws.fns.len(),
        call_edges: ws.edge_count(),
    })
}

/// Whether `file` is one of `prefixes` or lies under one of them.
pub(crate) fn file_in(file: &str, prefixes: &[String]) -> bool {
    prefixes
        .iter()
        .any(|p| file == p || file.strip_prefix(p.as_str()).is_some_and(|r| r.starts_with('/')))
}

/// Whether a repo-relative path is test/bench/example code, exempt from
/// the library-only rules.
pub(crate) fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    policy: &Policy,
    out: &mut Vec<String>,
) -> std::io::Result<()> {
    let rel_of = |p: &Path| -> String {
        p.strip_prefix(root)
            .unwrap_or(p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/")
    };
    if dir.is_file() {
        let rel = rel_of(dir);
        if rel.ends_with(".rs") && !file_in(&rel, &policy.exclude) {
            out.push(rel);
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let rel = rel_of(&path);
        if file_in(&rel, &policy.exclude) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, policy, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}
