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

/// Resolved policy: every knob `skylint.toml` can set, with defaults that
/// match this repository's layout.
#[derive(Clone, Debug)]
pub struct Policy {
    /// Path prefixes scanned for Rust sources.
    pub include: Vec<String>,
    /// Path prefixes skipped entirely (vendored code, build output, …).
    pub exclude: Vec<String>,
    /// Crates whose `src/` trees carry the full library policy.
    pub library_paths: Vec<String>,
    /// Files where bracket indexing is forbidden (no-panic-paths).
    pub index_strict_files: Vec<String>,
    /// Wall-clock type names forbidden by `determinism`.
    pub time_idents: Vec<String>,
    /// Hash-collection type names forbidden by `determinism`.
    pub hash_idents: Vec<String>,
    /// Files where float `==`/`!=` is checked.
    pub float_files: Vec<String>,
    /// Identifier names treated as float-valued in those files.
    pub float_fields: Vec<String>,
    /// Files allowed to call `spawn(…)`.
    pub spawn_allowed: Vec<String>,
    /// Files under the lock-order protocol.
    pub lock_files: Vec<String>,
    /// Declared lock phases, in acquisition order.
    pub lock_phases: Vec<String>,
    /// Headers every library crate root must carry.
    pub required_headers: Vec<String>,
    /// Crates whose module-scope `pub` items must carry doc comments.
    pub doc_paths: Vec<String>,
    /// Files/dirs whose functions enter the lock-acquisition graph
    /// (lock-order). Empty disables the rule.
    pub lock_graph_files: Vec<String>,
    /// May-panic fact kinds tracked by panic-reachability: any of
    /// `unwrap`, `expect`, `panic-macro`, `indexing`, `arithmetic`.
    pub panic_sources: Vec<String>,
    /// Kernel designators (`fn` or `Type::fn`) rooting hot-path-alloc
    /// reachability. Empty disables the rule.
    pub alloc_kernels: Vec<String>,
    /// Files/dirs where allocation calls reachable from a kernel are
    /// flagged (keeps shared helpers out of scope).
    pub alloc_scope_files: Vec<String>,
    /// Call names (`push`) and paths (`Vec::new`) counted as allocation
    /// machinery.
    pub alloc_calls: Vec<String>,
    /// Macro names counted as allocation machinery (`vec`, `format`).
    pub alloc_macros: Vec<String>,
    /// Recorder method names forbidden inside the kernels' reachable
    /// call tree (hot-path-alloc): kernels return stats by value, the
    /// engine publishes them. Empty disables the check.
    pub recorder_idents: Vec<String>,
    /// Files/dirs whose functions are checked by guard-hold-span.
    /// Empty disables the rule.
    pub guard_span_files: Vec<String>,
    /// Designators (`fn` or `Type::fn`) of expensive operations a live
    /// lock guard must not span; callees reaching one transitively over
    /// the call graph count too. Empty disables guard-hold-span.
    pub expensive_calls: Vec<String>,
    /// Designators never treated as expensive, cutting transitive
    /// propagation through them: the publish steps a guard *exists* to
    /// cover (and known victims of name-only call resolution).
    pub expensive_exempt: Vec<String>,
    /// Type-name prefixes treated as synchronized when they appear in a
    /// captured binding's declaration (capture-race): `Atomic` covers
    /// AtomicUsize/AtomicU64/…, `Mutex` covers Mutex<T>.
    pub sync_types: Vec<String>,
    /// Function designators allowed to read the process environment
    /// (env-read-confinement): the once-style init/pin functions.
    pub env_allowed_fns: Vec<String>,
    /// Files/dirs additionally allowed to read the process environment.
    pub env_allowed_files: Vec<String>,
    /// Files/dirs checked by range-taint. Empty disables the rule.
    pub taint_files: Vec<String>,
    /// Call names whose results are tainted (range-taint sources:
    /// byte/endpoint decoders and parsers).
    pub taint_sources: Vec<String>,
    /// Call names that must not receive tainted values (range scans and
    /// allocation-size sinks).
    pub taint_sinks: Vec<String>,
    /// Call names that bless a tainted argument (range-taint validators).
    pub taint_validators: Vec<String>,
    /// Files/dirs whose sync primitives must come from the
    /// `skycheck::sync` shims (sync-confinement). Empty disables the rule.
    pub sync_confine_files: Vec<String>,
}

impl Policy {
    /// Builds the policy from a parsed config, falling back to built-in
    /// defaults for absent keys.
    pub fn from_config(cfg: &Config) -> Policy {
        let list_or = |key: &str, default: &[&str]| -> Vec<String> {
            if cfg.contains(key) {
                cfg.list(key)
            } else {
                default.iter().map(|s| (*s).to_owned()).collect()
            }
        };
        Policy {
            include: list_or("paths.include", &["crates", "src"]),
            exclude: list_or(
                "paths.exclude",
                &["target", "vendor", "crates/skylint/tests/fixtures"],
            ),
            library_paths: list_or(
                "crates.library",
                &[
                    "crates/geom",
                    "crates/algos",
                    "crates/core",
                    "crates/storage",
                    "crates/rtree",
                    "crates/datagen",
                    "src",
                ],
            ),
            index_strict_files: list_or("rules.no-panic-paths.index-strict-files", &[]),
            time_idents: list_or("rules.determinism.time-idents", &["Instant", "SystemTime"]),
            hash_idents: list_or("rules.determinism.hash-idents", &["HashMap", "HashSet"]),
            float_files: list_or("rules.determinism.float-eq-files", &[]),
            float_fields: list_or("rules.determinism.float-fields", &["lo", "hi"]),
            spawn_allowed: list_or("rules.concurrency-hygiene.spawn-allowed", &[]),
            lock_files: list_or("rules.concurrency-hygiene.lock-protocol-files", &[]),
            lock_phases: list_or("rules.concurrency-hygiene.lock-phases", &["read", "write"]),
            required_headers: list_or("rules.api-hygiene.required-headers", &[]),
            doc_paths: list_or("rules.api-hygiene.doc-paths", &[]),
            lock_graph_files: list_or("rules.lock-order.files", &[]),
            panic_sources: list_or(
                "rules.panic-reachability.sources",
                &["unwrap", "expect", "panic-macro"],
            ),
            alloc_kernels: list_or("rules.hot-path-alloc.kernels", &[]),
            alloc_scope_files: list_or("rules.hot-path-alloc.scope-files", &[]),
            alloc_calls: list_or(
                "rules.hot-path-alloc.calls",
                &[
                    "Vec::new",
                    "Box::new",
                    "push",
                    "clone",
                    "to_vec",
                    "to_owned",
                    "to_string",
                    "collect",
                    "extend",
                ],
            ),
            alloc_macros: list_or("rules.hot-path-alloc.macros", &["vec", "format"]),
            recorder_idents: list_or("rules.hot-path-alloc.recorder-idents", &[]),
            guard_span_files: list_or("rules.guard-hold-span.files", &[]),
            expensive_calls: list_or("rules.guard-hold-span.expensive", &[]),
            expensive_exempt: list_or("rules.guard-hold-span.exempt", &[]),
            sync_types: list_or(
                "rules.capture-race.sync-types",
                &["Mutex", "RwLock", "Atomic", "mpsc", "channel", "Condvar", "Barrier", "Once"],
            ),
            env_allowed_fns: list_or("rules.env-read-confinement.allowed-fns", &[]),
            env_allowed_files: list_or("rules.env-read-confinement.allowed-files", &[]),
            taint_files: list_or("rules.range-taint.files", &[]),
            taint_sources: list_or(
                "rules.range-taint.sources",
                &[
                    "get_u16_le",
                    "get_u32_le",
                    "get_u64_le",
                    "get_f64_le",
                    "from_le_bytes",
                    "from_be_bytes",
                    "parse",
                ],
            ),
            taint_sinks: list_or(
                "rules.range-taint.sinks",
                &["locate", "with_capacity", "reserve"],
            ),
            taint_validators: list_or("rules.range-taint.validators", &[]),
            sync_confine_files: list_or("rules.sync-confinement.files", &[]),
        }
    }
}

/// Every `section.key` the config may set. Anything else is a hard error.
const KNOWN_KEYS: [&str; 31] = [
    "paths.include",
    "paths.exclude",
    "crates.library",
    "rules.no-panic-paths.index-strict-files",
    "rules.determinism.time-idents",
    "rules.determinism.hash-idents",
    "rules.determinism.float-eq-files",
    "rules.determinism.float-fields",
    "rules.concurrency-hygiene.spawn-allowed",
    "rules.concurrency-hygiene.lock-protocol-files",
    "rules.concurrency-hygiene.lock-phases",
    "rules.api-hygiene.required-headers",
    "rules.api-hygiene.doc-paths",
    "rules.lock-order.files",
    "rules.panic-reachability.sources",
    "rules.hot-path-alloc.kernels",
    "rules.hot-path-alloc.scope-files",
    "rules.hot-path-alloc.calls",
    "rules.hot-path-alloc.macros",
    "rules.hot-path-alloc.recorder-idents",
    "rules.guard-hold-span.files",
    "rules.guard-hold-span.expensive",
    "rules.guard-hold-span.exempt",
    "rules.capture-race.sync-types",
    "rules.env-read-confinement.allowed-fns",
    "rules.env-read-confinement.allowed-files",
    "rules.range-taint.files",
    "rules.range-taint.sources",
    "rules.range-taint.sinks",
    "rules.range-taint.validators",
    "rules.sync-confinement.files",
];

/// Panic-fact kinds `[rules.panic-reachability].sources` may name.
const PANIC_SOURCES: [&str; 5] = ["unwrap", "expect", "panic-macro", "indexing", "arithmetic"];

/// Validates a parsed config strictly: unknown keys, unknown rule names
/// in `rules.*` sections and unknown panic sources are all hard errors.
pub fn validate_config(cfg: &Config) -> Vec<String> {
    let mut errors = Vec::new();
    for key in cfg.keys() {
        if !KNOWN_KEYS.contains(&key.as_str()) {
            if let Some(rest) = key.strip_prefix("rules.") {
                let rule = rest.split('.').next().unwrap_or(rest);
                if !RULE_IDS.contains(&rule) {
                    errors.push(format!(
                        "skylint.toml: `[rules.{rule}]` is not a known rule \
                         (known: {})",
                        RULE_IDS.join(", ")
                    ));
                    continue;
                }
            }
            errors.push(format!("skylint.toml: unknown key `{key}`"));
        }
    }
    if cfg.contains("rules.panic-reachability.sources") {
        for s in cfg.list("rules.panic-reachability.sources") {
            if !PANIC_SOURCES.contains(&s.as_str()) {
                errors.push(format!(
                    "skylint.toml: `{s}` is not a panic source (known: {})",
                    PANIC_SOURCES.join(", ")
                ));
            }
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
/// Two passes: per-file token rules first, then the whole-workspace
/// dataflow rules over the call graph of library functions, then
/// `dead-allow` last (it needs to see every suppression the earlier
/// rules recorded). Malformed or unknown allow annotations abort the
/// scan with [`ScanError::Policy`].
pub fn scan(root: &Path, policy: &Policy) -> Result<ScanOutcome, ScanError> {
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
    let outcome = scan_models(&models, policy)?;
    Ok(ScanOutcome { lines_scanned, files_scanned: files.len(), ..outcome })
}

/// Lints a single in-memory file (used by the fixture tests). Runs the
/// per-file rules *and* the workspace rules with this file as the whole
/// universe.
pub fn scan_source(path: &str, src: &str, policy: &Policy) -> Result<Vec<Finding>, ScanError> {
    let models = vec![SourceModel::build(path.to_owned(), src)];
    Ok(scan_models(&models, policy)?.findings)
}

/// The shared second half of [`scan`]/[`scan_source`]: annotation
/// validation, per-file rules, workspace rules, dead-allow.
fn scan_models(models: &[SourceModel], policy: &Policy) -> Result<ScanOutcome, ScanError> {
    let mut errors = Vec::new();
    for m in models {
        for (line, msg) in &m.malformed_allows {
            errors.push(format!("{}:{line}: malformed skylint annotation: {msg}", m.path));
        }
        for (line, rules) in &m.allows {
            for r in rules {
                if !RULE_IDS.contains(&r.as_str()) {
                    errors.push(format!(
                        "{}:{line}: allow annotation names unknown rule `{r}` \
                         (known: {})",
                        m.path,
                        RULE_IDS.join(", ")
                    ));
                }
            }
        }
    }
    if !errors.is_empty() {
        return Err(ScanError::Policy(errors));
    }

    let mut findings = Vec::new();
    for m in models {
        let ctx = FileCtx {
            is_library: in_library(&m.path, policy),
            is_test_file: is_test_path(&m.path),
            model: m,
            policy,
        };
        run_all(&ctx, &mut findings);
    }

    // Whole-workspace pass: library, non-test functions only.
    let mut fns = Vec::new();
    let mut by_path: BTreeMap<&str, &SourceModel> = BTreeMap::new();
    for m in models {
        by_path.insert(m.path.as_str(), m);
        if !in_library(&m.path, policy) || is_test_path(&m.path) {
            continue;
        }
        let file = parse(&m.tokens);
        fns.extend(extract_fns(m, &file).into_iter().filter(|f| !f.in_test));
    }
    let ws = Workspace::build(fns);
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

fn in_library(rel: &str, policy: &Policy) -> bool {
    policy.library_paths.iter().any(|p| rel == p || rel.starts_with(&format!("{p}/")))
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
    if !dir.exists() {
        return Ok(());
    }
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
        if rel.ends_with(".rs") && !excluded(&rel, policy) {
            out.push(rel);
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let rel = rel_of(&path);
        if excluded(&rel, policy) {
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

fn excluded(rel: &str, policy: &Policy) -> bool {
    policy.exclude.iter().any(|p| rel == p || rel.starts_with(&format!("{p}/")))
}
