//! The ten rules.
//!
//! Two layers, one kind of question each. The per-file token layer
//! answers "may this *name* appear here" — a lexer is the right tool for
//! a ban on an identifier or path. Everything about *behaviour* (panic
//! sites, environment reads, lock acquisitions, allocation, guard
//! liveness, taint) is read from the [`FnDef`] event stream that
//! `symbols.rs` extracts once and the call graph / CFG consume.
//!
//! | id                    | substrate          | guards                                        |
//! |-----------------------|--------------------|-----------------------------------------------|
//! | `no-panic-paths`      | events, call graph | typed errors, no hidden panic behind an API   |
//! | `determinism`         | name ban, events   | byte-reproducible plans, no hidden inputs     |
//! | `concurrency-hygiene` | name ban           | `spawn(` only in the listed library files     |
//! | `api-hygiene`         | name ban           | crate-root docs and lint headers              |
//! | `sync-confinement`    | name ban           | sync primitives stay behind skycheck shims    |
//! | `lock-order`          | events, call graph | annotated, acyclic, upgrade-free lock graph   |
//! | `hot-path-alloc`      | events, call graph | allocation-free designated kernels            |
//! | `guard-hold-span`     | events, CFG        | no lock guard live across expensive calls     |
//! | `range-taint`         | events, CFG        | decoded sizes validated before sinks          |
//! | `dead-allow`          | suppression log    | every allow annotation still suppresses       |
//!
//! DESIGN.md §9 is the one home of each rule's rationale and record.

use std::collections::BTreeMap;

use crate::callgraph::{lock_cycles, Workspace};
use crate::cfg::{FactDef, Liveness};
use crate::engine::{file_in, is_test_path, Policy};
use crate::lexer::{TokKind, Token};
use crate::model::SourceModel;
use crate::report::Finding;
use crate::symbols::{
    match_paren, next_code_idx, prev_code_idx, statement_end, Event, EventKind, FnDef, LockKind,
};

/// Every rule, in reporting order: id and the one-line summary `skylint
/// rules` prints.
pub const RULES: [(&str, &str); 10] = [
    (
        "no-panic-paths",
        "no unwrap/expect/panic! in library code, none reachable from a pub fn (DESIGN §9.1)",
    ),
    (
        "determinism",
        "no wall clock, hash order, raw float == or environment read in planning (DESIGN §9.2)",
    ),
    ("concurrency-hygiene", "library code spawns threads only in the listed files (DESIGN §9.3)"),
    ("api-hygiene", "library crate roots carry docs and the required lint headers (DESIGN §9.4)"),
    (
        "sync-confinement",
        "protocol files use the skycheck::sync shims and return no guard (DESIGN §9.5)",
    ),
    ("lock-order", "annotated acquisitions, no upgrade, no cycle in the lock graph (DESIGN §9.6)"),
    (
        "hot-path-alloc",
        "nothing reachable from a designated kernel allocates or records (DESIGN §9.7)",
    ),
    ("guard-hold-span", "no lock guard is live across an expensive call (DESIGN §9.8)"),
    ("range-taint", "decoded sizes pass a validator before they reach a sink (DESIGN §9.9)"),
    ("dead-allow", "every allow annotation still suppresses a finding (DESIGN §9.10)"),
];

/// All rule ids, in reporting order.
pub const RULE_IDS: [&str; 10] = {
    let mut ids = [""; 10];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = RULES[i].0;
        i += 1;
    }
    ids
};

/// Wall-clock type names forbidden by `determinism`.
const TIME_IDENTS: [&str; 2] = ["Instant", "SystemTime"];
/// Hash-collection type names forbidden by `determinism`.
const HASH_IDENTS: [&str; 2] = ["HashMap", "HashSet"];
/// The `// lock-order:` phases, in acquisition order.
const LOCK_PHASES: [&str; 2] = ["read", "write"];
/// Macros counted as allocation machinery by `hot-path-alloc`.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];
/// Calls whose results `range-taint` treats as untrusted: byte decoders
/// and parsers.
const TAINT_SOURCES: [&str; 7] = [
    "get_u16_le",
    "get_u32_le",
    "get_u64_le",
    "get_f64_le",
    "from_le_bytes",
    "from_be_bytes",
    "parse",
];
/// Calls that must not receive a tainted value: range scans and
/// allocation sizes.
const TAINT_SINKS: [&str; 3] = ["locate", "with_capacity", "reserve"];

/// Context handed to each per-file rule.
pub struct FileCtx<'a> {
    /// Lexed + indexed source.
    pub model: &'a SourceModel,
    /// File carries the library policy: listed under `crates.library` and
    /// not under `tests/`, `benches/` or `examples/`.
    pub is_library: bool,
    /// Resolved policy configuration.
    pub policy: &'a Policy,
}

impl FileCtx<'_> {
    fn lib_code_at(&self, line: u32) -> bool {
        self.is_library && !self.model.in_test_region(line)
    }
}

/// Runs every per-file rule over one file: the bans on names.
pub fn run_all(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    determinism(ctx, out);
    concurrency_hygiene(ctx, out);
    api_hygiene(ctx, out);
    sync_confinement(ctx, out);
}

fn push(ctx: &FileCtx<'_>, out: &mut Vec<Finding>, rule: &str, line: u32, message: String) {
    if ctx.model.is_allowed(rule, line) {
        return;
    }
    out.push(Finding {
        rule: rule.to_owned(),
        file: ctx.model.path.clone(),
        line,
        message,
        snippet: ctx.model.snippet(line),
    });
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

fn determinism(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    const RULE: &str = "determinism";
    let toks = &ctx.model.tokens;
    let float_strict = file_in(&ctx.model.path, &ctx.policy.float_files);
    for (i, t) in toks.iter().enumerate() {
        if t.is_comment() || !ctx.lib_code_at(t.line) {
            continue;
        }
        if t.kind == TokKind::Ident && TIME_IDENTS.contains(&t.text.as_str()) {
            push(
                ctx,
                out,
                RULE,
                t.line,
                format!(
                    "{} reads the wall clock — route timing through \
                     core/src/clock.rs (the audited site)",
                    t.text
                ),
            );
        }
        if t.kind == TokKind::Ident && HASH_IDENTS.contains(&t.text.as_str()) {
            push(
                ctx,
                out,
                RULE,
                t.line,
                format!(
                    "{} has randomized iteration order — use BTreeMap/BTreeSet \
                     or a sorted Vec in result-producing paths",
                    t.text
                ),
            );
        }
        // Float equality in geometry code.
        if float_strict && (t.is_op("==") || t.is_op("!=")) {
            let float_side = |tok: Option<&Token>| -> bool {
                tok.is_some_and(|n| {
                    n.kind == TokKind::Float
                        || (n.kind == TokKind::Ident && ctx.policy.float_fields.contains(&n.text))
                })
            };
            // Look left at the previous code token; look right skipping
            // unary borrows/parens/negation. A float-field ident followed
            // by `.` is a method/field access (`hi.len()`), not the raw
            // field value, and does not count.
            let left = prev_code(toks, i);
            let mut j = i + 1;
            while toks
                .get(j)
                .is_some_and(|n| n.is_comment() || n.is_op("&") || n.is_op("(") || n.is_op("-"))
            {
                j += 1;
            }
            let right = toks.get(j).filter(|_| !toks.get(j + 1).is_some_and(|n| n.is_op(".")));
            if float_side(left) || float_side(right) {
                push(
                    ctx,
                    out,
                    RULE,
                    t.line,
                    format!(
                        "float `{}` in geometry code — use \
                         skycache_geom::float::{{approx_eq, exact_eq}} so the \
                         comparison mode is explicit",
                        t.text
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// concurrency-hygiene
// ---------------------------------------------------------------------------

fn concurrency_hygiene(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if file_in(&ctx.model.path, &ctx.policy.spawn_allowed) {
        return;
    }
    let toks = &ctx.model.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("spawn")
            && ctx.lib_code_at(t.line)
            && next_code(toks, i).is_some_and(|n| n.is_op("("))
        {
            push(
                ctx,
                out,
                "concurrency-hygiene",
                t.line,
                "spawn() in library code outside \
                 [rules.concurrency-hygiene].spawn-allowed — no library \
                 crate spawns a thread on the query path"
                    .to_owned(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// api-hygiene
// ---------------------------------------------------------------------------

fn api_hygiene(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    const RULE: &str = "api-hygiene";
    let m = ctx.model;
    if !ctx.is_library || !m.path.ends_with("src/lib.rs") {
        return;
    }
    let src = m.lines.join("\n");
    for header in ctx.policy.required_headers.iter().filter(|h| !src.contains(h.as_str())) {
        push(ctx, out, RULE, 1, format!("crate root is missing the required header `{header}`"));
    }
    if !m
        .tokens
        .first()
        .is_some_and(|t| t.kind == TokKind::LineComment && t.text.starts_with("//!"))
    {
        push(ctx, out, RULE, 1, "crate root must open with `//!` crate documentation".into());
    }
}

/// Previous non-comment token.
fn prev_code(toks: &[Token], i: usize) -> Option<&Token> {
    toks[..i].iter().rev().find(|t| !t.is_comment())
}

/// Next non-comment token.
fn next_code(toks: &[Token], i: usize) -> Option<&Token> {
    toks[i + 1..].iter().find(|t| !t.is_comment())
}

// ---------------------------------------------------------------------------
// sync-confinement
// ---------------------------------------------------------------------------

/// `std::sync::*` items banned from sync-confined files. `Arc` and
/// `OnceLock` are absent on purpose: they carry no schedule point the
/// model checker needs to intercept.
const CONFINED_SYNC_ITEMS: [&str; 7] =
    ["Mutex", "RwLock", "Condvar", "Barrier", "Once", "mpsc", "atomic"];

fn sync_confinement(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    const RULE: &str = "sync-confinement";
    if !file_in(&ctx.model.path, &ctx.policy.sync_confine_files) {
        return;
    }
    guard_escape(ctx, out);
    let toks = &ctx.model.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.is_comment() || t.kind != TokKind::Ident || !ctx.lib_code_at(t.line) {
            continue;
        }
        // Any `parking_lot` mention: the import line is the chokepoint —
        // after `use parking_lot::RwLock;` the bare uses are lexically
        // indistinguishable from the shim, so the import carries the flag.
        if t.text == "parking_lot" {
            push(
                ctx,
                out,
                RULE,
                t.line,
                "`parking_lot` primitive in a sync-confined file — import the \
                 `skycheck::sync` shim instead, so model runs can schedule it"
                    .to_owned(),
            );
            continue;
        }
        if t.text != "std" {
            continue;
        }
        let Some(seg1) = path_segment_after(toks, i) else { continue };
        match toks[seg1].text.as_str() {
            "sync" => {
                let Some(seg2) = path_segment_after(toks, seg1) else { continue };
                let item = toks[seg2].text.as_str();
                if CONFINED_SYNC_ITEMS.contains(&item) {
                    push(
                        ctx,
                        out,
                        RULE,
                        t.line,
                        format!(
                            "`std::sync::{item}` in a sync-confined file — use the \
                             `skycheck::sync` shim so model runs can schedule it"
                        ),
                    );
                }
            }
            "thread" => {
                // `available_parallelism` is a pure capability probe with
                // no schedule point; everything else (spawn/scope/park/…)
                // must go through the shimmed `skycheck::sync::thread`.
                let exempt = path_segment_after(toks, seg1)
                    .is_some_and(|j| toks[j].text == "available_parallelism");
                if !exempt {
                    push(
                        ctx,
                        out,
                        RULE,
                        t.line,
                        "`std::thread` in a sync-confined file — use \
                         `skycheck::sync::thread` so spawns and joins are \
                         schedule points under the model checker"
                            .to_owned(),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Lock-guard types that must not cross a sync-confined file's public
/// API boundary.
const ESCAPING_GUARD_TYPES: [&str; 3] = ["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

/// Guard-escape arm of sync-confinement: a `pub fn` whose signature
/// mentions a lock guard after a return arrow hands callers a live
/// guard, so lock scopes stop being confined to the file that owns the
/// lock — the `with_…` closure APIs exist precisely to prevent that.
/// Private helpers may still pass guards around within the file.
fn guard_escape(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    const RULE: &str = "sync-confinement";
    let toks = &ctx.model.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "fn" || !ctx.lib_code_at(t.line) {
            continue;
        }
        if !visibility_is_pub(toks, i) {
            continue;
        }
        let name = next_code(toks, i).map_or_else(String::new, |n| n.text.clone());
        // Scan the signature up to the body/semicolon; a guard type
        // after any `->` is a return position (a closure parameter that
        // *produces* a guard escapes it just the same).
        let mut seen_arrow = false;
        for tok in &toks[i + 1..] {
            if tok.is_comment() {
                continue;
            }
            if tok.is_op("{") || tok.is_op(";") {
                break;
            }
            if tok.is_op("->") {
                seen_arrow = true;
            } else if seen_arrow
                && tok.kind == TokKind::Ident
                && ESCAPING_GUARD_TYPES.contains(&tok.text.as_str())
            {
                push(
                    ctx,
                    out,
                    RULE,
                    t.line,
                    format!(
                        "`pub fn {name}` returns a lock guard (`{}`) from a sync-confined \
                         file — guards must not escape the file that owns the lock; expose \
                         a `with_…(f: impl FnOnce(&T) -> R)` closure API instead",
                        tok.text
                    ),
                );
                break;
            }
        }
    }
}

/// Whether the `fn` at `i` is `pub` (including restricted forms like
/// `pub(crate)`), looking back over the qualifier keywords (`const`,
/// `unsafe`, `async`, `extern "…"`).
fn visibility_is_pub(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    loop {
        let Some(p) = prev_code_idx(toks, j) else { return false };
        if toks[p].is_op(")") {
            // A visibility restriction like `pub(crate)`: walk back to
            // its opening paren, then look for the `pub` before it.
            let mut depth = 0usize;
            let mut k = p;
            loop {
                if toks[k].is_op(")") {
                    depth += 1;
                } else if toks[k].is_op("(") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return false;
                }
                k -= 1;
            }
            j = k;
            continue;
        }
        match (toks[p].kind, toks[p].text.as_str()) {
            (TokKind::Ident, "const" | "unsafe" | "async" | "extern") => j = p,
            (TokKind::Literal, _) => j = p, // extern ABI string
            (TokKind::Ident, "pub") => return true,
            _ => return false,
        }
    }
}

/// Token index of the path segment following `i`, if the next code token
/// is `::` and the one after it an identifier.
fn path_segment_after(toks: &[Token], i: usize) -> Option<usize> {
    let j = next_code_idx(toks, i)?;
    if !toks[j].is_op("::") {
        return None;
    }
    let k = next_code_idx(toks, j)?;
    (toks[k].kind == TokKind::Ident).then_some(k)
}

// ---------------------------------------------------------------------------
// Whole-workspace event rules
// ---------------------------------------------------------------------------

/// Runs the event-stream rules after every per-file rule has run. A rule
/// whose file or designator lists are empty has no subject and reports
/// nothing.
pub fn run_workspace(
    ws: &Workspace,
    models: &BTreeMap<&str, &SourceModel>,
    policy: &Policy,
    out: &mut Vec<Finding>,
) {
    no_panic_paths(ws, models, policy, out);
    env_reads(ws, models, out);
    lock_order(ws, models, policy, out);
    hot_path_alloc(ws, models, policy, out);
    guard_hold_span(ws, models, policy, out);
    range_taint(ws, models, policy, out);
}

/// A workspace finding with its source snippet.
fn finding(
    models: &BTreeMap<&str, &SourceModel>,
    rule: &str,
    file: &str,
    line: u32,
    message: String,
) -> Finding {
    let snippet = models.get(file).map(|m| m.snippet(line)).unwrap_or_default();
    Finding { rule: rule.to_owned(), file: file.to_owned(), line, message, snippet }
}

/// Emits one workspace finding unless an allow annotation covers it.
fn push_ws(
    models: &BTreeMap<&str, &SourceModel>,
    out: &mut Vec<Finding>,
    rule: &str,
    file: &str,
    line: u32,
    message: String,
) {
    if !models.get(file).is_some_and(|m| m.is_allowed(rule, line)) {
        out.push(finding(models, rule, file, line, message));
    }
}

/// Direct panic sites and their transitive witnesses, from one
/// may-panic pass: every unjustified site is a finding where it stands,
/// and every `pub fn` that reaches one only through callees is a finding
/// carrying the witness chain. A site justified by an allow neither
/// fires nor propagates.
fn no_panic_paths(
    ws: &Workspace,
    models: &BTreeMap<&str, &SourceModel>,
    policy: &Policy,
    out: &mut Vec<Finding>,
) {
    const RULE: &str = "no-panic-paths";
    let what_panics = |f: &FnDef, e: &Event| -> Option<String> {
        match &e.kind {
            EventKind::Method { .. } if matches!(e.name.as_str(), "unwrap" | "expect") => {
                Some(format!(".{}()", e.name))
            }
            EventKind::MacroUse
                if matches!(e.name.as_str(), "panic" | "todo" | "unimplemented") =>
            {
                Some(format!("{}!", e.name))
            }
            EventKind::Index if file_in(&f.file, &policy.index_strict_files) => {
                Some("bracket indexing".to_owned())
            }
            _ => None,
        }
    };
    for f in &ws.fns {
        for e in &f.events {
            if let Some(what) = what_panics(f, e) {
                push_ws(
                    models,
                    out,
                    RULE,
                    &f.file,
                    e.line,
                    format!(
                        "{what} can panic in library code — return a typed error \
                         or annotate the invariant"
                    ),
                );
            }
        }
    }
    let unjustified = |f: &FnDef, e: &Event| {
        what_panics(f, e)
            .filter(|_| !models.get(f.file.as_str()).is_some_and(|m| m.is_allowed(RULE, e.line)))
    };
    let info = ws.may_panic(&unjustified);
    for (f, pi) in ws.fns.iter().zip(&info) {
        let Some(pi) = pi.as_ref().filter(|pi| f.is_pub && !pi.chain.is_empty()) else {
            continue;
        };
        let chain: Vec<String> =
            pi.chain.iter().map(|&c| format!("`{}`", ws.fns[c].qualified())).collect();
        push_ws(
            models,
            out,
            RULE,
            &f.file,
            f.line,
            format!(
                "pub fn `{}` can reach {} at {}:{} via {}",
                f.qualified(),
                pi.desc,
                pi.file,
                pi.line,
                chain.join(" → "),
            ),
        );
    }
}

/// The event half of `determinism`: the process environment is a hidden
/// input, so no library function reads it (`std::env::*`, `env!`,
/// `option_env!`) — configuration arrives as explicit arguments.
fn env_reads(ws: &Workspace, models: &BTreeMap<&str, &SourceModel>, out: &mut Vec<Finding>) {
    for f in &ws.fns {
        for e in &f.events {
            let hit = match &e.kind {
                EventKind::Path { qual } => qual.last().is_some_and(|q| q == "env"),
                EventKind::MacroUse => e.name == "env" || e.name == "option_env",
                _ => false,
            };
            if hit {
                push_ws(
                    models,
                    out,
                    "determinism",
                    &f.file,
                    e.line,
                    format!(
                        "`env::{}` read in fn `{}` — the process environment is a \
                         hidden input; take the value as explicit configuration",
                        e.name,
                        f.qualified(),
                    ),
                );
            }
        }
    }
}

fn lock_order(
    ws: &Workspace,
    models: &BTreeMap<&str, &SourceModel>,
    policy: &Policy,
    out: &mut Vec<Finding>,
) {
    const RULE: &str = "lock-order";
    let edges = ws.lock_edges(&policy.lock_graph_files);
    let phase_pos = |p: &Option<String>| -> Option<usize> {
        p.as_deref().and_then(|p| LOCK_PHASES.iter().position(|q| *q == p))
    };
    for e in &edges {
        let via = e.via.as_ref().map(|v| format!(" (inside callee `{v}`)")).unwrap_or_default();
        if e.from.lock == e.to.lock {
            // Same lock: shared → shared re-entry is fine; anything that
            // involves an exclusive guard deadlocks or upgrades.
            let bad = matches!(
                (e.from.kind, e.to.kind),
                (LockKind::Read, LockKind::Write) | (LockKind::Write, _)
            );
            if bad {
                push_ws(
                    models,
                    out,
                    RULE,
                    &e.from.file,
                    e.from.line,
                    format!(
                        "`{}` is {}-acquired{via} while fn `{}` already holds \
                         it for {} — self-deadlock / guard upgrade",
                        e.to.lock,
                        e.to.kind.as_str(),
                        e.holder,
                        e.from.kind.as_str(),
                    ),
                );
            }
        } else if e.via.is_none() {
            // Declared-phase contradictions are checked on intra-procedural
            // edges only: those guard extents are precise, while via-callee
            // edges inherit the name-resolution over-approximation and
            // would flag phases of callees that cannot actually be reached.
            let (Some(pf), Some(pt)) = (phase_pos(&e.from.phase), phase_pos(&e.to.phase)) else {
                continue;
            };
            if pt < pf {
                push_ws(
                    models,
                    out,
                    RULE,
                    &e.from.file,
                    e.from.line,
                    format!(
                        "fn `{}` acquires `{}` (phase {:?}){via} while holding \
                         `{}` (phase {:?}) — contradicts the declared order {}",
                        e.holder,
                        e.to.lock,
                        LOCK_PHASES[pt],
                        e.from.lock,
                        LOCK_PHASES[pf],
                        LOCK_PHASES.join(" < "),
                    ),
                );
            }
        }
    }
    for cycle in lock_cycles(&edges) {
        // Anchor the finding at the first edge of the cycle.
        let anchor = edges
            .iter()
            .find(|e| e.from.lock == cycle[0])
            .expect("cycle nodes come from the edge set");
        push_ws(
            models,
            out,
            RULE,
            &anchor.from.file,
            anchor.from.line,
            format!(
                "lock-acquisition cycle {} → {} — deadlock when the \
                 functions interleave (first edge held in fn `{}`)",
                cycle.join(" → "),
                cycle[0],
                anchor.holder,
            ),
        );
    }
    // Every in-scope acquisition declares its phase, and the phase
    // agrees with the acquisition kind.
    for f in ws.fns.iter().filter(|f| file_in(&f.file, &policy.lock_graph_files)) {
        for e in &f.events {
            let EventKind::Acquire { lock, kind, phase, .. } = &e.kind else { continue };
            let problem = match phase.as_deref() {
                None => format!(
                    "carries no `// lock-order: <phase>` annotation (phases: {})",
                    LOCK_PHASES.join(" < ")
                ),
                Some(p) if !LOCK_PHASES.contains(&p) => format!(
                    "is annotated `lock-order: {p}`, which is not a declared phase ({})",
                    LOCK_PHASES.join(" < ")
                ),
                Some(p) if p != kind.as_str() => format!(
                    "is annotated `lock-order: {p}` — annotation contradicts the \
                     acquisition kind"
                ),
                Some(_) => continue,
            };
            // Not suppressible: the fix is always the comment itself, and
            // an `allow(lock-order)` that justifies a graph finding on the
            // same line must not swallow a missing declaration.
            let message = format!("`{}` acquisition of `{lock}` {problem}", kind.as_str());
            out.push(finding(models, RULE, &f.file, e.line, message));
        }
    }
}

fn hot_path_alloc(
    ws: &Workspace,
    models: &BTreeMap<&str, &SourceModel>,
    policy: &Policy,
    out: &mut Vec<Finding>,
) {
    const RULE: &str = "hot-path-alloc";
    let roots: Vec<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| policy.alloc_kernels.iter().any(|k| f.matches_designator(k)))
        .map(|(i, _)| i)
        .collect();
    let reach = ws.reachable_with_paths(&roots);
    for (&i, path) in &reach {
        let f = &ws.fns[i];
        if !file_in(&f.file, &policy.alloc_scope_files) {
            continue;
        }
        let witness = || -> String {
            path.iter().map(|&c| ws.fns[c].name.clone()).collect::<Vec<_>>().join(" → ")
        };
        for e in &f.events {
            let what = match &e.kind {
                EventKind::Method { .. } | EventKind::Bare
                    if policy.alloc_calls.contains(&e.name) =>
                {
                    Some(format!(".{}()", e.name))
                }
                EventKind::Path { qual } => {
                    let full = qual
                        .last()
                        .map(|q| format!("{q}::{}", e.name))
                        .unwrap_or_else(|| e.name.clone());
                    policy.alloc_calls.iter().any(|c| *c == full || *c == e.name).then_some(full)
                }
                EventKind::MacroUse if ALLOC_MACROS.contains(&e.name.as_str()) => {
                    Some(format!("{}!", e.name))
                }
                _ => None,
            };
            if let Some(what) = what {
                push_ws(
                    models,
                    out,
                    RULE,
                    &f.file,
                    e.line,
                    format!(
                        "{what} allocates on a kernel hot path (reached via \
                         {}) — hoist the buffer or justify with an allow",
                        witness(),
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// guard-hold-span (CFG + guard-liveness dataflow)
// ---------------------------------------------------------------------------

/// Token index of the `;`/`{`/`}` delimiter preceding the statement that
/// contains `at` (naive backward scan matching `symbols::statement_is_let`).
fn stmt_start(toks: &[Token], at: usize) -> usize {
    let mut i = at;
    while i > 0 {
        i -= 1;
        let t = &toks[i];
        if t.is_comment() {
            continue;
        }
        if t.is_op(";") || t.is_op("{") || t.is_op("}") {
            break;
        }
    }
    i
}

/// The `let` binding name of the statement containing token `at`, if the
/// statement is a simple `let [mut] name = …;`.
fn let_binding_of(toks: &[Token], at: usize) -> Option<String> {
    let i = stmt_start(toks, at);
    let mut j = next_code_idx(toks, i)?;
    if !toks[j].is_ident("let") {
        return None;
    }
    j = next_code_idx(toks, j)?;
    if toks[j].is_ident("mut") {
        j = next_code_idx(toks, j)?;
    }
    (toks[j].kind == TokKind::Ident).then(|| toks[j].text.clone())
}

/// Whether the call whose name token is `call` has `ident` among its
/// argument tokens (shallow scan of the parenthesized argument list).
fn call_args_mention(toks: &[Token], call: usize, ident: &str) -> bool {
    let Some(open) = (call..toks.len().min(call + 6)).find(|&j| toks[j].is_op("(")) else {
        return false;
    };
    let close = match_paren(toks, open, toks.len().saturating_sub(1));
    toks[open + 1..close].iter().any(|t| t.is_ident(ident))
}

fn guard_hold_span(
    ws: &Workspace,
    models: &BTreeMap<&str, &SourceModel>,
    policy: &Policy,
    out: &mut Vec<Finding>,
) {
    const RULE: &str = "guard-hold-span";
    // Transitively-expensive set over the call graph, with witness chains:
    // a function is expensive if it matches a designator or calls an
    // expensive function (same fixpoint shape as may-panic propagation).
    let mut expensive: Vec<Option<Vec<usize>>> = ws
        .fns
        .iter()
        .map(|f| policy.expensive_calls.iter().any(|d| f.matches_designator(d)).then(Vec::new))
        .collect();
    loop {
        let mut changed = false;
        for i in 0..ws.fns.len() {
            if expensive[i].is_some() {
                continue;
            }
            if let Some(&c) = ws.callees[i].iter().find(|&&c| expensive[c].is_some()) {
                let mut chain = vec![c];
                chain.extend(expensive[c].as_deref().unwrap_or_default().iter().copied());
                expensive[i] = Some(chain);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Bare designator name parts, for calls that resolve to nothing
    // (trait objects, std) but are expensive by name.
    let name_parts: Vec<&str> = policy
        .expensive_calls
        .iter()
        .map(|d| d.split_once("::").map_or(d.as_str(), |(_, n)| n))
        .collect();

    for (i, f) in ws.fns.iter().enumerate() {
        if !file_in(&f.file, &policy.guard_span_files) {
            continue;
        }
        let Some(model) = models.get(f.file.as_str()) else { continue };
        let toks = &model.tokens;
        // One liveness fact per acquisition: gen at the acquisition's
        // method token, kill at `held_until` (statement `;` / block `}`)
        // and at every `drop(binding)` site.
        let acqs: Vec<(&str, LockKind, usize, usize)> = f
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Acquire { lock, kind, held_until, .. } => {
                    Some((lock.as_str(), *kind, e.tok, *held_until))
                }
                _ => None,
            })
            .collect();
        if acqs.is_empty() {
            continue;
        }
        let facts: Vec<FactDef> = acqs
            .iter()
            .map(|&(_, _, tok, held)| {
                let mut kills = vec![held];
                if let Some(binding) = let_binding_of(toks, tok) {
                    kills.extend(f.events.iter().filter_map(|e| {
                        (matches!(e.kind, EventKind::Bare)
                            && e.name == "drop"
                            && call_args_mention(toks, e.tok, &binding))
                        .then_some(e.tok)
                    }));
                }
                FactDef { gen_tok: tok, kill_toks: kills }
            })
            .collect();
        let live = Liveness::compute(&f.cfg, &facts);

        for e in &f.events {
            if !matches!(
                e.kind,
                EventKind::Method { .. } | EventKind::Bare | EventKind::Path { .. }
            ) || e.name == "drop"
            {
                continue;
            }
            let held = live.live_at(&f.cfg, e.tok);
            if held.is_empty() {
                continue;
            }
            // Expensive directly by name, or via a resolved callee chain.
            let witness = if name_parts.contains(&e.name.as_str()) {
                Some(format!("`{}`", e.name))
            } else {
                ws.resolve(i, e).into_iter().find_map(|c| {
                    expensive[c].as_ref().map(|chain| {
                        let mut names = vec![format!("`{}`", ws.fns[c].qualified())];
                        names.extend(chain.iter().map(|&n| format!("`{}`", ws.fns[n].qualified())));
                        names.join(" → ")
                    })
                })
            };
            let Some(witness) = witness else { continue };
            for &fi in &held {
                let (lock, kind, _, _) = acqs[fi];
                push_ws(
                    models,
                    out,
                    RULE,
                    &f.file,
                    e.line,
                    format!(
                        "fn `{}` holds the {} guard on `{lock}` across expensive \
                         call `{}` (→ {witness}) — copy what you need under the \
                         guard, drop it, then compute",
                        f.qualified(),
                        kind.as_str(),
                        e.name,
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// range-taint
// ---------------------------------------------------------------------------

/// One tainted variable: introduced at `gen_tok`, carrying the name of
/// the source call that produced it (for the witness message).
struct Taint {
    var: String,
    gen_tok: usize,
    origin: String,
}

fn range_taint(
    ws: &Workspace,
    models: &BTreeMap<&str, &SourceModel>,
    policy: &Policy,
    out: &mut Vec<Finding>,
) {
    const RULE: &str = "range-taint";
    let is_call = |e: &Event| {
        matches!(e.kind, EventKind::Method { .. } | EventKind::Bare | EventKind::Path { .. })
    };
    for f in &ws.fns {
        if !file_in(&f.file, &policy.taint_files) {
            continue;
        }
        let Some(model) = models.get(f.file.as_str()) else { continue };
        let Some((body_lo, body_hi)) = f.body_span else { continue };
        let toks = &model.tokens;
        let body_close = body_hi.saturating_sub(1);

        // Validator call sites, each with the set of identifiers it blesses.
        let validators: Vec<&Event> = f
            .events
            .iter()
            .filter(|e| is_call(e) && policy.taint_validators.contains(&e.name))
            .collect();
        let stmt_has_validator =
            |lo: usize, hi: usize| validators.iter().any(|v| lo <= v.tok && v.tok < hi);

        // Seed taints: `let v = … source(…) …;` with no validator in the
        // statement. Then propagate through later `let w = … v …;`.
        let mut taints: Vec<Taint> = Vec::new();
        for e in f.events.iter().filter(|e| is_call(e) && TAINT_SOURCES.contains(&e.name.as_str()))
        {
            let Some(var) = let_binding_of(toks, e.tok) else { continue };
            let end = statement_end(toks, e.tok, body_close);
            if stmt_has_validator(stmt_start(toks, e.tok), end) {
                continue;
            }
            if !taints.iter().any(|t| t.var == var) {
                taints.push(Taint { var, gen_tok: e.tok, origin: e.name.clone() });
            }
        }
        loop {
            let mut changed = false;
            for j in body_lo..body_hi.min(toks.len()) {
                if !toks[j].is_ident("let") {
                    continue;
                }
                let Some(var) = let_binding_of(toks, j + 1) else { continue };
                if taints.iter().any(|t| t.var == var) {
                    continue;
                }
                let end = statement_end(toks, j, body_close);
                if stmt_has_validator(j, end) {
                    continue;
                }
                let rhs_taint = taints.iter().position(|t| {
                    toks[j..=end.min(toks.len() - 1)].iter().any(|tk| tk.is_ident(&t.var))
                });
                if let Some(ti) = rhs_taint {
                    let origin = taints[ti].origin.clone();
                    let gen_tok = toks[j..=end.min(toks.len() - 1)]
                        .iter()
                        .position(|tk| tk.is_ident(&taints[ti].var))
                        .map(|off| j + off)
                        .unwrap_or(j);
                    taints.push(Taint { var, gen_tok, origin });
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if taints.is_empty() {
            continue;
        }

        // Liveness over the CFG: a validator call blessing the variable
        // kills its taint on that path.
        let facts: Vec<FactDef> = taints
            .iter()
            .map(|t| FactDef {
                gen_tok: t.gen_tok,
                kill_toks: validators
                    .iter()
                    .filter(|v| call_args_mention(toks, v.tok, &t.var))
                    .map(|v| v.tok)
                    .collect(),
            })
            .collect();
        let live = Liveness::compute(&f.cfg, &facts);

        for e in f.events.iter().filter(|e| is_call(e) && TAINT_SINKS.contains(&e.name.as_str())) {
            for &fi in &live.live_at(&f.cfg, e.tok) {
                let t = &taints[fi];
                if !call_args_mention(toks, e.tok, &t.var) {
                    continue;
                }
                push_ws(
                    models,
                    out,
                    RULE,
                    &f.file,
                    e.line,
                    format!(
                        "`{}` in fn `{}` receives `{}`, tainted by `{}`, without \
                         passing a validator — clamp or validate decoded \
                         sizes/endpoints before range scans and allocations",
                        e.name,
                        f.qualified(),
                        t.var,
                        t.origin,
                    ),
                );
            }
        }
    }
}

/// Reports allow annotations that suppressed nothing, after every other
/// rule has run. Test files and `#[cfg(test)]` regions are exempt — the
/// library rules never fire there, so their annotations are documentation.
pub fn dead_allow(
    models: &[SourceModel],
    by_path: &BTreeMap<&str, &SourceModel>,
    out: &mut Vec<Finding>,
) {
    const RULE: &str = "dead-allow";
    for m in models {
        if is_test_path(&m.path) {
            continue;
        }
        let hits = m.hits.borrow().clone();
        for (line, rules) in &m.allows {
            if m.in_test_region(*line) {
                continue;
            }
            for r in rules {
                if r == RULE || hits.contains(&(*line, r.clone())) {
                    continue;
                }
                push_ws(
                    by_path,
                    out,
                    RULE,
                    &m.path,
                    *line,
                    format!(
                        "`skylint: allow({r})` suppresses nothing — delete the \
                         stale escape so future findings are not swallowed"
                    ),
                );
            }
        }
    }
}
