//! The policy rule families.
//!
//! Every rule reports findings as `(rule-id, line, message)` against a
//! [`SourceModel`]; the engine handles allow-annotations, test-region
//! exemptions and path scoping before a finding becomes user-visible.
//!
//! Per-file token rules:
//!
//! | id                    | guards                                           |
//! |-----------------------|--------------------------------------------------|
//! | `no-panic-paths`      | typed-error discipline in library crates         |
//! | `determinism`         | byte-reproducible results across plans/modes     |
//! | `concurrency-hygiene` | thread/lock discipline of the parallel lanes     |
//! | `api-hygiene`         | lint headers + documented public surface         |
//! | `sync-confinement`    | raw sync primitives stay behind skycheck shims   |
//!
//! Whole-workspace dataflow rules (AST + call graph):
//!
//! | id                    | guards                                           |
//! |-----------------------|--------------------------------------------------|
//! | `lock-order`          | acyclic, annotation-consistent lock graph        |
//! | `panic-reachability`  | no transitive panic behind a public API          |
//! | `hot-path-alloc`      | allocation-free designated kernels               |
//! | `dead-allow`          | every allow annotation still suppresses          |
//!
//! CFG + guard-liveness dataflow rules (v3, see `cfg.rs`):
//!
//! | id                     | guards                                          |
//! |------------------------|-------------------------------------------------|
//! | `guard-hold-span`      | no lock guard live across expensive calls       |
//! | `capture-race`         | no unsynchronized mutable captures in spawns    |
//! | `env-read-confinement` | `std::env` reads only in designated pin fns     |
//! | `range-taint`          | decoded sizes/endpoints validated before sinks  |
//!
//! Run `skylint explain <rule>` for the full rationale of each rule.

use std::collections::BTreeMap;

use crate::callgraph::{lock_cycles, Workspace};
use crate::cfg::{FactDef, Liveness};
use crate::engine::Policy;
use crate::lexer::{TokKind, Token};
use crate::model::SourceModel;
use crate::report::Finding;
use crate::symbols::{match_paren, next_code_idx, statement_end, EventKind, LockKind};

/// All rule ids, in reporting order.
pub const RULE_IDS: [&str; 13] = [
    "no-panic-paths",
    "determinism",
    "concurrency-hygiene",
    "api-hygiene",
    "sync-confinement",
    "lock-order",
    "panic-reachability",
    "hot-path-alloc",
    "guard-hold-span",
    "capture-race",
    "env-read-confinement",
    "range-taint",
    "dead-allow",
];

/// Long-form `explain` text for a rule id, if known.
pub fn explain(rule: &str) -> Option<&'static str> {
    match rule {
        "no-panic-paths" => Some(
            "no-panic-paths — library crates must not contain hidden panic paths.\n\
             \n\
             Forbidden in library code (crates listed under [crates].library),\n\
             outside #[cfg(test)] modules:\n\
               * `.unwrap()` and `.expect(…)` method calls\n\
               * `panic!`, `todo!`, `unimplemented!` macro invocations\n\
               * bracket indexing (`xs[i]`) in files listed under\n\
                 [rules.no-panic-paths].index-strict-files — use `.get(i)`\n\
             \n\
             Rationale: the CBCS engine is meant to serve shared, long-lived\n\
             caches (ROADMAP: production-scale, heavy traffic). A panic in a\n\
             library crate kills the worker thread mid-query; callers hold\n\
             typed error channels (GeomError / StorageError / CoreError) that\n\
             every fallible path must use instead. `assert!`-style contract\n\
             checks with documented `# Panics` sections remain permitted: they\n\
             guard API misuse, not data-dependent failures.\n\
             \n\
             Escape hatch: `// skylint: allow(no-panic-paths) — <why safe>`\n\
             on (or directly above) the offending line, for invariants the\n\
             type system cannot carry (e.g. re-raising a worker panic after\n\
             `JoinHandle::join`).",
        ),
        "determinism" => Some(
            "determinism — cached plans must be byte-for-byte reproducible.\n\
             \n\
             Forbidden in library code outside #[cfg(test)] modules:\n\
               * `std::time::Instant` / `SystemTime` (any mention) — wall\n\
                 clocks fork behaviour between runs; the one audited site is\n\
                 core/src/clock.rs, which carries the allow annotation\n\
               * `HashMap` / `HashSet` — iteration order is randomized per\n\
                 process; every result-producing path must use BTreeMap /\n\
                 BTreeSet / sorted vectors instead\n\
               * float `==` / `!=` in files listed under\n\
                 [rules.determinism].float-eq-files — comparisons on raw f64\n\
                 expressions must go through skycache_geom::float helpers\n\
                 (approx_eq / exact_eq), making every float comparison an\n\
                 audited decision\n\
             \n\
             Rationale: the paper's stability theory (Thm. 1, Cors. 1–2) and\n\
             MPR minimality (Thms. 6–7) assume a cached plan replayed later\n\
             yields the identical skyline. HashMap iteration\n\
             order leaking into eviction order, R-tree insertion order or\n\
             result assembly silently breaks that; so does any wall-clock\n\
             value feeding planning.\n\
             \n\
             Escape hatch: `// skylint: allow(determinism) — <why benign>`.",
        ),
        "concurrency-hygiene" => Some(
            "concurrency-hygiene — thread and lock discipline.\n\
             \n\
             Checks:\n\
               * `spawn(…)` (std::thread::spawn, scope.spawn, …) is permitted\n\
                 only in the files listed under\n\
                 [rules.concurrency-hygiene].spawn-allowed — today none:\n\
                 no library crate spawns a thread on the query path.\n\
                 Tests may spawn freely.\n\
               * In lock-protocol files ([rules.concurrency-hygiene]\n\
                 .lock-protocol-files), every `.read()` / `.write()` /\n\
                 `.lock()` acquisition must carry a `// lock-order: <phase>`\n\
                 annotation naming a declared phase, and within one function\n\
                 phases must appear in declared order (read before write in\n\
                 core/src/shared.rs) — enforcing the documented\n\
                 search → compute-unlocked → publish protocol.\n\
               * Every `unsafe {` block needs a `// SAFETY:` comment on or\n\
                 directly above the line.\n\
             \n\
             Rationale: the shared multi-user cache (core/src/shared.rs)\n\
             stays deadlock-free because no code path upgrades read → write\n\
             while holding a guard; annotating each acquisition keeps the\n\
             protocol reviewable and lets the linter reject regressions.",
        ),
        "api-hygiene" => Some(
            "api-hygiene — library crates keep a warnings-clean surface.\n\
             \n\
             Checks:\n\
               * each library crate root (src/lib.rs) starts with `//!` crate\n\
                 docs and carries every header listed under\n\
                 [rules.api-hygiene].required-headers (the\n\
                 `#![deny(warnings)]`-compatible lint set)\n\
               * public items at module scope in the crates listed under\n\
                 [rules.api-hygiene].doc-paths carry `///` doc comments\n\
                 (compile-time `#![warn(missing_docs)]` also covers impl\n\
                 bodies; the lint runs without compiling)\n\
             \n\
             Rationale: CI promotes clippy/rustfmt to required jobs; the\n\
             headers keep every crate compatible with `-D warnings`, and the\n\
             documented public surface is what makes the cache reusable as a\n\
             library (ROADMAP north star).",
        ),
        "lock-order" => Some(
            "lock-order — the inferred lock-acquisition graph must be a DAG\n\
             consistent with the `// lock-order:` annotations.\n\
             \n\
             For every function in the files under [rules.lock-order].files,\n\
             skylint parses the AST, extracts each `.read()`/`.write()`/\n\
             `.lock()` acquisition with the live range of its guard\n\
             (let-bound guards live to end of block; chained temporaries to\n\
             end of statement, matching Rust drop semantics), and builds the\n\
             inter-procedural graph: lock A → lock B when B is acquired —\n\
             directly or anywhere inside a callee — while a guard on A is\n\
             live. Flagged:\n\
               * read → write or write → anything re-entry on the *same*\n\
                 lock (self-deadlock / upgrade; read → read shared guards\n\
                 are permitted)\n\
               * cycles among distinct locks (classic AB/BA deadlock)\n\
               * acquisitions whose declared phases contradict the declared\n\
                 order while one guard is held\n\
               * annotations whose phase disagrees with the acquisition\n\
                 kind (`read` on `.write()`, …)\n\
             \n\
             Rationale: PR 2 trusted the shared.rs annotations; this rule\n\
             verifies them against the code, so the shared-cache protocol\n\
             (search → compute-unlocked → publish) is checked, not declared.\n\
             Call edges resolve by name (no type inference), which can only\n\
             over-approximate the graph — a clean result is therefore sound.",
        ),
        "panic-reachability" => Some(
            "panic-reachability — no public library API may transitively\n\
             reach an unjustified panic.\n\
             \n\
             May-panic facts ([rules.panic-reachability].sources — unwrap,\n\
             expect, panic-macro, optionally indexing and arithmetic) are\n\
             collected per function and propagated over the workspace call\n\
             graph to a fixpoint. A `pub fn` in a library crate whose callee\n\
             chain reaches such a fact is flagged, with the full witness\n\
             chain (api → helper → sink) in the message. Facts carrying a\n\
             `skylint: allow(no-panic-paths)` or `allow(panic-reachability)`\n\
             justification do not propagate. Direct (same-function) panics\n\
             are left to no-panic-paths to avoid double-reporting.\n\
             \n\
             Rationale: a panic one call deep behind `SharedCbcsExecutor::\n\
             query` still kills a worker lane mid-fetch; single-line token\n\
             patterns cannot see it, the call graph can.\n\
             \n\
             Escape hatch: `// skylint: allow(panic-reachability) — <why>`\n\
             on the public fn or on the panic site.",
        ),
        "hot-path-alloc" => Some(
            "hot-path-alloc — designated kernels stay allocation-free.\n\
             \n\
             Roots are the kernels named in [rules.hot-path-alloc].kernels\n\
             (`fn` or `Type::fn` designators). Every function reachable from\n\
             a root over the call graph and defined under\n\
             [rules.hot-path-alloc].scope-files is checked for allocation\n\
             machinery: the calls in .calls (Vec::new, push, clone, to_vec,\n\
             collect, …) and the macros in .macros (vec!, format!). The\n\
             method names in .recorder-idents (record_span, add_counter, …)\n\
             are flagged the same way: kernels return stats by value, the\n\
             engine records them — a reachable Recorder call means\n\
             observability leaked into a kernel. Findings carry the call\n\
             path from the kernel as a witness.\n\
             \n\
             Rationale: PR 1's SoA fast paths (geom::block dominance\n\
             kernels, storage bulk fetch) win\n\
             by staying allocation-free per point; one stray `clone()` in a\n\
             helper re-introduces per-tuple heap traffic that the benches\n\
             only catch after the regression lands. Deliberate staging\n\
             buffers carry `// skylint: allow(hot-path-alloc) — <why>`.",
        ),
        "guard-hold-span" => Some(
            "guard-hold-span — no lock guard may be live across a call into\n\
             the designated expensive set.\n\
             \n\
             For every function in the files under [rules.guard-hold-span]\n\
             .files, skylint builds the per-function control-flow graph\n\
             (if/else, loops, match arms, early return/`?`) and runs a\n\
             forward guard-liveness dataflow: each `.read()`/`.write()`/\n\
             `.lock()` acquisition generates a fact that dies at the guard's\n\
             drop point (explicit `drop(g)`, end of statement for chained\n\
             temporaries, end of block for let-bound guards — Rust drop\n\
             semantics). A call executed while any guard fact is live is\n\
             flagged when its callee is *expensive*: it matches a designator\n\
             in [rules.guard-hold-span].expensive (`fn` or `Type::fn`), or\n\
             transitively calls one over the workspace call graph. Findings\n\
             carry the witness chain to the expensive sink.\n\
             \n\
             Rationale: the shared multi-user cache only scales if lookups\n\
             never serialize behind long computations (ROADMAP item 1).\n\
             Holding the cache RwLock across MPR planning, fetching, skyline\n\
             compute or Recorder I/O turns every concurrent query into a\n\
             convoy. The sanctioned protocol is: search and *copy out* under\n\
             a short read guard, compute unlocked, re-acquire write only to\n\
             publish. Name-only call resolution over-approximates, so a\n\
             clean result is sound.\n\
             \n\
             Escape hatch: `// skylint: allow(guard-hold-span) — <why>` on\n\
             the call line, for calls that are cheap despite their name.",
        ),
        "capture-race" => Some(
            "capture-race — closures handed to `spawn` must not mutate\n\
             state that is also read outside the closure without a\n\
             synchronization type.\n\
             \n\
             At every `spawn(…)` call site in library code skylint inspects\n\
             the closure argument's body for writes to captured bindings:\n\
             `x = …`, compound assignment (`x += …`), or taking `&mut x`.\n\
             A write is flagged when the binding is declared with `let`\n\
             *outside* the closure, its declaration does not involve one of\n\
             the types in [rules.capture-race].sync-types (Mutex, RwLock,\n\
             Atomic*, mpsc, …), and the binding is read again after the\n\
             closure body — the classic pattern where scoped-thread results\n\
             race instead of being returned through join handles or\n\
             channels.\n\
             \n\
             Rationale: rustc rejects most capture races, but `thread::scope`\n\
             plus interior mutability (Cell/RefCell in a single-threaded\n\
             type, raw pointers in unsafe blocks) and per-iteration re-borrow\n\
             patterns can compile and still be logically racy or become racy\n\
             on refactor. The parallel lanes return values through join\n\
             handles; this rule keeps that discipline mechanical.\n\
             \n\
             Escape hatch: `// skylint: allow(capture-race) — <why>` on the\n\
             mutation line.",
        ),
        "env-read-confinement" => Some(
            "env-read-confinement — process-environment reads are confined\n\
             to designated init/pin functions.\n\
             \n\
             Any `std::env::*` call (var, vars, temp_dir, …) or `env!`/\n\
             `option_env!` macro in a library, non-test function is flagged\n\
             unless the enclosing function matches a designator in\n\
             [rules.env-read-confinement].allowed-fns or the file is listed\n\
             in .allowed-files. Tool crates (cli, bench, skylint) are not\n\
             library crates and may read the environment freely.\n\
             \n\
             Rationale: ambient environment reads are hidden inputs — they\n\
             fork behaviour between runs (determinism) and between the\n\
             serving threads of one process (a worker re-reading a\n\
             mode variable mid-flight could take a different code path\n\
             than the one the cached plan was built with). The\n\
             sanctioned pattern is one once-style pin function that reads\n\
             the variable a single time and caches the decision; everything\n\
             else takes configuration explicitly.\n\
             \n\
             Escape hatch: `// skylint: allow(env-read-confinement) — <why>`.",
        ),
        "range-taint" => Some(
            "range-taint — decoded or parsed values must pass a validator\n\
             before reaching range scans or allocation sizes.\n\
             \n\
             Within the files under [rules.range-taint].files, a `let`\n\
             binding whose initializer calls a source in .sources\n\
             (get_u64_le, from_le_bytes, parse, …) is tainted; taint\n\
             propagates through later `let` bindings that mention a tainted\n\
             variable. A call to a validator in .validators with the\n\
             tainted variable as argument kills the taint (guard-liveness\n\
             dataflow over the CFG, so a validation on one branch clears\n\
             only that branch). A sink in .sinks (ColumnIndex::locate,\n\
             Vec::with_capacity, reserve, …) receiving a still-tainted\n\
             variable is a finding. A binding validated at birth\n\
             (`let n = checked_len(buf.get_u64_le(), max)?;`) is never\n\
             tainted.\n\
             \n\
             Rationale: the future query server feeds client-supplied\n\
             constraint endpoints into ColumnIndex::locate scans, and the\n\
             persist loader turns file bytes into allocation sizes — an\n\
             unvalidated 8-byte length is a remote OOM. Input hardening\n\
             must be checkable, not reviewed.\n\
             \n\
             Escape hatch: `// skylint: allow(range-taint) — <why bounded>`.",
        ),
        "sync-confinement" => Some(
            "sync-confinement — concurrency primitives in the shared-cache\n\
             protocol code must come from the `skycheck::sync` shims.\n\
             \n\
             Within the files listed under [rules.sync-confinement].files\n\
             (library code, outside #[cfg(test)] modules), any mention of:\n\
               * `parking_lot` (imports or paths)\n\
               * `std::sync::{Mutex, RwLock, Condvar, Barrier, Once, mpsc,\n\
                 atomic}` paths\n\
               * `std::thread` paths, except\n\
                 `std::thread::available_parallelism`\n\
             is a finding. `std::sync::Arc`, `OnceLock` and the shim\n\
             re-exports are fine.\n\
             \n\
             Additionally, a `pub fn` whose signature returns a lock\n\
             guard (`MutexGuard`, `RwLockReadGuard`, `RwLockWriteGuard`)\n\
             is a finding: a guard that escapes the file unseals the\n\
             lock protocol — callers can hold it across arbitrary code,\n\
             invisible to the lock-order and guard-hold-span analyses.\n\
             Expose `with_…(f: impl FnOnce(&T) -> R)` closure APIs, or\n\
             publish immutable snapshots, instead. Private helpers may\n\
             still pass guards around within the file.\n\
             \n\
             Rationale: skycheck's deterministic model checker can only\n\
             explore interleavings of operations it can see. The shims in\n\
             `skycheck::sync` compile to the real `std` primitives in\n\
             production and become schedule points under an Explorer run;\n\
             a raw `std::sync::RwLock` or `std::thread::spawn` in protocol\n\
             code is invisible to the checker, so the model-checked\n\
             invariants silently stop covering it.\n\
             \n\
             Escape hatch: `// skylint: allow(sync-confinement) — <why the\n\
             primitive is out of model scope>`.",
        ),
        "dead-allow" => Some(
            "dead-allow — `// skylint: allow(…)` escapes must still earn\n\
             their keep.\n\
             \n\
             Every suppression is recorded during the scan; after all other\n\
             rules ran, any allow annotation (outside tests) that suppressed\n\
             nothing is reported. Stale escapes are deleted, not kept as\n\
             decoration — otherwise the next real finding on that line is\n\
             silently swallowed.\n\
             \n\
             Note the annotation must also be well-formed and name known\n\
             rules; malformed or unknown-rule annotations are hard errors\n\
             (exit 2), not findings.",
        ),
        _ => None,
    }
}

/// Context handed to each rule for one file.
pub struct FileCtx<'a> {
    /// Lexed + indexed source.
    pub model: &'a SourceModel,
    /// File belongs to a library crate's `src/` tree.
    pub is_library: bool,
    /// File lives under `tests/`, `benches/` or `examples/`.
    pub is_test_file: bool,
    /// Resolved policy configuration.
    pub policy: &'a Policy,
}

impl FileCtx<'_> {
    fn lib_code_at(&self, line: u32) -> bool {
        self.is_library && !self.is_test_file && !self.model.in_test_region(line)
    }

    fn path_in(&self, list: &[String]) -> bool {
        list.iter().any(|p| self.model.path == *p || self.model.path.starts_with(p.as_str()))
    }
}

/// Runs every rule over one file.
pub fn run_all(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    no_panic_paths(ctx, out);
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
// no-panic-paths
// ---------------------------------------------------------------------------

fn no_panic_paths(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    const RULE: &str = "no-panic-paths";
    let toks = &ctx.model.tokens;
    let index_strict = ctx.path_in(&ctx.policy.index_strict_files);
    for (i, t) in toks.iter().enumerate() {
        if t.is_comment() || !ctx.lib_code_at(t.line) {
            continue;
        }
        // `.unwrap()` / `.expect(` method calls.
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && prev_code(toks, i).is_some_and(|p| p.is_op("."))
            && next_code(toks, i).is_some_and(|n| n.is_op("("))
        {
            push(
                ctx,
                out,
                RULE,
                t.line,
                format!(
                    ".{}() panics on the error path — return a typed error \
                     or annotate the invariant",
                    t.text
                ),
            );
        }
        // panic!/todo!/unimplemented! macros.
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "panic" | "todo" | "unimplemented")
            && next_code(toks, i).is_some_and(|n| n.is_op("!"))
        {
            push(
                ctx,
                out,
                RULE,
                t.line,
                format!("{}! in library code — return a typed error instead", t.text),
            );
        }
        // Index-without-get in strict files: `expr[` where expr is an
        // identifier, `)` or `]` (expression position, not a type, attr or
        // macro like vec![…]).
        if index_strict
            && t.is_op("[")
            && prev_code(toks, i).is_some_and(|p| {
                p.kind == TokKind::Ident && !is_keyword(&p.text) || p.is_op(")") || p.is_op("]")
            })
        {
            push(
                ctx,
                out,
                RULE,
                t.line,
                "bracket indexing can panic out-of-bounds — use .get(i) \
                 (index-strict file)"
                    .to_owned(),
            );
        }
    }
}

/// Keywords that can precede `[` without forming an index expression
/// (`if let Some(x) = …`, `return [a, b]`, `in [1, 2]`, …).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "return"
            | "in"
            | "mut"
            | "ref"
            | "move"
            | "let"
            | "const"
            | "static"
            | "as"
            | "break"
            | "continue"
            | "where"
            | "impl"
            | "dyn"
            | "fn"
            | "for"
            | "while"
            | "loop"
            | "unsafe"
            | "use"
            | "pub"
            | "type"
            | "struct"
            | "enum"
            | "trait"
    )
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

fn determinism(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    const RULE: &str = "determinism";
    let toks = &ctx.model.tokens;
    let float_strict = ctx.path_in(&ctx.policy.float_files);
    for (i, t) in toks.iter().enumerate() {
        if t.is_comment() || !ctx.lib_code_at(t.line) {
            continue;
        }
        if t.kind == TokKind::Ident && ctx.policy.time_idents.contains(&t.text) {
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
        if t.kind == TokKind::Ident && ctx.policy.hash_idents.contains(&t.text) {
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
    const RULE: &str = "concurrency-hygiene";
    let toks = &ctx.model.tokens;
    let spawn_ok = ctx.path_in(&ctx.policy.spawn_allowed);
    for (i, t) in toks.iter().enumerate() {
        if t.is_comment() {
            continue;
        }
        // spawn() outside the sanctioned lanes.
        if !spawn_ok
            && ctx.lib_code_at(t.line)
            && t.is_ident("spawn")
            && next_code(toks, i).is_some_and(|n| n.is_op("("))
        {
            push(
                ctx,
                out,
                RULE,
                t.line,
                "spawn() in library code outside \
                 [rules.concurrency-hygiene].spawn-allowed — no library \
                 crate spawns a thread on the query path"
                    .to_owned(),
            );
        }
        // unsafe blocks need SAFETY comments (everywhere, tests included —
        // unsound test code is still unsound).
        if t.is_ident("unsafe")
            && next_code(toks, i).is_some_and(|n| n.is_op("{"))
            && ctx.model.comment_near(t.line, "SAFETY:").is_none()
        {
            push(
                ctx,
                out,
                RULE,
                t.line,
                "unsafe block without a `// SAFETY:` comment on or above \
                 the line"
                    .to_owned(),
            );
        }
    }
    // Lock protocol, per function.
    if ctx.path_in(&ctx.policy.lock_files) {
        lock_protocol(ctx, out);
    }
}

fn lock_protocol(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    const RULE: &str = "concurrency-hygiene";
    let toks = &ctx.model.tokens;
    let phases = &ctx.policy.lock_phases;
    for span in &ctx.model.fn_spans {
        let mut last_phase: Option<usize> = None;
        for i in span.body_start..span.body_end.min(toks.len()) {
            let t = &toks[i];
            if t.is_comment() || ctx.model.in_test_region(t.line) {
                continue;
            }
            let is_acquisition = t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "read" | "write" | "lock" | "try_lock")
                && prev_code(toks, i).is_some_and(|p| p.is_op("."))
                && next_code(toks, i).is_some_and(|n| n.is_op("("));
            if !is_acquisition {
                continue;
            }
            let Some(comment) = ctx.model.comment_near(t.line, "lock-order:") else {
                push(
                    ctx,
                    out,
                    RULE,
                    t.line,
                    format!(
                        ".{}() lock acquisition without a `// lock-order: \
                         <phase>` annotation (declared phases: {})",
                        t.text,
                        phases.join(" < ")
                    ),
                );
                continue;
            };
            let annotated = comment
                .split("lock-order:")
                .nth(1)
                .map(|s| s.split_whitespace().next().unwrap_or("").to_owned())
                .unwrap_or_default();
            let Some(pos) = phases.iter().position(|p| *p == annotated) else {
                push(
                    ctx,
                    out,
                    RULE,
                    t.line,
                    format!(
                        "lock-order phase {annotated:?} is not declared \
                         (declared: {})",
                        phases.join(" < ")
                    ),
                );
                continue;
            };
            if let Some(prev) = last_phase {
                if pos < prev {
                    push(
                        ctx,
                        out,
                        RULE,
                        t.line,
                        format!(
                            "lock phase {:?} acquired after {:?} in fn {} — \
                             violates the declared order {}",
                            phases[pos],
                            phases[prev],
                            span.name,
                            phases.join(" < ")
                        ),
                    );
                }
            }
            last_phase = Some(pos.max(last_phase.unwrap_or(0)));
        }
    }
}

// ---------------------------------------------------------------------------
// api-hygiene
// ---------------------------------------------------------------------------

fn api_hygiene(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    const RULE: &str = "api-hygiene";
    if !ctx.is_library || ctx.is_test_file {
        return;
    }
    let m = ctx.model;
    // Crate roots: required headers + crate docs.
    if m.path.ends_with("src/lib.rs") {
        let src = m.lines.join("\n");
        for header in &ctx.policy.required_headers {
            if !src.contains(header.as_str()) {
                push(
                    ctx,
                    out,
                    RULE,
                    1,
                    format!("crate root is missing the required header `{header}`"),
                );
            }
        }
        if !m
            .tokens
            .first()
            .is_some_and(|t| t.kind == TokKind::LineComment && t.text.starts_with("//!"))
        {
            push(ctx, out, RULE, 1, "crate root must open with `//!` crate documentation".into());
        }
    }
    // Documented public items at module scope.
    if ctx.path_in(&ctx.policy.doc_paths) {
        undocumented_pub_items(ctx, out);
    }
}

/// Flags `pub fn/struct/enum/trait/type/const/static/mod` items at module
/// scope (brace depth 0, or inside non-test `mod` blocks — approximated by
/// "not inside any fn body") lacking a preceding doc comment.
fn undocumented_pub_items(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    const RULE: &str = "api-hygiene";
    let toks = &ctx.model.tokens;
    let in_fn_body =
        |i: usize| ctx.model.fn_spans.iter().any(|s| s.body_start < i && i < s.body_end);
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") || ctx.model.in_test_region(t.line) || in_fn_body(i) {
            continue;
        }
        // Skip visibility qualifiers: pub(crate), pub(super), pub(in …).
        let mut j = i + 1;
        if toks.get(j).is_some_and(|n| n.is_op("(")) {
            continue; // pub(crate)/pub(super) items are not public API
        }
        while toks.get(j).is_some_and(|n| n.is_comment()) {
            j += 1;
        }
        let Some(item) = toks.get(j) else { continue };
        let kind = item.text.as_str();
        if !matches!(
            kind,
            "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "mod" | "union"
        ) {
            continue; // pub use re-exports need no doc of their own
        }
        // Inside an impl block, missing_docs governs; the lexical check
        // covers module scope only. Heuristic: an item whose enclosing
        // brace context is an impl is preceded (searching back) by an
        // `impl` at lower depth — approximate by checking whether any
        // `impl` token appears before `i` with an unclosed brace.
        if inside_impl(toks, i) {
            continue;
        }
        if !has_doc_before(toks, i) {
            push(ctx, out, RULE, t.line, format!("public `{kind}` lacks a doc comment (///)"));
        }
    }
}

/// Whether token `i` sits inside an `impl … { … }` body.
fn inside_impl(toks: &[Token], i: usize) -> bool {
    // Track a stack of open braces, noting which were opened by impl/mod.
    let mut stack: Vec<bool> = Vec::new(); // true = impl brace
    let mut pending_impl = false;
    for t in &toks[..i] {
        if t.is_comment() {
            continue;
        }
        if t.is_ident("impl") {
            pending_impl = true;
        } else if t.is_op("{") {
            stack.push(pending_impl);
            pending_impl = false;
        } else if t.is_op("}") {
            stack.pop();
        } else if t.is_op(";") {
            pending_impl = false;
        }
    }
    stack.iter().any(|&b| b)
}

/// Whether the item starting at token `i` has a doc comment or doc
/// attribute directly above (skipping other attributes like #[derive]).
fn has_doc_before(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        match t.kind {
            TokKind::LineComment if t.text.starts_with("///") || t.text.starts_with("//!") => {
                return true
            }
            TokKind::BlockComment if t.text.starts_with("/**") || t.text.starts_with("/*!") => {
                return true
            }
            TokKind::LineComment | TokKind::BlockComment => continue,
            // Walk over attributes: `]` closes one; skip to its `#`.
            TokKind::Op if t.text == "]" => {
                let mut depth = 1i32;
                while j > 0 && depth > 0 {
                    j -= 1;
                    if toks[j].is_op("]") {
                        depth += 1;
                    } else if toks[j].is_op("[") {
                        depth -= 1;
                    }
                }
                // Check for a doc attribute #[doc = "…"].
                if toks[j..i].iter().any(|t| t.is_ident("doc")) {
                    return true;
                }
                if j > 0 && toks[j - 1].is_op("#") {
                    j -= 1;
                }
            }
            _ => return false,
        }
    }
    false
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
    if ctx.policy.sync_confine_files.is_empty() || !ctx.path_in(&ctx.policy.sync_confine_files) {
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

/// Previous non-comment token's index.
fn prev_code_idx(toks: &[Token], i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| !toks[j].is_comment())
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
// Whole-workspace dataflow rules
// ---------------------------------------------------------------------------

/// Runs the call-graph rules after every per-file rule has run.
pub fn run_workspace(
    ws: &Workspace,
    models: &BTreeMap<&str, &SourceModel>,
    policy: &Policy,
    out: &mut Vec<Finding>,
) {
    if !policy.lock_graph_files.is_empty() {
        lock_order(ws, models, policy, out);
    }
    panic_reachability(ws, models, policy, out);
    if !policy.alloc_kernels.is_empty() {
        hot_path_alloc(ws, models, policy, out);
    }
    if !policy.guard_span_files.is_empty() && !policy.expensive_calls.is_empty() {
        guard_hold_span(ws, models, policy, out);
    }
    capture_race(ws, models, policy, out);
    env_read_confinement(ws, models, policy, out);
    if !policy.taint_files.is_empty() {
        range_taint(ws, models, policy, out);
    }
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
    let mut snippet = String::new();
    if let Some(m) = models.get(file) {
        if m.is_allowed(rule, line) {
            return;
        }
        snippet = m.snippet(line);
    }
    out.push(Finding { rule: rule.to_owned(), file: file.to_owned(), line, message, snippet });
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
        p.as_ref().and_then(|p| policy.lock_phases.iter().position(|q| q == p))
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
                        policy.lock_phases[pt],
                        e.from.lock,
                        policy.lock_phases[pf],
                        policy.lock_phases.join(" < "),
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
    // Annotation/kind consistency on every in-scope acquisition.
    let in_scope = |file: &str| {
        policy.lock_graph_files.iter().any(|p| file == p || file.starts_with(&format!("{p}/")))
    };
    for f in ws.fns.iter().filter(|f| in_scope(&f.file)) {
        for e in &f.events {
            let EventKind::Acquire { lock, kind, phase: Some(phase), .. } = &e.kind else {
                continue;
            };
            let consistent = match kind {
                LockKind::Read => phase != "write",
                LockKind::Write => phase != "read",
            };
            if !consistent {
                push_ws(
                    models,
                    out,
                    RULE,
                    &f.file,
                    e.line,
                    format!(
                        "`{}` acquisition of `{lock}` is annotated \
                         `lock-order: {phase}` — annotation contradicts the \
                         acquisition kind",
                        kind.as_str(),
                    ),
                );
            }
        }
    }
}

fn panic_reachability(
    ws: &Workspace,
    models: &BTreeMap<&str, &SourceModel>,
    policy: &Policy,
    out: &mut Vec<Finding>,
) {
    const RULE: &str = "panic-reachability";
    let justified = |f: &crate::symbols::FnDef, line: u32| {
        models
            .get(f.file.as_str())
            .is_some_and(|m| m.is_allowed("no-panic-paths", line) || m.is_allowed(RULE, line))
    };
    let info = ws.may_panic(&policy.panic_sources, &justified);
    for (i, f) in ws.fns.iter().enumerate() {
        if !f.is_pub {
            continue;
        }
        let Some(pi) = &info[i] else { continue };
        if pi.chain.is_empty() {
            continue; // direct panic — no-panic-paths already reports the site
        }
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
    let in_scope = |file: &str| {
        policy.alloc_scope_files.is_empty()
            || policy
                .alloc_scope_files
                .iter()
                .any(|p| file == p || file.starts_with(&format!("{p}/")))
    };
    for (&i, path) in &reach {
        let f = &ws.fns[i];
        if !in_scope(&f.file) {
            continue;
        }
        let witness = || -> String {
            path.iter().map(|&c| ws.fns[c].name.clone()).collect::<Vec<_>>().join(" → ")
        };
        for e in &f.events {
            // Recorder calls are forbidden on kernel hot paths outright:
            // kernels return their stats by value and the engine
            // publishes them, so a reachable `record_span`/`add_counter`
            // means observability leaked into a kernel.
            if matches!(e.kind, EventKind::Method { .. } | EventKind::Bare)
                && policy.recorder_idents.contains(&e.name)
            {
                push_ws(
                    models,
                    out,
                    RULE,
                    &f.file,
                    e.line,
                    format!(
                        "Recorder call `.{}()` on a kernel hot path (reached via \
                         {}) — kernels return stats by value; record in the engine",
                        e.name,
                        witness(),
                    ),
                );
                continue;
            }
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
                EventKind::MacroUse if policy.alloc_macros.contains(&e.name) => {
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

/// Whether `file` is equal to or under any of the path prefixes.
fn file_in(file: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| file == p || file.starts_with(&format!("{p}/")))
}

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
    // Exempt designators are never marked, cutting propagation through
    // them — the publish steps a guard exists to cover stay cheap even
    // when name-only resolution wires them to an expensive namesake.
    let exempt: Vec<bool> = ws
        .fns
        .iter()
        .map(|f| policy.expensive_exempt.iter().any(|d| f.matches_designator(d)))
        .collect();
    let mut expensive: Vec<Option<Vec<usize>>> = ws
        .fns
        .iter()
        .zip(&exempt)
        .map(|(f, &ex)| {
            (!ex && policy.expensive_calls.iter().any(|d| f.matches_designator(d))).then(Vec::new)
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..ws.fns.len() {
            if expensive[i].is_some() || exempt[i] {
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
// capture-race
// ---------------------------------------------------------------------------

fn capture_race(
    ws: &Workspace,
    models: &BTreeMap<&str, &SourceModel>,
    policy: &Policy,
    out: &mut Vec<Finding>,
) {
    const RULE: &str = "capture-race";
    for f in &ws.fns {
        let Some(model) = models.get(f.file.as_str()) else { continue };
        let Some((body_lo, body_hi)) = f.body_span else { continue };
        let toks = &model.tokens;
        for e in &f.events {
            let is_spawn = matches!(
                e.kind,
                EventKind::Method { .. } | EventKind::Bare | EventKind::Path { .. }
            ) && e.name == "spawn";
            if !is_spawn {
                continue;
            }
            let Some(open) = (e.tok..toks.len().min(e.tok + 6)).find(|&j| toks[j].is_op("("))
            else {
                continue;
            };
            let close = match_paren(toks, open, body_hi.saturating_sub(1));
            // Outermost block inside the argument list = the closure body.
            let Some(&(blo, bhi)) = f.block_spans.iter().find(|&&(lo, _)| open < lo && lo < close)
            else {
                continue;
            };
            for (name, line) in mutated_captures(toks, blo, bhi) {
                // Declared with `let` before the closure, in this body?
                let Some(decl) = let_decl_before(toks, body_lo, blo, &name) else { continue };
                // Synchronized declarations are fine.
                let decl_end = statement_end(toks, decl, body_hi.saturating_sub(1));
                let synced = toks[decl..=decl_end.min(toks.len() - 1)].iter().any(|t| {
                    t.kind == TokKind::Ident
                        && policy.sync_types.iter().any(|s| t.text.starts_with(s.as_str()))
                });
                if synced {
                    continue;
                }
                // Read again after the closure body?
                let read_after = (bhi..body_hi.min(toks.len())).any(|j| toks[j].is_ident(&name));
                if !read_after {
                    continue;
                }
                push_ws(
                    models,
                    out,
                    RULE,
                    &f.file,
                    line,
                    format!(
                        "closure passed to `spawn` in fn `{}` mutates captured \
                         `{name}`, which is read again outside the closure with \
                         no synchronization type — return the value through the \
                         join handle or wrap it in a Mutex/Atomic",
                        f.qualified(),
                    ),
                );
            }
        }
    }
}

/// Identifiers written inside `[blo, bhi)`: assignment targets (`x = …`,
/// `x += …`, taking the head of a dotted chain) and `&mut x` borrows.
/// Returns `(name, line)` pairs, deduplicated per name.
fn mutated_captures(toks: &[Token], blo: usize, bhi: usize) -> Vec<(String, u32)> {
    let mut out: Vec<(String, u32)> = Vec::new();
    let mut push = |name: &str, line: u32| {
        if !out.iter().any(|(n, _)| n == name) {
            out.push((name.to_owned(), line));
        }
    };
    for j in blo + 1..bhi.min(toks.len()).saturating_sub(1) {
        let t = &toks[j];
        if t.is_comment() {
            continue;
        }
        // `&mut x`
        if t.is_op("&")
            && toks.get(j + 1).is_some_and(|n| n.is_ident("mut"))
            && toks.get(j + 2).is_some_and(|n| n.kind == TokKind::Ident)
        {
            push(&toks[j + 2].text, toks[j + 2].line);
        }
        // Assignment: ident (possibly `head.field`) followed by = / += / …
        if t.kind == TokKind::Op
            && matches!(t.text.as_str(), "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "|=" | "&=")
        {
            // Walk the dotted chain left of the operator to its head.
            let mut k = j;
            let mut head: Option<usize> = None;
            while k > blo {
                k -= 1;
                let p = &toks[k];
                if p.is_comment() {
                    continue;
                }
                if p.kind == TokKind::Ident && !is_keyword(&p.text) {
                    head = Some(k);
                    // keep walking through `.`-chains
                    match toks[..k].iter().rposition(|q| !q.is_comment()) {
                        Some(q) if toks[q].is_op(".") && q > blo => k = q,
                        _ => break,
                    }
                } else {
                    break;
                }
            }
            if let Some(h) = head {
                // `let x = …` declares a closure-local — not a capture.
                let is_decl = toks[..h]
                    .iter()
                    .rposition(|q| !q.is_comment())
                    .is_some_and(|q| toks[q].is_ident("let") || toks[q].is_ident("mut"));
                if !is_decl {
                    push(&toks[h].text, toks[h].line);
                }
            }
        }
    }
    out
}

/// Token index of a `let [mut] name` declaration between `lo` and `hi`.
fn let_decl_before(toks: &[Token], lo: usize, hi: usize, name: &str) -> Option<usize> {
    for j in lo..hi.min(toks.len()) {
        if !toks[j].is_ident("let") {
            continue;
        }
        let mut k = next_code_idx(toks, j)?;
        if toks[k].is_ident("mut") {
            k = next_code_idx(toks, k)?;
        }
        if toks[k].is_ident(name) {
            return Some(j);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// env-read-confinement
// ---------------------------------------------------------------------------

fn env_read_confinement(
    ws: &Workspace,
    models: &BTreeMap<&str, &SourceModel>,
    policy: &Policy,
    out: &mut Vec<Finding>,
) {
    const RULE: &str = "env-read-confinement";
    for f in &ws.fns {
        if file_in(&f.file, &policy.env_allowed_files)
            || policy.env_allowed_fns.iter().any(|d| f.matches_designator(d))
        {
            continue;
        }
        for e in &f.events {
            let hit = match &e.kind {
                EventKind::Path { qual } => qual.last().is_some_and(|q| q == "env"),
                EventKind::MacroUse => e.name == "env" || e.name == "option_env",
                _ => false,
            };
            if !hit {
                continue;
            }
            let allowed = if policy.env_allowed_fns.is_empty() {
                "none declared".to_owned()
            } else {
                policy.env_allowed_fns.join(", ")
            };
            push_ws(
                models,
                out,
                RULE,
                &f.file,
                e.line,
                format!(
                    "`env::{}` read in fn `{}` — ambient environment access is \
                     confined to the designated pin functions ({allowed}); take \
                     the value as explicit configuration instead",
                    e.name,
                    f.qualified(),
                ),
            );
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
    let is_call = |e: &crate::symbols::Event| {
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
        let validators: Vec<&crate::symbols::Event> = f
            .events
            .iter()
            .filter(|e| is_call(e) && policy.taint_validators.contains(&e.name))
            .collect();
        let stmt_has_validator =
            |lo: usize, hi: usize| validators.iter().any(|v| lo <= v.tok && v.tok < hi);

        // Seed taints: `let v = … source(…) …;` with no validator in the
        // statement. Then propagate through later `let w = … v …;`.
        let mut taints: Vec<Taint> = Vec::new();
        for e in f.events.iter().filter(|e| is_call(e) && policy.taint_sources.contains(&e.name)) {
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

        for e in f.events.iter().filter(|e| is_call(e) && policy.taint_sinks.contains(&e.name)) {
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
        if crate::engine::is_test_path(&m.path) {
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
