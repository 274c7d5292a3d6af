//! Per-file symbol extraction: function definitions and the semantic
//! events inside their bodies.
//!
//! The parser gives structure (which tokens belong to which function); this
//! module turns each function body into a flat list of [`Event`]s — method
//! calls with receiver chains, path calls, macro uses, indexing, and lock
//! acquisitions with **guard liveness extents**.
//!
//! Guard liveness follows Rust's temporary-drop semantics, which is what
//! makes the lock-order analysis precise enough to run on real code:
//!
//! * a let-bound, un-chained acquisition (`let g = self.inner.read();`)
//!   holds its guard to the end of the enclosing block;
//! * a chained or un-bound acquisition (`self.inner.read().len()`,
//!   `self.clock.write().touch(id);`) is a temporary dropped at the end of
//!   its statement.

use crate::ast::{Block, BlockChild, File, Item, ItemKind};
use crate::cfg::Cfg;
use crate::lexer::{TokKind, Token};
use crate::model::SourceModel;

/// Which way a lock acquisition locks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    /// `.read()` — shared.
    Read,
    /// `.write()` / `.lock()` — exclusive.
    Write,
}

impl LockKind {
    /// Display name matching the `// lock-order:` annotation vocabulary.
    pub fn as_str(self) -> &'static str {
        match self {
            LockKind::Read => "read",
            LockKind::Write => "write",
        }
    }
}

/// Discriminant plus payload of one body event.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// `recv.name(…)`; `recv` is the dotted identifier chain (possibly
    /// empty for complex receivers like `foo().bar()`).
    Method {
        /// Receiver identifier chain, outermost first (`self`, `cache`, …).
        recv: Vec<String>,
        /// The call has zero arguments.
        args_empty: bool,
    },
    /// `qual::name(…)`; `qual` holds the path segments before the name.
    Path {
        /// Path qualifier segments (`Vec` for `Vec::new`).
        qual: Vec<String>,
    },
    /// `name(…)` with no receiver or path.
    Bare,
    /// `name!(…)` / `name![…]` / `name! {…}`.
    MacroUse,
    /// `expr[…]` indexing in expression position.
    Index,
    /// A zero-argument `.read()`/`.write()`/`.lock()` on a named lock.
    Acquire {
        /// Lock identity: the last receiver segment (`inner`, `clock`).
        lock: String,
        /// Shared or exclusive.
        kind: LockKind,
        /// Token index the guard is live through (inclusive).
        held_until: usize,
        /// The `// lock-order:` phase annotation near the site, if any.
        phase: Option<String>,
    },
}

/// One semantic event inside a function body.
#[derive(Clone, Debug)]
pub struct Event {
    /// Event payload.
    pub kind: EventKind,
    /// Name involved (method/function/macro name; `[`/op text otherwise).
    pub name: String,
    /// Token index of the event's anchor token.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
}

/// One function definition with its extracted body events.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Repo-relative path of the defining file.
    pub file: String,
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name; empty for free functions.
    pub owner: String,
    /// Enclosing inline-module chain.
    pub module: Vec<String>,
    /// Unrestricted `pub`.
    pub is_pub: bool,
    /// Defined inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// 1-based line of the definition.
    pub line: u32,
    /// Body events in source order (empty for bodiless signatures).
    pub events: Vec<Event>,
    /// Body token span `(lo, hi)`, half-open over the whole `{…}` block.
    pub body_span: Option<(usize, usize)>,
    /// Control-flow graph of the body (trivial entry→exit when bodiless).
    pub cfg: Cfg,
}

impl FnDef {
    /// `Owner::name` when owned, plain name otherwise — for messages.
    pub fn qualified(&self) -> String {
        if self.owner.is_empty() {
            self.name.clone()
        } else {
            format!("{}::{}", self.owner, self.name)
        }
    }

    /// Whether this definition matches a kernel designator: either a bare
    /// function name or an `Owner::name` pair.
    pub fn matches_designator(&self, d: &str) -> bool {
        match d.split_once("::") {
            Some((owner, name)) => self.owner == owner && self.name == name,
            None => self.name == d,
        }
    }
}

/// Extracts every function definition (with events) from a parsed file.
pub fn extract_fns(model: &SourceModel, file: &File) -> Vec<FnDef> {
    let mut out = Vec::new();
    file.walk_items(&mut |item: &Item, mods: &[String], owner: &str| {
        let ItemKind::Fn(f) = &item.kind else { return };
        let (events, body_span, cfg) = match &f.body {
            Some(body) => (
                extract_events(model, body),
                Some((body.span.lo, body.span.hi)),
                Cfg::build(&model.tokens, body),
            ),
            None => (Vec::new(), None, Cfg::empty()),
        };
        out.push(FnDef {
            file: model.path.clone(),
            name: f.name.clone(),
            owner: owner.to_owned(),
            module: mods.to_vec(),
            is_pub: item.is_pub,
            in_test: model.in_test_region(item.line),
            line: item.line,
            events,
            body_span,
            cfg,
        });
    });
    out
}

/// Keywords that can precede `(` or `[` without being a call/index.
fn is_expr_keyword(s: &str) -> bool {
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
            | "await"
            | "self"
            | "Self"
            | "super"
            | "crate"
    )
}

fn extract_events(model: &SourceModel, body: &Block) -> Vec<Event> {
    let mut events = Vec::new();
    scan_block(model, body, &mut events);
    events
}

/// Scans one block: loose token ranges directly, child blocks recursively,
/// child items (nested `fn`s) not at all — their events belong to them.
fn scan_block(model: &SourceModel, block: &Block, out: &mut Vec<Event>) {
    let close = block.span.hi.saturating_sub(1);
    let mut i = block.span.lo + 1;
    for child in &block.children {
        let (lo, hi) = match child {
            BlockChild::Block(b) => (b.span.lo, b.span.hi),
            BlockChild::Item(it) => (it.span.lo, it.span.hi),
        };
        scan_range(model, i, lo, close, out);
        if let BlockChild::Block(b) = child {
            scan_block(model, b, out);
        }
        i = hi;
    }
    scan_range(model, i, close, close, out);
}

/// Extracts events from the loose tokens `[lo, hi)` of a block whose
/// closing brace sits at token index `block_close`.
fn scan_range(model: &SourceModel, lo: usize, hi: usize, block_close: usize, out: &mut Vec<Event>) {
    let toks = &model.tokens;
    for i in lo..hi.min(toks.len()) {
        let t = &toks[i];
        if t.is_comment() {
            continue;
        }
        if t.kind == TokKind::Ident {
            ident_event(model, i, block_close, out);
            continue;
        }
        // Indexing in expression position.
        if t.is_op("[")
            && prev_code_idx(toks, i).is_some_and(|p| {
                let pt = &toks[p];
                (pt.kind == TokKind::Ident && !is_expr_keyword(&pt.text))
                    || pt.is_op(")")
                    || pt.is_op("]")
            })
        {
            out.push(Event { kind: EventKind::Index, name: "[".into(), tok: i, line: t.line });
        }
    }
}

/// Classifies an identifier token: macro use, method/path/bare call, or
/// nothing. Pushes at most two events (a call plus an acquisition).
fn ident_event(model: &SourceModel, i: usize, block_close: usize, out: &mut Vec<Event>) {
    let toks = &model.tokens;
    let t = &toks[i];
    let Some(n1) = next_code_idx(toks, i) else { return };
    if toks[n1].is_op("!") {
        // `name!` — only a macro use when a delimiter follows (`x != y`
        // lexes `!=` as one token, so bare `!` here is already macro-ish,
        // but `!` as unary not-prefix never *follows* an ident).
        let delim = next_code_idx(toks, n1)
            .is_some_and(|d| toks[d].is_op("(") || toks[d].is_op("[") || toks[d].is_op("{"));
        if delim {
            out.push(Event {
                kind: EventKind::MacroUse,
                name: t.text.clone(),
                tok: i,
                line: t.line,
            });
        }
        return;
    }
    // Call opening paren: direct or through a turbofish.
    let open = if toks[n1].is_op("(") {
        Some(n1)
    } else if toks[n1].is_op("::") {
        match next_code_idx(toks, n1) {
            Some(n2) if toks[n2].is_op("<") => {
                let after = skip_angles(toks, n2);
                after.filter(|&a| toks[a].is_op("("))
            }
            _ => None,
        }
    } else {
        None
    };
    let Some(open) = open else { return };
    if is_expr_keyword(&t.text) {
        return;
    }
    let prev = prev_code_idx(toks, i);
    match prev.map(|p| &toks[p]) {
        Some(p) if p.is_op(".") => {
            let recv = receiver_chain(toks, i);
            let args_empty = next_code_idx(toks, open).is_some_and(|a| toks[a].is_op(")"));
            if args_empty && matches!(t.text.as_str(), "read" | "write" | "lock") {
                // Lock identity is the full receiver field path with the
                // leading `self` stripped: `self.cache.inner` and
                // `self.inner` are distinct graph nodes even when the
                // field names collide across types (no type inference).
                let path: Vec<&str> = recv
                    .iter()
                    .enumerate()
                    .filter(|&(j, s)| !(j == 0 && s == "self"))
                    .map(|(_, s)| s.as_str())
                    .collect();
                if !path.is_empty() {
                    let lock = path.join(".");
                    let kind = if t.text == "read" { LockKind::Read } else { LockKind::Write };
                    let held_until = guard_extent(toks, i, open, block_close);
                    let phase = lock_phase_annotation(model, t.line);
                    out.push(Event {
                        kind: EventKind::Acquire { lock, kind, held_until, phase },
                        name: t.text.clone(),
                        tok: i,
                        line: t.line,
                    });
                }
            }
            out.push(Event {
                kind: EventKind::Method { recv, args_empty },
                name: t.text.clone(),
                tok: i,
                line: t.line,
            });
        }
        Some(p) if p.is_op("::") => {
            let qual = path_qualifier(toks, i);
            out.push(Event {
                kind: EventKind::Path { qual },
                name: t.text.clone(),
                tok: i,
                line: t.line,
            });
        }
        _ => {
            // Uppercase initials are tuple-struct/enum constructors
            // (`Some(…)`, `PointBlock(…)`) — types, not calls.
            if !t.text.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                out.push(Event {
                    kind: EventKind::Bare,
                    name: t.text.clone(),
                    tok: i,
                    line: t.line,
                });
            }
        }
    }
}

/// Walks the dotted receiver chain left of a method name, outermost first
/// (`self.cache.inner.read()` → `[self, cache, inner]`). Complex receivers
/// (`foo().read()`) yield an empty chain.
fn receiver_chain(toks: &[Token], method: usize) -> Vec<String> {
    let mut recv = Vec::new();
    let Some(mut dot) = prev_code_idx(toks, method) else { return recv };
    while let Some(p) = prev_code_idx(toks, dot) {
        let pt = &toks[p];
        if pt.kind == TokKind::Ident {
            recv.push(pt.text.clone());
            match prev_code_idx(toks, p) {
                Some(q) if toks[q].is_op(".") => dot = q,
                _ => break,
            }
        } else {
            if pt.is_op(")") || pt.is_op("]") || pt.is_op("?") {
                recv.clear();
            }
            break;
        }
    }
    recv.reverse();
    recv
}

/// Collects the `::`-separated qualifier segments left of a path call
/// (`a::b::name(…)` → `[a, b]`, innermost last).
fn path_qualifier(toks: &[Token], name: usize) -> Vec<String> {
    let mut qual = Vec::new();
    let Some(mut sep) = prev_code_idx(toks, name) else { return qual };
    while let Some(p) = prev_code_idx(toks, sep) {
        let pt = &toks[p];
        if pt.kind == TokKind::Ident {
            qual.push(pt.text.clone());
            match prev_code_idx(toks, p) {
                Some(q) if toks[q].is_op("::") => sep = q,
                _ => break,
            }
        } else {
            break; // turbofish or `<T as Trait>::` qualifier — leave partial
        }
    }
    qual.reverse();
    qual
}

/// How long the guard returned by the acquisition at `method` lives, as a
/// token index (inclusive). See the module docs for the heuristic.
fn guard_extent(toks: &[Token], method: usize, open: usize, block_close: usize) -> usize {
    let close = match_paren(toks, open, block_close);
    let chained = next_code_idx(toks, close).is_some_and(|n| toks[n].is_op("."));
    if !chained && statement_is_let(toks, method) {
        return block_close;
    }
    statement_end(toks, close, block_close)
}

/// Whether the statement containing `at` starts with `let` (naive backward
/// scan to the nearest `;` / `{` / `}`; acquisition prefixes never contain
/// those tokens in this codebase's idiom).
fn statement_is_let(toks: &[Token], at: usize) -> bool {
    let mut i = at;
    while i > 0 {
        i -= 1;
        let t = &toks[i];
        if t.is_comment() {
            continue;
        }
        if t.is_op(";") || t.is_op("{") || t.is_op("}") {
            return next_code_idx(toks, i).is_some_and(|n| toks[n].is_ident("let"));
        }
    }
    false
}

/// Token index where the statement containing `from` ends: the `;` at
/// relative depth zero, or wherever a delimiter closes past the starting
/// depth (expression argument inside a macro/call), capped at the block's
/// closing brace.
pub(crate) fn statement_end(toks: &[Token], from: usize, block_close: usize) -> usize {
    let (mut paren, mut bracket, mut brace) = (0i32, 0i32, 0i32);
    let mut i = from + 1;
    while i <= block_close && i < toks.len() {
        let t = &toks[i];
        if !t.is_comment() {
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" => brace += 1,
                "}" => brace -= 1,
                ";" if paren == 0 && bracket == 0 && brace == 0 => return i,
                _ => {}
            }
            if paren < 0 || bracket < 0 || brace < 0 {
                return i;
            }
        }
        i += 1;
    }
    block_close
}

/// Reads the `// lock-order: <phase>` annotation on or above `line`.
fn lock_phase_annotation(model: &SourceModel, line: u32) -> Option<String> {
    let comment = model.comment_near(line, "lock-order:")?;
    comment.split("lock-order:").nth(1).and_then(|s| s.split_whitespace().next()).map(str::to_owned)
}

/// Index of the `)` matching the `(` at `open`, capped at `limit`.
pub(crate) fn match_paren(toks: &[Token], open: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i <= limit && i < toks.len() {
        if toks[i].is_op("(") {
            depth += 1;
        } else if toks[i].is_op(")") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    limit.min(toks.len().saturating_sub(1))
}

/// Skips `<…>` starting at `open`, returning the index after the match.
fn skip_angles(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Op {
            match t.text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                _ => {}
            }
            if depth <= 0 && (t.text == ">" || t.text == ">>") {
                return Some(i + 1);
            }
        }
        i += 1;
    }
    None
}

/// Previous non-comment token index.
pub(crate) fn prev_code_idx(toks: &[Token], i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| !toks[j].is_comment())
}

/// Next non-comment token index.
pub(crate) fn next_code_idx(toks: &[Token], i: usize) -> Option<usize> {
    (i + 1..toks.len()).find(|&j| !toks[j].is_comment())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn fns(src: &str) -> Vec<FnDef> {
        let model = SourceModel::build("lib/src/x.rs".into(), src);
        let file = parse(&model.tokens);
        extract_fns(&model, &file)
    }

    fn events_of<'a>(defs: &'a [FnDef], name: &str) -> &'a [Event] {
        &defs.iter().find(|d| d.name == name).unwrap_or_else(|| panic!("no fn {name}")).events
    }

    #[test]
    fn method_path_bare_and_macro_events() {
        let defs = fns("fn work(xs: &[u32]) -> Vec<u32> {\n\
                 let mut out = Vec::new();\n\
                 out.push(helper(xs.len()));\n\
                 let v: Vec<u32> = xs.iter().copied().collect::<Vec<u32>>();\n\
                 assert_eq!(v.len(), out.len());\n\
                 out\n\
             }\n\
             fn helper(n: usize) -> u32 { n as u32 }\n");
        let ev = events_of(&defs, "work");
        let names: Vec<(&str, &str)> = ev
            .iter()
            .map(|e| {
                let kind = match &e.kind {
                    EventKind::Method { .. } => "method",
                    EventKind::Path { .. } => "path",
                    EventKind::Bare => "bare",
                    EventKind::MacroUse => "macro",
                    _ => "other",
                };
                (kind, e.name.as_str())
            })
            .collect();
        assert!(names.contains(&("path", "new")), "{names:?}");
        assert!(names.contains(&("method", "push")), "{names:?}");
        assert!(names.contains(&("bare", "helper")), "{names:?}");
        assert!(names.contains(&("method", "collect")), "{names:?}"); // turbofish
        assert!(names.contains(&("macro", "assert_eq")), "{names:?}");
    }

    #[test]
    fn nested_fn_events_stay_with_the_nested_fn() {
        let defs = fns("fn outer() {\n\
                 fn inner(xs: &[u32]) -> u32 { xs[0] }\n\
                 inner(&[1]);\n\
             }\n");
        assert!(events_of(&defs, "outer").iter().all(|e| !matches!(e.kind, EventKind::Index)));
        assert!(events_of(&defs, "inner").iter().any(|e| matches!(e.kind, EventKind::Index)));
    }

    #[test]
    fn owners_modules_and_visibility() {
        let defs = fns("pub mod m {\n\
                 pub struct S;\n\
                 impl S {\n\
                     pub fn open(&self) {}\n\
                     fn hidden(&self) {}\n\
                 }\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() {}\n\
             }\n");
        let open = defs.iter().find(|d| d.name == "open").unwrap();
        assert_eq!(open.owner, "S");
        assert_eq!(open.module, vec!["m"]);
        assert!(open.is_pub);
        assert!(!open.in_test);
        assert!(!defs.iter().find(|d| d.name == "hidden").unwrap().is_pub);
        assert!(defs.iter().find(|d| d.name == "t").unwrap().in_test);
    }

    fn acquires(defs: &[FnDef], name: &str) -> Vec<(String, LockKind, usize)> {
        events_of(defs, name)
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Acquire { lock, kind, held_until, .. } => {
                    Some((lock.clone(), *kind, *held_until))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn let_bound_guard_lives_to_block_end_chained_guard_is_a_temporary() {
        let defs = fns("impl Shared {\n\
                 fn held(&self) -> usize {\n\
                     let g = self.cache.inner.read(); // lock-order: read\n\
                     g.len()\n\
                 }\n\
                 fn temp(&self) -> usize {\n\
                     let n = self.inner.read().len(); // lock-order: read\n\
                     n + self.other.len()\n\
                 }\n\
             }\n");
        let held = acquires(&defs, "held");
        assert_eq!(held.len(), 1);
        // Lock identity is the receiver path minus `self`, so the nested
        // field is a distinct node from a bare `self.inner`.
        assert_eq!(held[0].0, "cache.inner");
        assert_eq!(held[0].1, LockKind::Read);
        let temp = acquires(&defs, "temp");
        assert_eq!(temp.len(), 1);
        // The chained guard must die at its own statement: its extent must
        // be strictly smaller than the let-bound one relative to each body.
        let held_event =
            events_of(&defs, "held").iter().find(|e| matches!(e.kind, EventKind::Acquire { .. }));
        let temp_event =
            events_of(&defs, "temp").iter().find(|e| matches!(e.kind, EventKind::Acquire { .. }));
        let (Some(h), Some(t)) = (held_event, temp_event) else { panic!("missing acquisitions") };
        let EventKind::Acquire { held_until: h_end, .. } = h.kind else { unreachable!() };
        let EventKind::Acquire { held_until: t_end, .. } = t.kind else { unreachable!() };
        // Let-bound: extends well past the call; temporary: ends at the `;`
        // a few tokens after the chained `.len()`.
        assert!(h_end > h.tok + 8, "let-bound guard too short: {h_end} vs {}", h.tok);
        assert!(t_end < t.tok + 10, "temporary guard too long: {t_end} vs {}", t.tok);
    }

    #[test]
    fn write_and_lock_are_exclusive_and_phases_are_read() {
        let defs = fns("impl S {\n\
                 fn publish(&self) {\n\
                     self.clock.write().touch(1); // lock-order: write\n\
                     let g = self.m.lock(); // lock-order: write\n\
                     g.push(1);\n\
                 }\n\
             }\n");
        let acq = acquires(&defs, "publish");
        assert_eq!(acq.len(), 2);
        assert!(acq.iter().all(|(_, k, _)| *k == LockKind::Write));
        let phases: Vec<Option<String>> = events_of(&defs, "publish")
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Acquire { phase, .. } => Some(phase.clone()),
                _ => None,
            })
            .collect();
        assert!(phases.iter().all(|p| p.as_deref() == Some("write")), "{phases:?}");
    }

    #[test]
    fn io_read_write_with_args_are_not_acquisitions() {
        let defs = fns("fn io(f: &mut File, buf: &mut [u8]) {\n\
                 f.read(buf);\n\
                 f.write(buf);\n\
             }\n");
        assert!(acquires(&defs, "io").is_empty());
    }
}
