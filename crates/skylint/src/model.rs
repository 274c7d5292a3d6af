//! Per-file source model built on top of the token stream.
//!
//! Rules need two structural facts the raw tokens don't carry:
//!
//! 1. **Test regions** — spans of `#[cfg(test)] mod … { … }` (any
//!    attribute order). Policies forbid panics/nondeterminism in *library*
//!    code; tests are exempt by design.
//! 2. **Allow annotations** — `// skylint: allow(rule-id[, rule-id…]) — why`
//!    comments suppress findings of those rules on the comment's own line
//!    and on the line immediately below, mirroring `#[allow]` placement.
//!    Only plain `//` comments participate; the syntax is validated and a
//!    malformed annotation is a hard configuration error, not a silent
//!    no-op. Every suppression is recorded so the `dead-allow` rule can
//!    report annotations that no longer suppress anything.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, TokKind, Token};

/// A lexed file plus the structural indexes rules consume.
pub struct SourceModel {
    /// Repo-relative path (slash-separated) of the file.
    pub path: String,
    /// Raw source lines, for snippets in findings.
    pub lines: Vec<String>,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// `allow` annotations: line → rule ids suppressed on that line and
    /// the next.
    pub allows: BTreeMap<u32, Vec<String>>,
    /// Malformed `skylint:` annotations: (line, problem description).
    pub malformed_allows: Vec<(u32, String)>,
    /// Inclusive line ranges covered by `#[cfg(test)]` modules.
    pub test_line_ranges: Vec<(u32, u32)>,
    /// `(annotation line, rule)` pairs that suppressed at least one
    /// finding this scan — the complement feeds `dead-allow`.
    pub hits: RefCell<BTreeSet<(u32, String)>>,
}

impl SourceModel {
    /// Lexes and indexes one file.
    pub fn build(path: String, src: &str) -> SourceModel {
        let tokens = lex(src);
        let lines = src.lines().map(str::to_owned).collect();
        let (allows, malformed_allows) = collect_allows(&tokens);
        let test_line_ranges = collect_test_regions(&tokens);
        SourceModel {
            path,
            lines,
            tokens,
            allows,
            malformed_allows,
            test_line_ranges,
            hits: RefCell::new(BTreeSet::new()),
        }
    }

    /// Whether `line` is inside a `#[cfg(test)]` module.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_line_ranges.iter().any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// Whether findings of `rule` are suppressed at `line`. A positive
    /// answer marks the annotation as live for `dead-allow`.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        let hit = |l: u32| {
            let covers = self.allows.get(&l).is_some_and(|rules| rules.iter().any(|r| r == rule));
            if covers {
                self.hits.borrow_mut().insert((l, rule.to_owned()));
            }
            covers
        };
        // Evaluate both placements so a redundant double annotation does
        // not leave one of them looking dead.
        let same = hit(line);
        let above = line > 1 && hit(line - 1);
        same || above
    }

    /// The trimmed source line for a finding snippet.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_owned())
            .unwrap_or_default()
    }

    /// Returns any comment token ending on `line` or `line - 1` whose text
    /// contains `needle` (used for `// lock-order:`).
    pub fn comment_near(&self, line: u32, needle: &str) -> Option<&str> {
        // Line comments sit on one line; that is the only shape the
        // annotations use, so a per-line scan of comment tokens suffices.
        // A same-line (trailing) comment wins over one on the line above:
        // the line above may end in the previous statement's own trailing
        // annotation, which must not bleed onto this site.
        let on = |l: u32| {
            self.tokens
                .iter()
                .filter(|t| t.is_comment() && t.line == l)
                .find(|t| t.text.contains(needle))
                .map(|t| t.text.as_str())
        };
        on(line).or_else(|| line.checked_sub(1).and_then(on))
    }
}

/// Extracts `skylint: allow(rule[, rule])` annotations from comments.
///
/// Only plain `//` line comments participate (`///` and `//!` doc text
/// mentioning the syntax is prose, not an annotation), and only when the
/// comment's content *starts with* `skylint:`. Anything after that prefix
/// that is not a well-formed `allow(<kebab-ids>)` — optionally followed
/// by a justification — is reported as malformed, which the engine turns
/// into a hard configuration error.
/// Allow map (line → suppressed rule ids) plus malformed annotations.
type AllowIndex = (BTreeMap<u32, Vec<String>>, Vec<(u32, String)>);

fn collect_allows(tokens: &[Token]) -> AllowIndex {
    let mut map: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    let mut malformed: Vec<(u32, String)> = Vec::new();
    for t in tokens.iter().filter(|t| t.kind == TokKind::LineComment) {
        let body = t.text.strip_prefix("//").unwrap_or(&t.text);
        if body.starts_with('/') || body.starts_with('!') {
            continue; // doc comment — prose, never an annotation
        }
        let Some(rest) = body.trim_start().strip_prefix("skylint:") else { continue };
        match parse_allow_body(rest.trim_start()) {
            Ok(rules) => map.entry(t.line).or_default().extend(rules),
            Err(msg) => malformed.push((t.line, msg)),
        }
    }
    (map, malformed)
}

/// Parses the part after `skylint:` — must be `allow(<ids>)` plus an
/// optional justification tail.
fn parse_allow_body(body: &str) -> Result<Vec<String>, String> {
    let Some(args) = body.strip_prefix("allow(") else {
        return Err(format!(
            "expected `allow(<rule-id>[, <rule-id>…])` after `skylint:`, found `{}`",
            body.trim()
        ));
    };
    let Some(close) = args.find(')') else {
        return Err("unclosed `allow(` — missing `)`".to_owned());
    };
    let list = &args[..close];
    if list.trim().is_empty() {
        return Err("empty rule list in `allow()`".to_owned());
    }
    let mut rules = Vec::new();
    for raw in list.split(',') {
        let rule = raw.trim();
        let kebab = !rule.is_empty()
            && rule.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
            && !rule.starts_with('-')
            && !rule.ends_with('-');
        if !kebab {
            return Err(format!("`{rule}` is not a kebab-case rule id"));
        }
        rules.push(rule.to_owned());
    }
    Ok(rules)
}

/// Finds `#[cfg(test)] … mod name { … }` line spans.
fn collect_test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let toks: Vec<(usize, &Token)> =
        tokens.iter().enumerate().filter(|(_, t)| !t.is_comment()).collect();
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_attr(&toks, i) {
            // Skip this and any further attributes, then expect `mod`/`fn`.
            let mut j = i;
            while j < toks.len() && toks[j].1.is_op("#") {
                j = skip_attr(&toks, j);
            }
            // Tolerate visibility / keywords before the item keyword.
            let mut k = j;
            while k < toks.len() {
                let t = toks[k].1;
                let skippable = t.is_ident("pub")
                    || t.is_ident("crate")
                    || t.is_ident("in")
                    || t.is_ident("super")
                    || t.is_op("(")
                    || t.is_op(")");
                if !skippable {
                    break;
                }
                k += 1;
            }
            if k < toks.len() && (toks[k].1.is_ident("mod") || toks[k].1.is_ident("fn")) {
                // Find the opening brace, then its match.
                let mut b = k;
                while b < toks.len() && !toks[b].1.is_op("{") {
                    if toks[b].1.is_op(";") {
                        break; // `mod name;` — no inline body
                    }
                    b += 1;
                }
                if b < toks.len() && toks[b].1.is_op("{") {
                    let end = matching_brace(&toks, b);
                    let start_line = toks[i].1.line;
                    let end_line = toks[end.min(toks.len() - 1)].1.line;
                    regions.push((start_line, end_line));
                    i = end;
                    continue;
                }
            }
        }
        i += 1;
    }
    regions
}

/// Whether non-comment token index `i` starts `#[cfg(test)]` or
/// `#[cfg(all(test, …))]`-style attributes mentioning `test`.
fn is_cfg_test_attr(toks: &[(usize, &Token)], i: usize) -> bool {
    if !toks[i].1.is_op("#") {
        return false;
    }
    let Some(open) = toks.get(i + 1) else { return false };
    if !open.1.is_op("[") {
        return false;
    }
    if !toks.get(i + 2).is_some_and(|t| t.1.is_ident("cfg")) {
        return false;
    }
    // Scan inside the attribute for the bare ident `test`, rejecting
    // negations so `#[cfg(not(test))]` items stay under the full policy.
    let end = skip_attr(toks, i);
    let attr = &toks[i..end];
    attr.iter().any(|(_, t)| t.is_ident("test")) && !attr.iter().any(|(_, t)| t.is_ident("not"))
}

/// Returns the index one past an attribute starting at `#`.
fn skip_attr(toks: &[(usize, &Token)], i: usize) -> usize {
    let mut j = i + 1; // at `[`
    if j >= toks.len() || !toks[j].1.is_op("[") {
        return i + 1;
    }
    let mut depth = 0i32;
    while j < toks.len() {
        if toks[j].1.is_op("[") {
            depth += 1;
        } else if toks[j].1.is_op("]") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

/// Index of the token after the brace matching the `{` at `open`.
fn matching_brace(toks: &[(usize, &Token)], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].1.is_op("{") {
            depth += 1;
        } else if toks[j].1.is_op("}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_region_detection() {
        let src = r#"
fn library_code() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() { helper().unwrap(); }
}
"#;
        let m = SourceModel::build("x.rs".into(), src);
        assert!(!m.in_test_region(2));
        assert!(m.in_test_region(5));
        assert!(m.in_test_region(7));
    }

    #[test]
    fn cfg_test_with_extra_attrs_and_all() {
        let src = "#[cfg(all(test, feature = \"x\"))]\n#[allow(dead_code)]\nmod t {\n let x = 1;\n}\nfn after() {}\n";
        let m = SourceModel::build("x.rs".into(), src);
        assert!(m.in_test_region(4));
        assert!(!m.in_test_region(6));
    }

    #[test]
    fn allow_annotations_cover_same_and_next_line() {
        let src = "// skylint: allow(no-panic-paths) — justified\nfoo().unwrap();\nbar().unwrap(); // skylint: allow(determinism, no-panic-paths)\nbaz().unwrap();\n";
        let m = SourceModel::build("x.rs".into(), src);
        assert!(m.is_allowed("no-panic-paths", 2));
        assert!(m.is_allowed("no-panic-paths", 3));
        assert!(m.is_allowed("determinism", 3));
        // A same-line annotation also covers the following line.
        assert!(m.is_allowed("no-panic-paths", 4));
        assert!(!m.is_allowed("determinism", 2));
        assert!(!m.is_allowed("determinism", 5));
    }

    #[test]
    fn doc_comments_are_not_annotations() {
        let src = "//! escapes use `// skylint: allow(<rule>) — why`\n/// skylint: allow(determinism)\nfn f() {}\n";
        let m = SourceModel::build("x.rs".into(), src);
        assert!(m.allows.is_empty());
        assert!(m.malformed_allows.is_empty());
    }

    #[test]
    fn malformed_annotations_are_reported() {
        let src = "// skylint: allow no-panic-paths\nx();\n// skylint: allow()\ny();\n// skylint: allow(Bad_Case)\nz();\n// skylint: allow(open\n";
        let m = SourceModel::build("x.rs".into(), src);
        let lines: Vec<u32> = m.malformed_allows.iter().map(|(l, _)| *l).collect();
        assert_eq!(lines, vec![1, 3, 5, 7]);
        assert!(m.malformed_allows[0].1.contains("expected `allow("));
        assert!(m.malformed_allows[1].1.contains("empty rule list"));
        assert!(m.malformed_allows[2].1.contains("kebab-case"));
        assert!(m.malformed_allows[3].1.contains("missing `)`"));
        assert!(m.allows.is_empty());
    }

    #[test]
    fn suppressions_record_hits_for_dead_allow() {
        let src = "// skylint: allow(no-panic-paths) — ok\nfoo().unwrap();\n// skylint: allow(determinism) — stale\nbar();\n";
        let m = SourceModel::build("x.rs".into(), src);
        assert!(m.is_allowed("no-panic-paths", 2));
        assert!(!m.is_allowed("determinism", 1));
        let hits = m.hits.borrow();
        assert!(hits.contains(&(1, "no-panic-paths".to_owned())));
        assert!(!hits.iter().any(|(l, _)| *l == 3));
    }
}
