//! The finding type and its terminal rendering.

use std::fmt::Write as _;

/// One policy violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id (`no-panic-paths`, `determinism`, …).
    pub rule: String,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// The trimmed offending source line.
    pub snippet: String,
}

/// Renders findings for terminals: `file:line [rule] message` + snippet.
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{}:{} [{}] {}", f.file, f.line, f.rule, f.message);
        if !f.snippet.is_empty() {
            let _ = writeln!(out, "    | {}", f.snippet);
        }
    }
    let _ = writeln!(
        out,
        "skylint: {} violation{} found",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_output_has_location_rule_and_snippet() {
        let f = Finding {
            rule: "determinism".into(),
            file: "crates/core/src/cache.rs".into(),
            line: 15,
            message: "HashMap has randomized iteration order".into(),
            snippet: "use std::collections::HashMap;".into(),
        };
        let s = render_human(&[f]);
        assert!(s.contains("crates/core/src/cache.rs:15 [determinism]"));
        assert!(s.contains("| use std::collections::HashMap;"));
        assert!(s.contains("1 violation found"));
    }
}
