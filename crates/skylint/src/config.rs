//! `skylint.toml` — a minimal, dependency-free TOML-subset parser.
//!
//! Supported syntax (all the policy file needs, nothing more):
//!
//! ```toml
//! # comment
//! [section.subsection]
//! names = ["a", "b"]        # single-line or
//! files = [
//!     "one",
//!     "two",
//! ]                         # multi-line arrays
//! ```
//!
//! Every value is a string array, addressed by `"section.subsection.key"`.
//! Unknown syntax is a hard error: a policy file that cannot be read
//! exactly must not silently weaken the policy.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed configuration: a flat map keyed `section.key`.
#[derive(Clone, Debug, Default)]
pub struct Config {
    values: BTreeMap<String, Vec<String>>,
}

/// Error raised on malformed configuration input.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "skylint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parses the TOML subset described in the module docs.
    pub fn parse(src: &str) -> Result<Config, ConfigError> {
        let mut values = BTreeMap::new();
        let mut section = String::new();
        let mut lines = src.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unterminated section header: {raw:?}"),
                    });
                };
                section = name.trim().to_owned();
                continue;
            }
            let Some((key, rhs)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("expected `key = value`: {raw:?}"),
                });
            };
            let key = key.trim();
            let mut rhs = rhs.trim().to_owned();
            // Multi-line array: keep consuming lines until the bracket closes.
            if rhs.starts_with('[') && !balanced(&rhs) {
                for (_, cont) in lines.by_ref() {
                    rhs.push(' ');
                    rhs.push_str(strip_comment(cont).trim());
                    if balanced(&rhs) {
                        break;
                    }
                }
            }
            let value =
                parse_value(&rhs).map_err(|message| ConfigError { line: lineno, message })?;
            let full = if section.is_empty() { key.to_owned() } else { format!("{section}.{key}") };
            values.insert(full, value);
        }
        Ok(Config { values })
    }

    /// The list at `key`; empty when absent.
    pub fn list(&self, key: &str) -> Vec<String> {
        self.values.get(key).cloned().unwrap_or_default()
    }

    /// All `section.key` names present, sorted (for strict validation).
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.values.keys()
    }
}

/// Strips a trailing `# comment` that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// Whether every `[` has been closed (quote-aware, good enough for the
/// string-array subset).
fn balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut prev_backslash = false;
    for c in s.chars() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    depth == 0 && !in_str
}

fn parse_value(rhs: &str) -> Result<Vec<String>, String> {
    let Some(inner) = rhs.strip_prefix('[').and_then(|r| r.strip_suffix(']')) else {
        return Err(format!("unsupported value syntax: {rhs:?}"));
    };
    let mut items = Vec::new();
    for piece in split_top_level(inner) {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        match parse_string(piece) {
            Some(s) => items.push(s),
            None => return Err(format!("array items must be quoted strings, got {piece:?}")),
        }
    }
    Ok(items)
}

fn parse_string(s: &str) -> Option<String> {
    let inner = s.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Splits on commas that are not inside quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut prev_backslash = false;
    for c in s.chars() {
        match c {
            '"' if !prev_backslash => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => out.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_keys_and_arrays() {
        let cfg = Config::parse(
            r#"
# top comment
top = ["level"]
[rules.determinism]
names = ["HashMap", "HashSet"] # trailing comment
files = [
    "a/b.rs",
    "c/d.rs",
]
"#,
        )
        .unwrap();
        assert_eq!(cfg.list("top"), vec!["level"]);
        assert_eq!(cfg.list("rules.determinism.names"), vec!["HashMap", "HashSet"]);
        assert_eq!(cfg.list("rules.determinism.files"), vec!["a/b.rs", "c/d.rs"]);
        assert!(cfg.list("rules.determinism.missing").is_empty());
        assert_eq!(cfg.keys().count(), 3);
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = Config::parse("k = [\"a # b\"]").unwrap();
        assert_eq!(cfg.list("k"), vec!["a # b"]);
    }

    #[test]
    fn malformed_input_is_an_error() {
        assert!(Config::parse("[unterminated").is_err());
        assert!(Config::parse("novalue").is_err());
        assert!(Config::parse("k = [1, 2]").is_err());
        assert!(Config::parse("k = true").is_err());
        assert!(Config::parse("k = \"bare\"").is_err());
        let err = Config::parse("\n\nk = @").unwrap_err();
        assert_eq!(err.line, 3);
    }
}
