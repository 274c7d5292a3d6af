//! Environment-read clean fixture: the library takes its mode as explicit
//! configuration; the one ambient read is pinned to the tool in
//! `tools/main.rs`, outside `crates.library`. `skylint check` must exit 0.

/// Resolves the effective mode from explicit configuration.
pub fn effective(explicit: Option<String>) -> String {
    explicit.unwrap_or_default()
}
