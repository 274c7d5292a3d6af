//! Environment-read bad fixture: library functions reading the process
//! environment, in both path and macro form. `skylint check` must exit 1
//! with a `determinism` finding for each.

/// BAD: an `env::var` read inside a library function.
pub fn scattered() -> String {
    std::env::var("FIXTURE_MODE").unwrap_or_default()
}

/// BAD: the macro form reads ambient state too.
pub fn compiled_in() -> Option<&'static str> {
    option_env!("FIXTURE_MODE")
}
