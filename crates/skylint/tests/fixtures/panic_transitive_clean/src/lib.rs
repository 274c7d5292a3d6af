//! Transitive-panic clean fixture: the same `api → mid → deep` chain as
//! the bad tree, but the deep helper handles the empty slice instead of
//! indexing into it. Nothing propagates; `skylint check` must exit 0.

/// Public entry point; total for every input.
pub fn api(xs: &[u32]) -> u32 {
    mid(xs)
}

fn mid(xs: &[u32]) -> u32 {
    deep(xs)
}

fn deep(xs: &[u32]) -> u32 {
    xs.first().copied().unwrap_or(0)
}
