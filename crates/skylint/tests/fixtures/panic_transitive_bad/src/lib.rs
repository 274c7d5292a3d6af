//! Transitive-panic bad fixture: the panic site is two private frames
//! below the public API, so only whole-program propagation can see it.
//! `skylint check` must exit 1 with `no-panic-paths` findings: the site in
//! [`deep`], and the witness chain on [`api`] — not on the private helper
//! in between.

/// Public entry point; can panic two calls down in [`deep`].
pub fn api(xs: &[u32]) -> u32 {
    mid(xs)
}

fn mid(xs: &[u32]) -> u32 {
    deep(xs)
}

fn deep(xs: &[u32]) -> u32 {
    xs[0]
}
