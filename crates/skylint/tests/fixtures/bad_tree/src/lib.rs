// A crate root that violates several policies at once: no `//!` docs,
// no lint headers, and a hidden panic path.

pub fn boom(xs: &[u64]) -> u64 {
    *xs.first().unwrap()
}
