//! Explicit float comparison.
//!
//! `clippy::float_cmp` (see DESIGN.md §9) rejects raw `==`/`!=` on `f64`
//! values in every library crate, so a comparison that must be exact says
//! so by name: [`exact_eq`]. The MPR construction only ever *copies*
//! interval endpoints (never recomputes them), so equal endpoints are
//! bit-equal, and a tolerance would merge regions that must stay disjoint:
//! `0.1 + 0.2 ≠ 0.3` must stay unequal or Algorithm 1's disjointness
//! guarantee breaks.

/// Exact IEEE-754 equality, spelled out so the intent is visible.
///
/// Use for interval/constraint endpoints: region subtraction copies
/// bounds verbatim, and the disjointness of the emitted range queries
/// relies on copied bounds comparing equal *exactly*.
#[inline]
pub fn exact_eq(a: f64, b: f64) -> bool {
    // The one audited raw comparison. `clippy::float_cmp` exempts a
    // function whose name ends in `_eq`, so it needs no escape.
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_is_ieee() {
        assert!(exact_eq(0.5, 0.5));
        assert!(!exact_eq(0.1 + 0.2, 0.3)); // the motivating example
        assert!(exact_eq(f64::INFINITY, f64::INFINITY));
        assert!(!exact_eq(f64::NAN, f64::NAN));
        assert!(exact_eq(0.0, -0.0));
    }
}
