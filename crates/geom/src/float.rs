//! Explicit float-comparison helpers.
//!
//! `clippy::float_cmp` (see DESIGN.md §9) rejects raw `==`/`!=` on `f64`
//! values in every library crate: a bare comparison does not say whether
//! the author wanted *tolerance* semantics (measured quantities that may
//! carry rounding error) or *exact bit-level* semantics (interval
//! endpoints copied around by the region algebra, where `0.1 + 0.2 ≠ 0.3`
//! must stay unequal or Algorithm 1's disjointness guarantee breaks).
//! Routing every comparison through one of these helpers makes the choice
//! auditable.
//!
//! * [`exact_eq`] — IEEE-754 equality. The right choice for
//!   endpoint bookkeeping: the MPR construction only ever *copies* bounds
//!   (never recomputes them), so equal endpoints are bit-equal and a
//!   tolerance would merge regions that must stay disjoint.
//! * [`approx_eq`] — absolute-epsilon equality for derived
//!   quantities (areas, distances) where rounding noise is expected.

/// Default absolute tolerance for [`approx_eq`].
///
/// The benchmarks' coordinates live in `[0, 1]`; 1e-12 is ~4 decimal
/// orders above `f64` ulp at that scale and far below any data spacing.
pub const EPS: f64 = 1e-12;

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

/// Absolute-epsilon equality with the default tolerance [`EPS`].
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    approx_eq_eps(a, b, EPS)
}

/// Absolute-epsilon equality with a caller-chosen tolerance.
///
/// Infinities compare equal to themselves (their difference is NaN, which
/// fails the `<=` test, so they are special-cased); NaN is equal to
/// nothing, matching IEEE semantics.
#[inline]
pub fn approx_eq_eps(a: f64, b: f64, eps: f64) -> bool {
    if exact_eq(a, b) {
        return true; // covers equal infinities and all bit-equal values
    }
    (a - b).abs() <= eps
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

    #[test]
    fn approx_absorbs_rounding_noise() {
        assert!(approx_eq(0.1 + 0.2, 0.3));
        assert!(!approx_eq(0.3, 0.3 + 1e-9));
        assert!(approx_eq_eps(0.3, 0.3 + 1e-9, 1e-6));
    }

    #[test]
    fn approx_handles_non_finite() {
        assert!(approx_eq(f64::INFINITY, f64::INFINITY));
        assert!(!approx_eq(f64::INFINITY, f64::NEG_INFINITY));
        assert!(!approx_eq(f64::NAN, f64::NAN));
        assert!(!approx_eq(f64::INFINITY, 1.0));
    }
}
