//! Skyline stability (paper Section 4.1) and overlap classification.
//!
//! A cached result `Sky(S, C)` is *stable* relative to new constraints
//! `C′` when every point of `S_C` known to be dominated stays dominated:
//! no point can sneak into `Sky(S, C′)` from inside the old region other
//! than the cached skyline points themselves (Definition 4). Theorem 1
//! gives the syntactic characterization: stability is guaranteed iff the
//! new lower constraints do not cut above the old ones in any dimension
//! (`∀i: C̲′[i] ≤ C̲[i]`), or the regions are disjoint. Only raising a
//! lower bound can remove a cached skyline point *and* keep alive points
//! it used to dominate.

use skycache_geom::float::exact_eq;
use skycache_geom::Constraints;

/// How new constraints `C′` relate to cached constraints `C`.
///
/// The four single-bound cases mirror Figure 3 of the paper (and the
/// `Case 1..4` numbering used in its Figures 10–11):
/// [`Overlap::CaseA`] = case 1 (decrease a lower constraint),
/// [`Overlap::CaseB`] = case 2 (decrease an upper constraint),
/// [`Overlap::CaseC`] = case 3 (increase an upper constraint),
/// [`Overlap::CaseD`] = case 4 (increase a lower constraint).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Overlap {
    /// The constraint regions share no point: the cache item is useless.
    Disjoint,
    /// Identical constraints: the cached result answers the query as-is.
    Exact,
    /// One lower bound decreased (stable; Theorem 2).
    CaseA {
        /// The changed dimension.
        dim: usize,
    },
    /// One upper bound decreased (stable; Theorem 3 — no fetch needed).
    CaseB {
        /// The changed dimension.
        dim: usize,
    },
    /// One upper bound increased (stable; Theorem 4).
    CaseC {
        /// The changed dimension.
        dim: usize,
    },
    /// One lower bound increased (unstable; Theorem 5).
    CaseD {
        /// The changed dimension.
        dim: usize,
    },
    /// Arbitrary overlapping change, stable per Theorem 1.
    GeneralStable,
    /// Arbitrary overlapping change, potentially unstable per Theorem 1.
    GeneralUnstable,
}

impl Overlap {
    /// Whether the cached skyline is guaranteed stable relative to the new
    /// constraints (Theorem 1).
    pub fn is_stable(self) -> bool {
        !matches!(self, Overlap::CaseD { .. } | Overlap::GeneralUnstable)
    }

    /// Short label used in benchmark output (paper case numbering).
    pub fn label(self) -> &'static str {
        match self {
            Overlap::Disjoint => "disjoint",
            Overlap::Exact => "exact",
            Overlap::CaseA { .. } => "case1",
            Overlap::CaseB { .. } => "case2",
            Overlap::CaseC { .. } => "case3",
            Overlap::CaseD { .. } => "case4",
            Overlap::GeneralStable => "general-stable",
            Overlap::GeneralUnstable => "general-unstable",
        }
    }
}

/// Theorem 1: `Sky(S, C)` is guaranteed stable relative to `C′` iff the
/// regions are disjoint or no lower constraint increased.
pub fn is_stable(old: &Constraints, new: &Constraints) -> bool {
    if !old.overlaps(new) {
        return true;
    }
    old.lo().iter().zip(new.lo()).all(|(o, n)| n <= o)
}

/// Classifies the relationship between cached constraints `old` and
/// queried constraints `new`.
///
/// # Panics
/// Panics if the dimensionalities differ.
pub fn classify(old: &Constraints, new: &Constraints) -> Overlap {
    assert_eq!(old.dims(), new.dims(), "constraints dimensionality mismatch");
    if !old.overlaps(new) {
        return Overlap::Disjoint;
    }

    // The changed bounds as (dim, is_lower, increased): a case is named
    // by a lone change, so two are as many as the answer needs.
    let lo = old.lo().iter().zip(new.lo()).enumerate().map(|(i, b)| (i, true, b));
    let hi = old.hi().iter().zip(new.hi()).enumerate().map(|(i, b)| (i, false, b));
    let mut changed = lo.chain(hi).filter(|(_, _, (&o, &n))| !exact_eq(o, n));
    let first = changed.next().map(|(dim, is_lower, (o, n))| (dim, is_lower, n > o));
    match (first, changed.next()) {
        (None, _) => Overlap::Exact,
        (Some((dim, true, false)), None) => Overlap::CaseA { dim },
        (Some((dim, false, false)), None) => Overlap::CaseB { dim },
        (Some((dim, false, true)), None) => Overlap::CaseC { dim },
        (Some((dim, true, true)), None) => Overlap::CaseD { dim },
        _ => {
            if is_stable(old, new) {
                Overlap::GeneralStable
            } else {
                Overlap::GeneralUnstable
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(pairs: &[(f64, f64)]) -> Constraints {
        Constraints::from_pairs(pairs).unwrap()
    }

    #[test]
    fn exact_match() {
        let a = c(&[(0.0, 1.0), (0.0, 1.0)]);
        assert_eq!(classify(&a, &a.clone()), Overlap::Exact);
        assert!(is_stable(&a, &a));
    }

    #[test]
    fn disjoint_regions() {
        let a = c(&[(0.0, 1.0), (0.0, 1.0)]);
        let b = c(&[(2.0, 3.0), (0.0, 1.0)]);
        assert_eq!(classify(&a, &b), Overlap::Disjoint);
        // Disjoint is trivially stable (Theorem 1 [R]).
        assert!(is_stable(&a, &b));
    }

    #[test]
    fn four_single_bound_cases() {
        let old = c(&[(1.0, 2.0), (1.0, 2.0)]);
        assert_eq!(classify(&old, &c(&[(0.5, 2.0), (1.0, 2.0)])), Overlap::CaseA { dim: 0 });
        assert_eq!(classify(&old, &c(&[(1.0, 1.5), (1.0, 2.0)])), Overlap::CaseB { dim: 0 });
        assert_eq!(classify(&old, &c(&[(1.0, 2.0), (1.0, 2.5)])), Overlap::CaseC { dim: 1 });
        assert_eq!(classify(&old, &c(&[(1.0, 2.0), (1.5, 2.0)])), Overlap::CaseD { dim: 1 });
    }

    #[test]
    fn case_stability_flags() {
        assert!(Overlap::CaseA { dim: 0 }.is_stable());
        assert!(Overlap::CaseB { dim: 0 }.is_stable());
        assert!(Overlap::CaseC { dim: 0 }.is_stable());
        assert!(!Overlap::CaseD { dim: 0 }.is_stable());
        assert!(Overlap::GeneralStable.is_stable());
        assert!(!Overlap::GeneralUnstable.is_stable());
        assert!(Overlap::Exact.is_stable());
        assert!(Overlap::Disjoint.is_stable());
    }

    #[test]
    fn general_cases() {
        let old = c(&[(1.0, 2.0), (1.0, 2.0)]);
        // Two bounds changed, both "safe" directions → stable.
        let stable = c(&[(0.5, 2.5), (1.0, 2.0)]);
        assert_eq!(classify(&old, &stable), Overlap::GeneralStable);
        // Lower bound raised among the changes → unstable.
        let unstable = c(&[(1.5, 2.5), (1.0, 2.0)]);
        assert_eq!(classify(&old, &unstable), Overlap::GeneralUnstable);
        assert!(!is_stable(&old, &unstable));
    }

    #[test]
    fn one_dim_both_bounds_changed_is_general() {
        let old = c(&[(1.0, 2.0), (1.0, 2.0)]);
        let new = c(&[(0.5, 2.5), (1.0, 2.0)]);
        // Same dimension, both bounds — not a single-bound case.
        assert!(matches!(classify(&old, &new), Overlap::GeneralStable));
    }

    #[test]
    fn theorem1_matches_classification() {
        let old = c(&[(1.0, 2.0), (1.0, 2.0)]);
        for new in [
            c(&[(0.9, 2.0), (0.8, 1.9)]),
            c(&[(1.1, 2.0), (1.0, 2.0)]),
            c(&[(1.0, 3.0), (0.0, 2.0)]),
            c(&[(1.5, 1.8), (1.5, 1.8)]),
        ] {
            assert_eq!(classify(&old, &new).is_stable(), is_stable(&old, &new));
        }
    }
}
