//! The production row-level dominance tests, and the pair the
//! differential tests and benchmarks name them by.
//!
//! The SoA [`crate::PointBlock`] layout stores coordinates as flat
//! `&[f64]` rows precisely so the dominance tests can run without
//! pointer chasing. [`dominates_rows`] and [`compare_rows`] exploit that
//! layout: they process rows in fixed-size lane blocks with branch-free
//! boolean accumulation — exactly the shape the autovectorizer turns
//! into packed `f64` compares plus a movmsk — and branch at most once
//! per row. Every dominance loop in the workspace (SFS, BNL, the D&C
//! cross-filter, the BBS corner prune, cache maintenance) calls them.
//!
//! The early-exit forms [`crate::dominance::dominates_raw`] /
//! [`crate::dominance::compare_raw`] cost a data-dependent branch per
//! element, which a sort-filter window scan mispredicts about half the
//! time: measured through the server they lose the SFS pass at d = 4 and
//! d = 6 and tie at d = 3 (DESIGN.md §13). They stay as the *reference*:
//! each lane-blocked test accumulates precisely the predicates its
//! reference tests (`a > b`, `a < b`), so even exotic inputs (signed
//! zeros, infinities, equal rows) classify identically, and
//! `tests/prop_kernels.rs` pins that differentially.
//!
//! Row *containment* is the opposite case — a selective post-filter
//! rejects most rows on their first or second coordinate — and exists
//! only in its early-exit form ([`crate::HyperRect::contains_coords`],
//! [`crate::Aabb::contains_coords`]).

use crate::dominance::{compare_raw, dominates_raw, DomRelation};

/// Number of `f64` lanes each block processes branch-free. Matches one
/// AVX2 register (4 × 64 bit); on narrower targets the autovectorizer
/// splits the block into two 128-bit halves.
const LANES: usize = 4;

/// Names the two implementations of the row-level dominance test for
/// differential tests and throughput probes. Production code calls
/// [`dominates_rows`] / [`compare_rows`] directly and never holds one of
/// these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// The early-exit reference ([`dominates_raw`] / [`compare_raw`]).
    Scalar,
    /// The lane-blocked production test ([`dominates_rows`] /
    /// [`compare_rows`]).
    Wide,
}

impl Kernel {
    /// Strict Pareto dominance `s ≺ t` under the named implementation.
    #[inline]
    pub fn dominates(self, s: &[f64], t: &[f64]) -> bool {
        match self {
            Kernel::Scalar => dominates_raw(s, t),
            Kernel::Wide => dominates_rows(s, t),
        }
    }

    /// Single-pass dominance classification under the named
    /// implementation.
    #[inline]
    pub fn compare(self, s: &[f64], t: &[f64]) -> DomRelation {
        match self {
            Kernel::Scalar => compare_raw(s, t),
            Kernel::Wide => compare_rows(s, t),
        }
    }
}

/// Strict Pareto dominance `s ≺ t` over bare coordinate rows:
/// accumulates `any(s[i] > t[i])` and `any(s[i] < t[i])` over
/// `LANES`-element blocks with no per-element branch, then decides
/// once: `s ≺ t ⇔ ¬any_gt ∧ any_lt`.
#[inline]
pub fn dominates_rows(s: &[f64], t: &[f64]) -> bool {
    debug_assert_eq!(s.len(), t.len());
    let mut any_gt = false;
    let mut any_lt = false;
    let mut sc = s.chunks_exact(LANES);
    let mut tc = t.chunks_exact(LANES);
    for (a, b) in sc.by_ref().zip(tc.by_ref()) {
        let mut gt = false;
        let mut lt = false;
        for l in 0..LANES {
            gt |= a[l] > b[l];
            lt |= a[l] < b[l];
        }
        any_gt |= gt;
        any_lt |= lt;
    }
    for (a, b) in sc.remainder().iter().zip(tc.remainder()) {
        any_gt |= a > b;
        any_lt |= a < b;
    }
    !any_gt && any_lt
}

/// Single-pass dominance classification over bare coordinate rows: the
/// same lane-blocked accumulation of the `s[i] < t[i]` / `t[i] < s[i]`
/// witnesses, classified once at the end instead of early-returning
/// `Incomparable` mid-row.
#[inline]
pub fn compare_rows(s: &[f64], t: &[f64]) -> DomRelation {
    debug_assert_eq!(s.len(), t.len());
    let mut s_less = false;
    let mut t_less = false;
    let mut sc = s.chunks_exact(LANES);
    let mut tc = t.chunks_exact(LANES);
    for (a, b) in sc.by_ref().zip(tc.by_ref()) {
        let mut sl = false;
        let mut tl = false;
        for l in 0..LANES {
            sl |= a[l] < b[l];
            tl |= b[l] < a[l];
        }
        s_less |= sl;
        t_less |= tl;
    }
    for (a, b) in sc.remainder().iter().zip(tc.remainder()) {
        s_less |= a < b;
        t_less |= b < a;
    }
    match (s_less, t_less) {
        (true, true) => DomRelation::Incomparable,
        (true, false) => DomRelation::Dominates,
        (false, true) => DomRelation::DominatedBy,
        (false, false) => DomRelation::Equal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-picked rows covering every classification plus the equal /
    /// signed-zero / long-row edges; the bulk differential coverage
    /// lives in `tests/prop_kernels.rs`.
    #[test]
    fn wide_matches_scalar_on_edge_rows() {
        let rows: [&[f64]; 8] = [
            &[1.0, 2.0, 3.0, 4.0, 5.0],
            &[1.0, 2.0, 3.0, 4.0, 5.0],
            &[0.0, 2.0, 3.0, 4.0, 5.0],
            &[1.0, 2.0, 3.0, 4.0, 6.0],
            &[-0.0, 2.0, 3.0, 4.0, 5.0],
            &[0.0, -0.0, 3.0, 4.0, 5.0],
            &[f64::NEG_INFINITY, 2.0, 3.0, 4.0, f64::INFINITY],
            &[5.0, 4.0, 3.0, 2.0, 1.0],
        ];
        for s in rows {
            for t in rows {
                assert_eq!(dominates_rows(s, t), dominates_raw(s, t), "{s:?} vs {t:?}");
                assert_eq!(compare_rows(s, t), compare_raw(s, t), "{s:?} vs {t:?}");
            }
        }
        // Short rows exercise the pure-remainder path.
        assert!(dominates_rows(&[1.0], &[2.0]));
        assert!(!dominates_rows(&[1.0], &[1.0]));
        assert_eq!(compare_rows(&[2.0], &[1.0]), DomRelation::DominatedBy);
        // Empty rows: nothing is strictly smaller, so Equal / no dominance.
        assert!(!dominates_rows(&[], &[]));
        assert_eq!(compare_rows(&[], &[]), DomRelation::Equal);
    }
}
