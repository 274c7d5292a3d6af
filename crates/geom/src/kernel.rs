//! The production row-level dominance test, and the pair the
//! differential tests and benchmarks name it by.
//!
//! The SoA [`crate::PointBlock`] layout stores coordinates as flat
//! `&[f64]` rows precisely so the dominance test can run without
//! pointer chasing. [`dominates_rows`] exploits that layout: it processes
//! rows in fixed-size lane blocks with branch-free boolean accumulation —
//! exactly the shape the autovectorizer turns into packed `f64` compares
//! plus a movmsk — and branches once per row. Every dominance loop in the
//! workspace (the SFS filter, the BBS corner prune, cache maintenance)
//! calls it.
//!
//! The early-exit form [`crate::dominance::dominates_raw`] costs a
//! data-dependent branch per element, which a sort-filter window scan
//! mispredicts about half the time: measured through the server it loses
//! the SFS pass at d = 4 and d = 6 and ties at d = 3 (DESIGN.md §13). It
//! stays as the *reference*: the lane-blocked test accumulates precisely
//! the predicates the reference tests (`a > b`, `a < b`), so even exotic
//! inputs (signed zeros, infinities, equal rows) classify identically,
//! and `tests/prop_kernels.rs` pins that differentially.
//!
//! Row *containment* is the opposite case — a selective post-filter
//! rejects most rows on their first or second coordinate — and exists
//! only in its early-exit form ([`crate::HyperRect::contains_coords`],
//! [`crate::Aabb::contains_coords`]).

use crate::dominance::dominates_raw;

/// Number of `f64` lanes each block processes branch-free. Matches one
/// AVX2 register (4 × 64 bit); on narrower targets the autovectorizer
/// splits the block into two 128-bit halves.
const LANES: usize = 4;

/// Names the two implementations of the row-level dominance test for
/// differential tests and throughput probes. Production code calls
/// [`dominates_rows`] directly and never holds one of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// The early-exit reference ([`dominates_raw`]).
    Scalar,
    /// The lane-blocked production test ([`dominates_rows`]).
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-picked rows covering both outcomes plus the equal /
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
            }
        }
        // Short rows exercise the pure-remainder path.
        assert!(dominates_rows(&[1.0], &[2.0]));
        assert!(!dominates_rows(&[1.0], &[1.0]));
        // Empty rows: nothing is strictly smaller, so no dominance.
        assert!(!dominates_rows(&[], &[]));
    }
}
