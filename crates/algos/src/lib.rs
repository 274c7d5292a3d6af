//! Skyline algorithms.
//!
//! The paper's evaluation uses two skyline computations, both
//! implemented here from scratch:
//!
//! * [`Sfs`] — Sort-Filter Skyline (Chomicki et al.), the in-memory
//!   skyline routine inside both the Baseline method and CBCS ("we use the
//!   Sort-Filter Skyline algorithm in both", Section 7), at every
//!   dimensionality;
//! * [`bbs`] — Branch-and-Bound Skyline (Papadias et al.) over the
//!   workspace R\*-tree, the I/O-optimal non-caching state of the art that
//!   CBCS is compared against.
//!
//! Both count their dominance tests — the paper's proxy for skyline
//! computation cost.
//!
//! ```
//! use skycache_algos::Sfs;
//! use skycache_geom::Point;
//!
//! let hotels = vec![
//!     Point::from(vec![1.0, 180.0]), // near, pricey   — skyline
//!     Point::from(vec![6.0, 90.0]),  // far, cheap     — skyline
//!     Point::from(vec![3.0, 120.0]), // balanced       — skyline
//!     Point::from(vec![4.0, 200.0]), // dominated by (3.0, 120.0)
//! ];
//! let out = Sfs.compute(hotels);
//! assert_eq!(out.skyline.len(), 3);
//! // Sorted by coordinate sum, each hotel meets the skyline rows before
//! // it, and (4.0, 200.0) stops at its dominator, the second of them:
//! // 0 + 1 + 2 + 2 tests.
//! assert_eq!(out.dominance_tests, 5);
//! ```

pub mod bbs;
mod inmem;

pub use bbs::{bbs_constrained, BbsOutput, BbsStats};
pub use inmem::{Sfs, SkylineOutput, SkylineScratch};

#[cfg(test)]
pub(crate) mod testutil {
    use skycache_geom::{dominates, Point};

    /// Reference `O(n²)` skyline with keep-duplicates semantics.
    pub fn naive_skyline(points: &[Point]) -> Vec<Point> {
        points.iter().filter(|t| !points.iter().any(|s| dominates(s, t))).cloned().collect()
    }

    /// Sorts points lexicographically for set comparison.
    pub fn sorted(mut pts: Vec<Point>) -> Vec<Point> {
        pts.sort_by(|a, b| a.coords().partial_cmp(b.coords()).expect("NaN-free"));
        pts
    }
}
