//! Geometric kernel for constrained skyline processing.
//!
//! This crate provides the spatial vocabulary shared by every other
//! `skycache` crate:
//!
//! * [`Point`] — an owned, fixed-dimensionality coordinate vector;
//! * [`Interval`] — a 1-D range with *per-endpoint inclusivity*, needed
//!   because the MPR algorithm (Algorithm 1 of the paper) splits regions
//!   with strict inequalities so that the emitted range queries stay
//!   pairwise disjoint;
//! * [`rect`] — a region, one [`Interval`] per dimension (a possibly
//!   half-open box), as a bare `&[Interval]`, and [`Regions`], a flat list
//!   of them — the one region format of the MPR, the fetch stage and
//!   storage;
//! * [`Aabb`] — a closed axis-aligned box with the area/margin algebra
//!   required by the R\*-tree;
//! * [`Constraints`] — a closed box with query semantics, the `C = ⟨C̲, C̄⟩`
//!   of the paper;
//! * [`dominance`] — Pareto dominance tests and dominance regions;
//! * [`subtract`] — [`subtract::carve`], the one box subtraction, and
//!   disjoint decomposition: the kernel of the Missing Points Region
//!   computation.
//!
//! All skylines in this workspace **minimize** every dimension, matching the
//! paper; a preference for maximization is handled by negating the attribute.

mod aabb;
/// Flat structure-of-arrays point storage for allocation-free hot loops.
pub mod block;
mod constraints;
/// Pareto dominance tests and dominance regions.
pub mod dominance;
mod error;
/// Explicit float-comparison helpers (exact vs. tolerance semantics).
pub mod float;
mod interval;
/// The lane-blocked production dominance tests over bare rows.
pub mod kernel;
mod point;
/// Regions as interval slices, and flat lists of them.
pub mod rect;
/// Box subtraction and disjoint decomposition (the MPR kernel).
pub mod subtract;

pub use aabb::Aabb;
pub use block::PointBlock;
pub use constraints::Constraints;
pub use dominance::{dominated_by_any_rows, dominates};
pub use error::GeomError;
pub use interval::Interval;
pub use kernel::{dominates_rows, Kernel};
pub use point::Point;
pub use rect::Regions;

/// Convenience alias: results of fallible geometric constructors.
pub type Result<T> = std::result::Result<T, GeomError>;
