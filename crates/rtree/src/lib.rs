//! An R\*-tree, built from scratch.
//!
//! Two roles in this workspace, mirroring the paper's experimental setup:
//!
//! 1. **BBS substrate** — the state-of-the-art constrained-skyline
//!    competitor BBS (Papadias et al.) runs a best-first traversal over an
//!    R-tree of the dataset (the paper used libspatialindex). Large trees
//!    are built with STR bulk loading ([`RStarTree::bulk_load`]); the
//!    traversal primitive is [`BestFirst`].
//! 2. **Cache index** — CBCS organizes its cache items "by an R\*-tree
//!    indexing the MBR of each cached skyline" (Section 6). That tree is
//!    small and dynamic: incremental [`insert`](RStarTree::insert) with
//!    forced reinsertion and [`remove`](RStarTree::remove) for cache
//!    eviction.
//!
//! The implementation follows Beckmann, Kriegel, Schneider & Seeger (1990):
//! `ChooseSubtree` minimizes overlap enlargement at the leaf level and area
//! enlargement above it; overflow triggers one forced reinsertion of the
//! 30% farthest entries per level per insertion, then the topological
//! split (axis by minimum margin sum, split index by minimum overlap).
//!
//! ```
//! use skycache_geom::{Aabb, Point};
//! use skycache_rtree::{RStarTree, RTreeParams};
//!
//! // Dynamic insertion (the cache index usage).
//! let mut tree = RStarTree::new(2);
//! for i in 0..100u32 {
//!     let p = Point::from(vec![f64::from(i % 10), f64::from(i / 10)]);
//!     tree.insert(Aabb::from_point(&p), i);
//! }
//! let window = Aabb::new(vec![2.0, 2.0], vec![4.0, 4.0]).unwrap();
//! assert_eq!(tree.search(&window).len(), 9);
//!
//! // Bulk loading (the BBS dataset-index usage).
//! let points = (0..1000u32).map(|i| {
//!     (Point::from(vec![f64::from(i % 37), f64::from(i % 53)]), i)
//! });
//! let bulk = RStarTree::bulk_load_points(points, RTreeParams::default());
//! assert_eq!(bulk.len(), 1000);
//! // The six i < 1000 with both i % 37 and i % 53 in [2, 4].
//! assert_eq!(bulk.search(&window).len(), 6);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod bulk;
mod node;
mod query;
mod split;
mod tree;

pub use query::{BestFirst, NodeRef, Popped};
pub use tree::{RStarTree, RTreeParams, TreeStats};
