//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Building a million-entry R\*-tree by repeated insertion costs minutes;
//! STR (Leutenegger et al.) packs fully-filled, well-clustered nodes in
//! `O(n log n)` and is how the BBS dataset index is constructed.

use std::sync::Arc;

use skycache_geom::{Aabb, Point};

use crate::node::{ChildEntry, LeafEntry, Node};
use crate::tree::{RStarTree, RTreeParams};

impl<T> RStarTree<T> {
    /// Builds a tree from `(mbr, value)` pairs using STR packing.
    ///
    /// # Panics
    /// Panics if `dims == 0`, parameters are inconsistent, or any box has
    /// the wrong dimensionality.
    pub fn bulk_load(dims: usize, items: Vec<(Aabb, T)>, params: RTreeParams) -> Self {
        assert!(dims > 0, "zero-dimensional tree");
        let len = items.len();
        for (mbr, _) in &items {
            assert_eq!(mbr.dims(), dims, "box/tree dimensionality mismatch");
        }
        if items.is_empty() {
            return RStarTree::with_params(dims, params);
        }

        // Pack leaves.
        let leaf_entries: Vec<LeafEntry<T>> =
            items.into_iter().map(|(mbr, value)| LeafEntry { mbr, value }).collect();
        let groups = str_partition(leaf_entries, dims, params.max_entries);
        let mut nodes: Vec<Arc<Node<T>>> =
            groups.into_iter().map(|g| Arc::new(Node::Leaf(g))).collect();

        // Pack upper levels until a single root remains.
        let mut level = 1usize;
        while nodes.len() > 1 {
            let children: Vec<ChildEntry<T>> = nodes
                .into_iter()
                .map(|child| {
                    #[expect(clippy::expect_used, reason = "STR packing never emits empty nodes")]
                    let mbr = child.mbr().expect("packed nodes are non-empty");
                    ChildEntry { mbr, child }
                })
                .collect();
            let groups = str_partition(children, dims, params.max_entries);
            nodes =
                groups.into_iter().map(|g| Arc::new(Node::Inner { level, children: g })).collect();
            level += 1;
        }
        #[expect(clippy::expect_used, reason = "the packing loop always leaves a root")]
        let root = nodes.pop().expect("at least one node");
        RStarTree::from_root(root, params, dims, len)
    }

    /// Convenience: bulk-loads a tree of points (degenerate boxes), the
    /// layout BBS queries.
    pub fn bulk_load_points(
        points: impl IntoIterator<Item = (Point, T)>,
        params: RTreeParams,
    ) -> Self {
        let items: Vec<(Aabb, T)> =
            points.into_iter().map(|(p, v)| (Aabb::from_point(&p), v)).collect();
        let dims = items.first().map_or(1, |(b, _)| b.dims());
        Self::bulk_load(dims, items, params)
    }
}

/// Splits `entries` into `groups` consecutive chunks whose sizes differ by
/// at most one. Balanced chunking keeps every packed node at or above the
/// minimum fill (for `n > cap`, each chunk holds at least `⌊n/⌈n/cap⌉⌋ ≥
/// ⌊cap/2⌋ ≥ min_entries` entries), so bulk-loaded trees satisfy the same
/// invariants as dynamically built ones.
fn balanced_chunks<E>(mut entries: Vec<E>, groups: usize) -> Vec<Vec<E>> {
    let n = entries.len();
    let groups = groups.clamp(1, n.max(1));
    let base = n / groups;
    let extra = n % groups; // first `extra` chunks take one more
    let mut out = Vec::with_capacity(groups);
    for g in 0..groups {
        let take = base + usize::from(g < extra);
        let tail = entries.split_off(take.min(entries.len()));
        out.push(std::mem::replace(&mut entries, tail));
    }
    out
}

fn sort_by_center<E: crate::split::HasMbr>(entries: &mut [E], dim: usize) {
    entries.sort_by(|a, b| a.mbr().center()[dim].total_cmp(&b.mbr().center()[dim]));
}

/// Recursively tiles `entries` into groups of at most `cap`, slicing one
/// dimension at a time by center coordinate.
fn str_partition<E: crate::split::HasMbr>(entries: Vec<E>, dims: usize, cap: usize) -> Vec<Vec<E>> {
    fn tile<E: crate::split::HasMbr>(
        mut entries: Vec<E>,
        dim: usize,
        dims: usize,
        cap: usize,
        out: &mut Vec<Vec<E>>,
    ) {
        if entries.is_empty() {
            return;
        }
        if entries.len() <= cap {
            out.push(entries);
            return;
        }
        let groups_needed = entries.len().div_ceil(cap);
        if dim + 1 == dims {
            // Final dimension: emit balanced leaf-sized chunks.
            sort_by_center(&mut entries, dim);
            out.extend(balanced_chunks(entries, groups_needed));
            return;
        }
        // Slice count: ceil((n / cap)^(1/(remaining dims))).
        let remaining = (dims - dim) as f64;
        let slices = (groups_needed as f64).powf(1.0 / remaining).ceil() as usize;
        sort_by_center(&mut entries, dim);
        for slice in balanced_chunks(entries, slices) {
            tile(slice, dim + 1, dims, cap, out);
        }
    }
    let mut out = Vec::new();
    tile(entries, 0, dims, cap, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(n: usize) -> Vec<(Point, usize)> {
        (0..n)
            .map(|i| {
                let x = (i % 97) as f64;
                let y = ((i * 31) % 89) as f64;
                let z = ((i * 7) % 53) as f64;
                (Point::from(vec![x, y, z]), i)
            })
            .collect()
    }

    #[test]
    fn bulk_load_preserves_everything() {
        let t = RStarTree::bulk_load_points(points(10_000), RTreeParams::default());
        assert_eq!(t.len(), 10_000);
        t.check_invariants();
        let all = t.iter().count();
        assert_eq!(all, 10_000);
    }

    #[test]
    fn bulk_load_empty() {
        let t: RStarTree<u8> = RStarTree::bulk_load(2, vec![], RTreeParams::default());
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn bulk_load_single() {
        let t = RStarTree::bulk_load_points(points(1), RTreeParams::default());
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        t.check_invariants();
    }

    #[test]
    fn bulk_query_matches_bruteforce() {
        let pts = points(5_000);
        let t = RStarTree::bulk_load_points(pts.clone(), RTreeParams::default());
        let window = Aabb::new(vec![10.0, 20.0, 5.0], vec![40.0, 60.0, 30.0]).unwrap();
        let mut got = Vec::new();
        t.for_each_in(&window, |_, &v| got.push(v));
        got.sort_unstable();
        let mut want: Vec<usize> =
            pts.iter().filter(|(p, _)| window.contains_point(p)).map(|&(_, v)| v).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn bulk_tree_supports_dynamic_updates() {
        let mut t = RStarTree::bulk_load_points(points(2_000), RTreeParams::default());
        t.insert(Aabb::from_point(&Point::from(vec![500.0, 500.0, 500.0])), 999_999);
        assert_eq!(t.len(), 2_001);
        t.check_invariants();
        let hit =
            t.remove(&Aabb::from_point(&Point::from(vec![500.0, 500.0, 500.0])), |&v| v == 999_999);
        assert_eq!(hit, Some(999_999));
        t.check_invariants();
    }
}
