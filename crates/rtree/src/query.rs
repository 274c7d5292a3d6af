//! Prioritized traversal: the best-first cursor used by BBS.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use skycache_geom::Aabb;

use crate::node::Node;
use crate::tree::RStarTree;

/// Opaque handle to an inner node popped from a [`BestFirst`] cursor.
/// Pass it back to [`BestFirst::expand`] to enqueue the node's children.
pub struct NodeRef<'t, T>(&'t Node<T>);

/// An element popped from a [`BestFirst`] cursor, in ascending score order.
pub enum Popped<'t, T> {
    /// An inner node: the caller decides whether to [`expand`](BestFirst::expand)
    /// it (descend) or drop it (prune the whole subtree). Carries the
    /// node's bounding box by value (node pops are rare — one per `~M`
    /// items — so the clone is immaterial).
    Node(NodeRef<'t, T>, Aabb),
    /// A data entry.
    Item(&'t Aabb, &'t T),
}

struct HeapItem<'t, T> {
    score: f64,
    seq: u64,
    payload: Payload<'t, T>,
}

enum Payload<'t, T> {
    Node(&'t Node<T>, Aabb),
    Item(&'t Aabb, &'t T),
}

impl<T> PartialEq for HeapItem<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.seq == other.seq
    }
}

impl<T> Eq for HeapItem<'_, T> {}

impl<T> Ord for HeapItem<'_, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on score via reversed comparison; ties broken by
        // insertion order for determinism.
        other.score.total_cmp(&self.score).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for HeapItem<'_, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Best-first traversal cursor over an [`RStarTree`].
///
/// Entries pop in ascending order of a caller-supplied score on their
/// bounding boxes (for BBS, the `L1` lower-corner distance). The caller
/// controls descent: a popped [`Popped::Node`] is only descended into
/// when handed back via [`expand`](BestFirst::expand), which is what lets
/// BBS prune entire subtrees that are dominated or outside the constraint
/// region.
pub struct BestFirst<'t, T, S: Fn(&Aabb) -> f64> {
    score: S,
    heap: BinaryHeap<HeapItem<'t, T>>,
    seq: u64,
}

impl<'t, T, S: Fn(&Aabb) -> f64> BestFirst<'t, T, S> {
    /// Creates a cursor positioned at the tree root.
    pub fn new(tree: &'t RStarTree<T>, score: S) -> Self {
        let mut bf = BestFirst { score, heap: BinaryHeap::new(), seq: 0 };
        if let Some(mbr) = tree.mbr() {
            let s = (bf.score)(&mbr);
            bf.heap.push(HeapItem { score: s, seq: 0, payload: Payload::Node(&tree.root, mbr) });
            bf.seq = 1;
        }
        bf
    }

    /// Pops the lowest-score element, or `None` when the frontier is empty.
    pub fn pop(&mut self) -> Option<(f64, Popped<'t, T>)> {
        let item = self.heap.pop()?;
        let popped = match item.payload {
            Payload::Node(node, mbr) => Popped::Node(NodeRef(node), mbr),
            Payload::Item(mbr, value) => Popped::Item(mbr, value),
        };
        Some((item.score, popped))
    }

    /// Enqueues the children of a previously popped node, skipping those
    /// for which `keep` returns `false`.
    pub fn expand(&mut self, node: NodeRef<'t, T>, mut keep: impl FnMut(&Aabb) -> bool) {
        match node.0 {
            Node::Leaf(entries) => {
                for e in entries {
                    if keep(&e.mbr) {
                        let score = (self.score)(&e.mbr);
                        self.heap.push(HeapItem {
                            score,
                            seq: self.seq,
                            payload: Payload::Item(&e.mbr, &e.value),
                        });
                        self.seq += 1;
                    }
                }
            }
            Node::Inner { children, .. } => {
                for c in children {
                    if keep(&c.mbr) {
                        let score = (self.score)(&c.mbr);
                        self.heap.push(HeapItem {
                            score,
                            seq: self.seq,
                            payload: Payload::Node(&c.child, c.mbr.clone()),
                        });
                        self.seq += 1;
                    }
                }
            }
        }
    }

    /// Number of elements currently on the frontier (heap size) — the
    /// paper reports BBS heap behaviour via this.
    pub fn frontier_len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RTreeParams;
    use skycache_geom::Point;

    fn pts(n: usize) -> Vec<(Point, usize)> {
        (0..n)
            .map(|i| {
                let x = ((i * 37) % 101) as f64;
                let y = ((i * 53) % 97) as f64;
                (Point::from(vec![x, y]), i)
            })
            .collect()
    }

    #[test]
    fn best_first_pops_in_score_order() {
        let tree = RStarTree::bulk_load_points(pts(300), RTreeParams::default());
        let mut bf = BestFirst::new(&tree, |mbr| mbr.lo().iter().sum());
        let mut last = f64::NEG_INFINITY;
        let mut items = 0;
        while let Some((score, popped)) = bf.pop() {
            assert!(score >= last - 1e-12, "scores must be non-decreasing");
            last = score;
            match popped {
                Popped::Node(node, _) => bf.expand(node, |_| true),
                Popped::Item(..) => items += 1,
            }
        }
        assert_eq!(items, 300);
    }

    #[test]
    fn pruning_skips_subtrees() {
        let tree = RStarTree::bulk_load_points(pts(300), RTreeParams::default());
        // Keep only boxes intersecting a small window; item count must
        // equal a brute-force filter. Scored by BBS's mindist, the sum of
        // the lower corner.
        let window = Aabb::new(vec![0.0, 0.0], vec![30.0, 30.0]).unwrap();
        let mut bf = BestFirst::new(&tree, |mbr| mbr.lo().iter().sum());
        let mut items = 0;
        while let Some((_, popped)) = bf.pop() {
            match popped {
                Popped::Node(node, _) => bf.expand(node, |mbr| mbr.intersects(&window)),
                Popped::Item(mbr, _) => {
                    assert!(mbr.intersects(&window));
                    items += 1;
                }
            }
        }
        let want = pts(300).iter().filter(|(p, _)| window.contains_point(p)).count();
        assert_eq!(items, want);
    }

    #[test]
    fn empty_tree_cursor() {
        let tree: RStarTree<u8> = RStarTree::new(2);
        let mut bf = BestFirst::new(&tree, |m| m.area());
        assert!(bf.pop().is_none());
        assert_eq!(bf.frontier_len(), 0);
    }
}
