use std::sync::Arc;

use skycache_geom::Aabb;

use crate::node::{ChildEntry, LeafEntry, Node};
use crate::split::rstar_split;

/// R\*-tree tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct RTreeParams {
    /// Maximum entries per node (`M`).
    pub max_entries: usize,
    /// Minimum entries per non-root node (`m`, typically 40% of `M`).
    pub min_entries: usize,
    /// Entries removed by one forced reinsertion (`p`, typically 30% of `M`).
    pub reinsert_count: usize,
}

impl Default for RTreeParams {
    fn default() -> Self {
        RTreeParams { max_entries: 32, min_entries: 12, reinsert_count: 9 }
    }
}

impl RTreeParams {
    fn validate(&self) {
        assert!(self.max_entries >= 4, "max_entries must be >= 4");
        assert!(
            self.min_entries >= 2 && 2 * self.min_entries <= self.max_entries,
            "need 2 <= min_entries <= max_entries/2"
        );
        assert!(
            self.reinsert_count >= 1 && self.reinsert_count <= self.max_entries - self.min_entries,
            "reinsert_count out of range"
        );
    }
}

/// An entry travelling through insertion/reinsertion machinery.
pub(crate) enum AnyEntry<T> {
    Leaf(LeafEntry<T>),
    Child(ChildEntry<T>),
}

impl<T> AnyEntry<T> {
    fn mbr(&self) -> &Aabb {
        match self {
            AnyEntry::Leaf(e) => &e.mbr,
            AnyEntry::Child(e) => &e.mbr,
        }
    }

    /// The level this entry must be inserted at: leaves at 0, a subtree one
    /// above its own level.
    fn target_level(&self) -> usize {
        match self {
            AnyEntry::Leaf(_) => 0,
            AnyEntry::Child(e) => e.child.level() + 1,
        }
    }
}

/// An R\*-tree mapping bounding boxes to values.
///
/// The tree is *persistent*: nodes are shared behind `Arc`, so `clone` is
/// one pointer copy whatever the size, and [`insert`](RStarTree::insert) /
/// [`remove`](RStarTree::remove) copy only the nodes on the paths they
/// change — every clone taken earlier keeps seeing the tree it cloned.
#[derive(Clone, Debug)]
pub struct RStarTree<T> {
    pub(crate) root: Arc<Node<T>>,
    params: RTreeParams,
    dims: usize,
    len: usize,
}

impl<T> RStarTree<T> {
    /// Creates an empty tree over `dims`-dimensional boxes.
    ///
    /// # Panics
    /// Panics if `dims == 0` or the parameters are inconsistent.
    pub fn new(dims: usize) -> Self {
        Self::with_params(dims, RTreeParams::default())
    }

    /// Creates an empty tree with explicit parameters.
    pub fn with_params(dims: usize, params: RTreeParams) -> Self {
        assert!(dims > 0, "zero-dimensional tree");
        params.validate();
        RStarTree { root: Arc::new(Node::Leaf(Vec::new())), params, dims, len: 0 }
    }

    pub(crate) fn from_root(
        root: Arc<Node<T>>,
        params: RTreeParams,
        dims: usize,
        len: usize,
    ) -> Self {
        RStarTree { root, params, dims, len }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of stored boxes.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Height of the tree (a lone leaf root has height 1).
    pub fn height(&self) -> usize {
        self.root.level() + 1
    }

    /// Bounding box of the whole tree, `None` when empty.
    pub fn mbr(&self) -> Option<Aabb> {
        self.root.mbr()
    }

    /// Visits every `(mbr, value)` whose box intersects `window`. The
    /// callback borrows from the tree, so results can be collected.
    pub fn for_each_in<'a>(&'a self, window: &Aabb, mut f: impl FnMut(&'a Aabb, &'a T)) {
        fn walk<'a, T>(node: &'a Node<T>, window: &Aabb, f: &mut impl FnMut(&'a Aabb, &'a T)) {
            match node {
                Node::Leaf(entries) => {
                    for e in entries {
                        if e.mbr.intersects(window) {
                            f(&e.mbr, &e.value);
                        }
                    }
                }
                Node::Inner { children, .. } => {
                    for c in children {
                        if c.mbr.intersects(window) {
                            walk(&c.child, window, f);
                        }
                    }
                }
            }
        }
        walk(&self.root, window, &mut f);
    }

    /// Visits the value of every entry stored under a box equal to `mbr`
    /// — numerically, bound by bound, so `-0.0 == 0.0`. A subtree can
    /// hold such an entry only if its box contains `mbr`, so this is one
    /// containment descent (the read-only half of
    /// [`remove`](RStarTree::remove)), not a window search; it allocates
    /// nothing.
    ///
    /// # Panics
    /// Panics if `mbr` has the wrong dimensionality.
    pub fn for_each_equal<'a>(&'a self, mbr: &Aabb, mut f: impl FnMut(&'a T)) {
        assert_eq!(mbr.dims(), self.dims, "box/tree dimensionality mismatch");
        visit_equal(&self.root, mbr, &mut f);
    }

    /// Iterates over all values.
    pub fn iter(&self) -> impl Iterator<Item = (&Aabb, &T)> {
        let mut out = Vec::with_capacity(self.len);
        fn walk<'a, T>(node: &'a Node<T>, out: &mut Vec<(&'a Aabb, &'a T)>) {
            match node {
                Node::Leaf(entries) => out.extend(entries.iter().map(|e| (&e.mbr, &e.value))),
                Node::Inner { children, .. } => {
                    for c in children {
                        walk(&c.child, out);
                    }
                }
            }
        }
        walk(&self.root, &mut out);
        out.into_iter()
    }

    /// Structural invariant check for tests: uniform leaf depth, tight and
    /// containing MBRs, fill factors within `[min, max]` except the root.
    ///
    /// # Panics
    /// Panics on any violation.
    pub fn check_invariants(&self) {
        fn walk<T>(
            node: &Node<T>,
            expected_level: usize,
            is_root: bool,
            params: &RTreeParams,
            count: &mut usize,
        ) -> Option<Aabb> {
            assert_eq!(node.level(), expected_level, "level mismatch");
            if !is_root {
                assert!(node.len() >= params.min_entries, "underfull node");
            }
            assert!(node.len() <= params.max_entries, "overfull node");
            match node {
                Node::Leaf(entries) => {
                    *count += entries.len();
                    node.mbr()
                }
                Node::Inner { children, .. } => {
                    assert!(!children.is_empty() || is_root, "empty inner node");
                    for c in children {
                        #[expect(
                            clippy::expect_used,
                            reason = "invariant checker; panics are its job"
                        )]
                        let child_mbr = walk(&c.child, expected_level - 1, false, params, count)
                            .expect("non-root nodes are non-empty");
                        assert_eq!(c.mbr, child_mbr, "stored child MBR not tight");
                    }
                    node.mbr()
                }
            }
        }
        let mut count = 0usize;
        let level = self.root.level();
        walk(&self.root, level, true, &self.params, &mut count);
        assert_eq!(count, self.len, "len out of sync");
    }
}

/// The mutating operations. `T: Clone` because un-sharing a leaf that an
/// earlier clone of the tree still holds copies its values; read-only
/// users (BBS over a bulk-loaded tree) never need the bound.
impl<T: Clone> RStarTree<T> {
    /// Inserts a value with its bounding box.
    ///
    /// # Panics
    /// Panics if `mbr` has the wrong dimensionality.
    pub fn insert(&mut self, mbr: Aabb, value: T) {
        assert_eq!(mbr.dims(), self.dims, "box/tree dimensionality mismatch");
        self.len += 1;
        // One forced-reinsert chance per level for this insertion.
        let mut reinserted = vec![false; self.root.level() + 1];
        let mut queue: Vec<AnyEntry<T>> = vec![AnyEntry::Leaf(LeafEntry { mbr, value })];
        while let Some(entry) = queue.pop() {
            self.insert_entry(entry, &mut queue, &mut reinserted);
        }
    }

    fn insert_entry(
        &mut self,
        entry: AnyEntry<T>,
        queue: &mut Vec<AnyEntry<T>>,
        reinserted: &mut Vec<bool>,
    ) {
        let target = entry.target_level();
        let params = self.params;
        let root = Arc::make_mut(&mut self.root);
        let split = insert_impl(root, entry, target, &params, queue, reinserted, true);
        if let Some(sibling) = split {
            // Root split: grow the tree by one level.
            let old_root = Arc::clone(&self.root);
            #[expect(clippy::expect_used, reason = "a root that just split holds entries")]
            let old_mbr = old_root.mbr().expect("split root is non-empty");
            let level = old_root.level() + 1;
            self.root = Arc::new(Node::Inner {
                level,
                children: vec![ChildEntry { mbr: old_mbr, child: old_root }, sibling],
            });
            reinserted.resize(level + 1, false);
        }
    }

    /// Removes one entry whose box equals `mbr` and whose value satisfies
    /// `pred`, returning the value. Underflowing nodes are dissolved and
    /// their entries reinserted (the classic condense-tree step).
    ///
    /// The entry is located read-only first, so a miss — and every
    /// subtree searched in vain on the way to a hit — copies nothing.
    pub fn remove(&mut self, mbr: &Aabb, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        assert_eq!(mbr.dims(), self.dims, "box/tree dimensionality mismatch");
        let mut path = Vec::with_capacity(self.height());
        if !locate(&self.root, mbr, &mut pred, &mut path) {
            return None;
        }
        let mut orphans: Vec<AnyEntry<T>> = Vec::new();
        let removed = remove_at(Arc::make_mut(&mut self.root), &path, &mut orphans, &self.params);
        self.len -= 1;

        // Shrink the root while it is a trivial chain.
        loop {
            match self.root.as_ref() {
                Node::Inner { children, .. } if children.len() == 1 => {
                    self.root = Arc::clone(&children[0].child);
                }
                Node::Inner { children, .. } if children.is_empty() => {
                    self.root = Arc::new(Node::Leaf(Vec::new()));
                    break;
                }
                _ => break,
            }
        }

        // Reinsert orphans at their original level; no forced reinserts.
        while let Some(entry) = orphans.pop() {
            let mut reinserted = vec![true; self.root.level() + 1];
            let mut queue = vec![entry];
            while let Some(e) = queue.pop() {
                self.insert_entry(e, &mut queue, &mut reinserted);
            }
        }
        Some(removed)
    }
}

/// Chooses the child of `children` best suited to receive `mbr`.
///
/// R\* rule: when the children are leaves, minimize overlap enlargement
/// (ties: area enlargement, then area); above the leaf level, minimize
/// area enlargement (ties: area).
fn choose_subtree<T>(children: &[ChildEntry<T>], mbr: &Aabb) -> usize {
    debug_assert!(!children.is_empty());
    let children_are_leaves = children[0].child.level() == 0;
    if children_are_leaves {
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, c) in children.iter().enumerate() {
            let enlarged = c.mbr.union(mbr);
            let overlap_before: f64 = children
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, o)| c.mbr.overlap_area(&o.mbr))
                .sum();
            let overlap_after: f64 = children
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, o)| enlarged.overlap_area(&o.mbr))
                .sum();
            let key =
                (overlap_after - overlap_before, enlarged.area() - c.mbr.area(), c.mbr.area());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    } else {
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for (i, c) in children.iter().enumerate() {
            let enlarged = c.mbr.union(mbr);
            let key = (enlarged.area() - c.mbr.area(), c.mbr.area());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }
}

/// Recursive insertion. Returns a split-off sibling for the caller to
/// adopt, if the node overflowed and split.
fn insert_impl<T: Clone>(
    node: &mut Node<T>,
    entry: AnyEntry<T>,
    target_level: usize,
    params: &RTreeParams,
    queue: &mut Vec<AnyEntry<T>>,
    reinserted: &mut [bool],
    is_root: bool,
) -> Option<ChildEntry<T>> {
    if node.level() == target_level {
        match (node, entry) {
            (Node::Leaf(entries), AnyEntry::Leaf(e)) => {
                entries.push(e);
                if entries.len() > params.max_entries {
                    return overflow_leaf(entries, 0, params, queue, reinserted, is_root);
                }
            }
            (Node::Inner { level, children }, AnyEntry::Child(e)) => {
                children.push(e);
                if children.len() > params.max_entries {
                    return overflow_inner(children, *level, params, queue, reinserted, is_root);
                }
            }
            _ => unreachable!("entry kind always matches target level"),
        }
        return None;
    }

    let Node::Inner { level, children } = node else {
        unreachable!("descent cannot pass the leaf level")
    };
    let level = *level;
    let idx = choose_subtree(children, entry.mbr());
    let split = insert_impl(
        Arc::make_mut(&mut children[idx].child),
        entry,
        target_level,
        params,
        queue,
        reinserted,
        false,
    );
    // Recompute the child MBR: it may have grown (insert) or shrunk
    // (forced reinsertion removed entries).
    #[expect(clippy::expect_used, reason = "children keep >= min entries during insertion")]
    let mbr = children[idx].child.mbr().expect("children keep >= min entries during insertion");
    children[idx].mbr = mbr;
    if let Some(sibling) = split {
        children.push(sibling);
        if children.len() > params.max_entries {
            return overflow_inner(children, level, params, queue, reinserted, is_root);
        }
    }
    None
}

/// R\* OverflowTreatment for a leaf node.
fn overflow_leaf<T>(
    entries: &mut Vec<LeafEntry<T>>,
    level: usize,
    params: &RTreeParams,
    queue: &mut Vec<AnyEntry<T>>,
    reinserted: &mut [bool],
    is_root: bool,
) -> Option<ChildEntry<T>> {
    if !is_root && level < reinserted.len() && !reinserted[level] {
        reinserted[level] = true;
        for e in strip_farthest(entries, params.reinsert_count) {
            queue.push(AnyEntry::Leaf(e));
        }
        return None;
    }
    let all = std::mem::take(entries);
    let (keep, split) = rstar_split(all, params.min_entries);
    *entries = keep;
    let sibling = Node::Leaf(split);
    #[expect(clippy::expect_used, reason = "rstar_split emits two non-empty groups")]
    let mbr = sibling.mbr().expect("split group is non-empty");
    Some(ChildEntry { mbr, child: Arc::new(sibling) })
}

/// R\* OverflowTreatment for an inner node.
fn overflow_inner<T>(
    children: &mut Vec<ChildEntry<T>>,
    level: usize,
    params: &RTreeParams,
    queue: &mut Vec<AnyEntry<T>>,
    reinserted: &mut [bool],
    is_root: bool,
) -> Option<ChildEntry<T>> {
    if !is_root && level < reinserted.len() && !reinserted[level] {
        reinserted[level] = true;
        for e in strip_farthest(children, params.reinsert_count) {
            queue.push(AnyEntry::Child(e));
        }
        return None;
    }
    let all = std::mem::take(children);
    let (keep, split) = rstar_split(all, params.min_entries);
    *children = keep;
    let sibling = Node::Inner { level, children: split };
    #[expect(clippy::expect_used, reason = "rstar_split emits two non-empty groups")]
    let mbr = sibling.mbr().expect("split group is non-empty");
    Some(ChildEntry { mbr, child: Arc::new(sibling) })
}

/// Removes the `count` entries whose centers are farthest from the node
/// center, returning them farthest-last (so close-in entries reinsert
/// first, per the paper's "close reinsert" variant).
fn strip_farthest<E: crate::split::HasMbr>(entries: &mut Vec<E>, count: usize) -> Vec<E> {
    let node_mbr = {
        let mut acc = entries[0].mbr().clone();
        for e in entries.iter().skip(1) {
            acc.merge(e.mbr());
        }
        acc
    };
    let center = node_mbr.center();
    let dist = |e: &E| -> f64 {
        e.mbr().center().iter().zip(&center).map(|(a, b)| (a - b) * (a - b)).sum()
    };
    entries.sort_by(|a, b| dist(a).total_cmp(&dist(b)));
    let at = entries.len() - count;
    entries.split_off(at)
}

/// The walk of [`RStarTree::for_each_equal`]: every entry under a box
/// equal to `mbr`, through the subtrees whose box contains it.
fn visit_equal<'a, T>(node: &'a Node<T>, mbr: &Aabb, f: &mut impl FnMut(&'a T)) {
    match node {
        Node::Leaf(entries) => {
            for e in entries {
                if e.mbr == *mbr {
                    f(&e.value);
                }
            }
        }
        Node::Inner { children, .. } => {
            for c in children {
                if c.mbr.contains_box(mbr) {
                    visit_equal(&c.child, mbr, f);
                }
            }
        }
    }
}

/// Read-only search for the entry `remove` is after: the containment
/// descent of [`RStarTree::for_each_equal`], stopped at the first entry
/// `pred` accepts. On a hit `path` holds the child index taken at every
/// inner level, root first, then the entry's index in its leaf.
fn locate<T>(
    node: &Node<T>,
    mbr: &Aabb,
    pred: &mut impl FnMut(&T) -> bool,
    path: &mut Vec<usize>,
) -> bool {
    match node {
        Node::Leaf(entries) => {
            let found = entries.iter().position(|e| e.mbr == *mbr && pred(&e.value));
            path.extend(found);
            found.is_some()
        }
        Node::Inner { children, .. } => {
            for (i, c) in children.iter().enumerate() {
                if !c.mbr.contains_box(mbr) {
                    continue;
                }
                path.push(i);
                if locate(&c.child, mbr, pred, path) {
                    return true;
                }
                path.pop();
            }
            false
        }
    }
}

/// Removal along a path found by [`locate`], with condense-tree: only
/// the nodes on the path are un-shared. Returns the removed value.
fn remove_at<T: Clone>(
    node: &mut Node<T>,
    path: &[usize],
    orphans: &mut Vec<AnyEntry<T>>,
    params: &RTreeParams,
) -> T {
    let (i, rest) = (path[0], &path[1..]);
    match node {
        Node::Leaf(entries) => entries.swap_remove(i).value,
        Node::Inner { children, .. } => {
            let removed = remove_at(Arc::make_mut(&mut children[i].child), rest, orphans, params);
            if children[i].child.len() < params.min_entries {
                // Dissolve the underfull child; reinsert its entries.
                let dead = children.swap_remove(i);
                match Arc::unwrap_or_clone(dead.child) {
                    Node::Leaf(entries) => {
                        orphans.extend(entries.into_iter().map(AnyEntry::Leaf));
                    }
                    Node::Inner { children: grand, .. } => {
                        orphans.extend(grand.into_iter().map(AnyEntry::Child));
                    }
                }
            } else {
                #[expect(clippy::expect_used, reason = "underfull children were drained above")]
                let mbr = children[i].child.mbr().expect("non-empty");
                children[i].mbr = mbr;
            }
            removed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycache_geom::Point;

    fn pt_box(x: f64, y: f64) -> Aabb {
        Aabb::from_point(&Point::from(vec![x, y]))
    }

    fn grid_tree(n: usize) -> RStarTree<usize> {
        let mut t = RStarTree::new(2);
        for i in 0..n {
            let x = (i % 37) as f64;
            let y = (i / 37) as f64;
            t.insert(pt_box(x, y), i);
        }
        t
    }

    /// The values `for_each_in` visits for `window`, in visit order.
    fn values_in<T: Copy>(t: &RStarTree<T>, window: &Aabb) -> Vec<T> {
        let mut out = Vec::new();
        t.for_each_in(window, |_, &v| out.push(v));
        out
    }

    #[test]
    fn insert_and_len() {
        let t = grid_tree(500);
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 2);
        t.check_invariants();
    }

    #[test]
    fn window_query_matches_bruteforce() {
        let t = grid_tree(1000);
        let window = Aabb::new(vec![5.0, 3.0], vec![20.0, 11.0]).unwrap();
        let mut got = values_in(&t, &window);
        got.sort_unstable();
        let mut want: Vec<usize> = (0..1000)
            .filter(|i| {
                let (x, y) = ((i % 37) as f64, (i / 37) as f64);
                window.contains_point(&Point::from(vec![x, y]))
            })
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_tree_behaviour() {
        let t: RStarTree<u8> = RStarTree::new(3);
        assert!(t.is_empty());
        assert_eq!(t.mbr(), None);
        assert!(values_in(&t, &Aabb::new(vec![0.0; 3], vec![1.0; 3]).unwrap()).is_empty());
        t.check_invariants();
    }

    #[test]
    fn remove_existing_entry() {
        let mut t = grid_tree(300);
        let removed = t.remove(&pt_box(5.0, 2.0), |&v| v == 5 + 2 * 37);
        assert_eq!(removed, Some(79));
        assert_eq!(t.len(), 299);
        t.check_invariants();
        // It is gone from queries.
        assert!(!values_in(&t, &pt_box(5.0, 2.0)).contains(&79));
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t = grid_tree(50);
        assert_eq!(t.remove(&pt_box(99.0, 99.0), |_| true), None);
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn remove_all_entries_one_by_one() {
        let mut t = grid_tree(200);
        for i in 0..200usize {
            let x = (i % 37) as f64;
            let y = (i / 37) as f64;
            assert_eq!(t.remove(&pt_box(x, y), |&v| v == i), Some(i), "removing {i}");
            t.check_invariants();
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn duplicate_boxes_distinct_values() {
        let mut t = RStarTree::new(2);
        for i in 0..100 {
            t.insert(pt_box(1.0, 1.0), i);
        }
        t.check_invariants();
        assert_eq!(values_in(&t, &pt_box(1.0, 1.0)).len(), 100);
        assert_eq!(t.remove(&pt_box(1.0, 1.0), |&v| v == 42), Some(42));
        assert_eq!(values_in(&t, &pt_box(1.0, 1.0)).len(), 99);
    }

    #[test]
    fn iter_visits_everything() {
        let t = grid_tree(123);
        let mut vals: Vec<usize> = t.iter().map(|(_, &v)| v).collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..123).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn insert_wrong_dims_panics() {
        let mut t: RStarTree<u8> = RStarTree::new(2);
        t.insert(Aabb::new(vec![0.0; 3], vec![1.0; 3]).unwrap(), 0);
    }

    #[test]
    fn params_validation() {
        let bad = RTreeParams { max_entries: 4, min_entries: 3, reinsert_count: 1 };
        let result = std::panic::catch_unwind(|| RStarTree::<u8>::with_params(2, bad));
        assert!(result.is_err());
    }
}
