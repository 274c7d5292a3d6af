//! Branch-and-Bound Skyline (Papadias, Tao, Fu & Seeger, TODS 2005) with
//! constraint-region pruning — the paper's non-caching state of the art.
//!
//! BBS traverses an R-tree best-first by `mindist` (the sum of an entry's
//! lower-corner coordinates) and maintains the skyline found so far.
//! Entries are pruned when they fall outside the constraint region
//! ("pruning paths in an R-Tree if outside the constraints") or when their
//! lower corner is dominated by an existing skyline point — in which case
//! the entire subtree is dominated. With mindist ordering, every leaf
//! entry that survives both checks when popped is a skyline point, which
//! makes the traversal I/O-optimal.

use skycache_geom::{dominates_rows, Aabb, Constraints, Point};
use skycache_rtree::{BestFirst, Popped, RStarTree};

/// Work counters of one BBS run.
///
/// `node_accesses` is BBS's I/O currency: each expanded R-tree node is one
/// page read in the paper's accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BbsStats {
    /// R-tree nodes expanded (page reads).
    pub node_accesses: u64,
    /// Entries popped from the priority queue.
    pub entries_popped: u64,
    /// Pairwise dominance tests against the accumulating skyline.
    pub dominance_tests: u64,
    /// Largest frontier (heap) size observed.
    pub peak_heap: usize,
}

/// Result of a BBS run.
#[derive(Clone, Debug)]
pub struct BbsOutput {
    /// The constrained skyline.
    pub skyline: Vec<Point>,
    /// Work counters.
    pub stats: BbsStats,
}

/// Computes the constrained skyline `Sky(S, C)` of the points stored in
/// `tree` (as degenerate boxes).
///
/// # Panics
/// Panics if tree and constraints dimensionality differ.
pub fn bbs_constrained<T>(tree: &RStarTree<T>, c: &Constraints) -> BbsOutput {
    assert_eq!(tree.dims(), c.dims(), "tree/constraints dimensionality mismatch");
    let region = c.aabb().clone();
    let mut skyline: Vec<Point> = Vec::new();
    let mut stats = BbsStats::default();

    // mindist: L1 norm of the lower corner. Any point in a box has a
    // coordinate sum >= the box's mindist, so pops are in non-decreasing
    // potential-dominator order.
    let mut bf = BestFirst::new(tree, |mbr: &Aabb| mbr.lo().iter().sum());

    while let Some((_, popped)) = bf.pop() {
        stats.entries_popped += 1;
        match popped {
            Popped::Node(node, mbr) => {
                if !mbr.intersects(&region) || corner_dominated(&mbr, &skyline, &mut stats) {
                    continue; // prune the whole subtree
                }
                stats.node_accesses += 1;
                bf.expand(node, |child| child.intersects(&region));
                stats.peak_heap = stats.peak_heap.max(bf.frontier_len());
            }
            Popped::Item(mbr, _) => {
                let p = Point::new_unchecked(mbr.lo().to_vec());
                if !c.satisfies(&p) {
                    continue;
                }
                if corner_dominated(mbr, &skyline, &mut stats) {
                    continue;
                }
                skyline.push(p);
            }
        }
    }
    BbsOutput { skyline, stats }
}

/// Whether some skyline point strictly dominates the box's lower corner —
/// the sound subtree-pruning test (if `s ≺ lo` then `s` dominates every
/// point of the box).
fn corner_dominated(mbr: &Aabb, skyline: &[Point], stats: &mut BbsStats) -> bool {
    let corner = mbr.lo();
    for s in skyline {
        stats.dominance_tests += 1;
        if dominates_rows(s.coords(), corner) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmem::{Sfs, SkylineAlgorithm};
    use crate::testutil::sorted;
    use skycache_rtree::RTreeParams;

    fn pseudo_points(n: usize, dims: usize, seed: u64) -> Vec<Point> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Point::from((0..dims).map(|_| next()).collect::<Vec<_>>())).collect()
    }

    fn tree_of(points: &[Point]) -> RStarTree<usize> {
        RStarTree::bulk_load_points(points.iter().cloned().zip(0..), RTreeParams::default())
    }

    fn reference(points: &[Point], c: &Constraints) -> Vec<Point> {
        let constrained: Vec<Point> = points.iter().filter(|p| c.satisfies(p)).cloned().collect();
        Sfs.compute(constrained).skyline
    }

    #[test]
    fn bbs_matches_filter_then_skyline() {
        let points = pseudo_points(1_000, 3, 5);
        let tree = tree_of(&points);
        for (lo, hi) in [(0.1, 0.9), (0.2, 0.5), (0.0, 1.0), (0.45, 0.55)] {
            let c = Constraints::from_pairs(&[(lo, hi); 3]).unwrap();
            let got = sorted(bbs_constrained(&tree, &c).skyline);
            let want = sorted(reference(&points, &c));
            assert_eq!(got, want, "constraints [{lo},{hi}]^3");
        }
    }

    #[test]
    fn bbs_unconstrained_equals_plain_skyline() {
        let points = pseudo_points(500, 2, 9);
        let tree = tree_of(&points);
        let c = Constraints::unbounded(2).unwrap();
        let got = sorted(bbs_constrained(&tree, &c).skyline);
        let want = sorted(Sfs.compute(points).skyline);
        assert_eq!(got, want);
    }

    #[test]
    fn bbs_empty_constraint_region() {
        let points = pseudo_points(200, 2, 3);
        let tree = tree_of(&points);
        let c = Constraints::from_pairs(&[(2.0, 3.0), (2.0, 3.0)]).unwrap();
        let out = bbs_constrained(&tree, &c);
        assert!(out.skyline.is_empty());
        // Root is rejected immediately: no node accesses.
        assert_eq!(out.stats.node_accesses, 0);
    }

    #[test]
    fn bbs_prunes_dominated_subtrees() {
        // With one point at the origin, the rest of the unit cube is
        // dominated: BBS must expand far fewer nodes than the tree holds.
        let mut points = pseudo_points(2_000, 2, 11);
        points.push(Point::from(vec![0.0, 0.0]));
        let tree = tree_of(&points);
        let c = Constraints::unbounded(2).unwrap();
        let out = bbs_constrained(&tree, &c);
        assert_eq!(out.skyline, vec![Point::from(vec![0.0, 0.0])]);
        let total_nodes = 2_001usize.div_ceil(16); // lower bound on leaves
        assert!(
            (out.stats.node_accesses as usize) < total_nodes,
            "expected pruning: {} accesses",
            out.stats.node_accesses
        );
    }

    #[test]
    fn bbs_stats_populated() {
        let points = pseudo_points(300, 3, 17);
        let tree = tree_of(&points);
        let c = Constraints::from_pairs(&[(0.0, 0.8); 3]).unwrap();
        let out = bbs_constrained(&tree, &c);
        assert!(out.stats.entries_popped > 0);
        assert!(out.stats.node_accesses > 0);
        assert!(out.stats.peak_heap > 0);
    }

    #[test]
    fn bbs_on_empty_tree() {
        let tree: RStarTree<usize> = RStarTree::new(2);
        let c = Constraints::unbounded(2).unwrap();
        let out = bbs_constrained(&tree, &c);
        assert!(out.skyline.is_empty());
        assert_eq!(out.stats, BbsStats::default());
    }
}
