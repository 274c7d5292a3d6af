//! Property-based tests for the R\*-tree: dynamic operation sequences must
//! preserve structural invariants and query correctness.

use proptest::prelude::*;
use skycache_geom::{Aabb, Point};
use skycache_rtree::{RStarTree, RTreeParams};

#[derive(Clone, Debug)]
enum Op {
    Insert(u8, u8),
    Remove(u8, u8),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            ((0..30u8), (0..30u8)).prop_map(|(x, y)| Op::Insert(x, y)),
            ((0..30u8), (0..30u8)).prop_map(|(x, y)| Op::Remove(x, y)),
        ],
        0..120,
    )
}

fn pt_box(x: u8, y: u8) -> Aabb {
    Aabb::from_point(&Point::from(vec![f64::from(x), f64::from(y)]))
}

fn apply(tree: &mut RStarTree<(u8, u8)>, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Insert(x, y) => tree.insert(pt_box(x, y), (x, y)),
            Op::Remove(x, y) => drop(tree.remove(&pt_box(x, y), |&p| p == (x, y))),
        }
    }
}

/// Every entry in visiting order — equal lists mean equal tree shapes.
fn entries(tree: &RStarTree<(u8, u8)>) -> Vec<(Aabb, (u8, u8))> {
    tree.iter().map(|(b, &v)| (b.clone(), v)).collect()
}

proptest! {
    /// A random insert/remove sequence, mirrored against a Vec model:
    /// the tree and the model agree on every window query, and structural
    /// invariants hold throughout.
    #[test]
    fn tree_matches_model(ops in ops(), wx in 0..30u8, wy in 0..30u8, ww in 1..15u8, wh in 1..15u8) {
        let mut tree: RStarTree<(u8, u8)> = RStarTree::new(2);
        let mut model: Vec<(u8, u8)> = Vec::new();
        for op in &ops {
            match *op {
                Op::Insert(x, y) => {
                    tree.insert(pt_box(x, y), (x, y));
                    model.push((x, y));
                }
                Op::Remove(x, y) => {
                    let in_model = model.iter().position(|&p| p == (x, y));
                    let removed = tree.remove(&pt_box(x, y), |&p| p == (x, y));
                    match in_model {
                        Some(i) => {
                            prop_assert!(removed.is_some());
                            model.swap_remove(i);
                        }
                        None => prop_assert!(removed.is_none()),
                    }
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }
        tree.check_invariants();

        let window = Aabb::new(
            vec![f64::from(wx), f64::from(wy)],
            vec![f64::from(wx + ww), f64::from(wy + wh)],
        ).unwrap();
        let mut got: Vec<(u8, u8)> = Vec::new();
        tree.for_each_in(&window, |_, &v| got.push(v));
        let mut want: Vec<(u8, u8)> = model
            .iter()
            .filter(|&&(x, y)| window.contains_point(&Point::from(vec![f64::from(x), f64::from(y)])))
            .copied()
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Structural sharing: a clone shares every node with its original,
    /// so mutating one copy must leave the other exactly as it was, and
    /// must build exactly the tree a never-shared copy would have built.
    /// Small nodes make even short sequences split, reinsert and condense
    /// several levels deep.
    #[test]
    fn mutating_a_clone_leaves_the_original_untouched(before in ops(), after in ops()) {
        let params = RTreeParams { max_entries: 4, min_entries: 2, reinsert_count: 1 };
        let mut original: RStarTree<(u8, u8)> = RStarTree::with_params(2, params);
        apply(&mut original, &before);
        let frozen = entries(&original);

        let mut copy = original.clone();
        apply(&mut copy, &after);

        prop_assert_eq!(entries(&original), frozen);
        original.check_invariants();
        copy.check_invariants();

        let mut scratch: RStarTree<(u8, u8)> = RStarTree::with_params(2, params);
        apply(&mut scratch, &before);
        apply(&mut scratch, &after);
        prop_assert_eq!(entries(&copy), entries(&scratch));
        prop_assert_eq!(copy.height(), scratch.height());
    }

    /// Bulk loading N points yields the same query results as inserting
    /// them one by one, and both satisfy the invariants.
    #[test]
    fn bulk_equals_incremental(coords in prop::collection::vec((0..50u8, 0..50u8), 1..200)) {
        let points: Vec<(Point, usize)> = coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Point::from(vec![f64::from(x), f64::from(y)]), i))
            .collect();
        let bulk = RStarTree::bulk_load_points(points.clone(), RTreeParams::default());
        bulk.check_invariants();

        let mut incr: RStarTree<usize> = RStarTree::new(2);
        for (p, v) in &points {
            incr.insert(Aabb::from_point(p), *v);
        }
        incr.check_invariants();

        let window = Aabb::new(vec![10.0, 10.0], vec![35.0, 35.0]).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        bulk.for_each_in(&window, |_, &v| a.push(v));
        incr.for_each_in(&window, |_, &v| b.push(v));
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// `for_each_equal` against a linear scan of `iter()`: after a random
    /// insert / remove sequence over a few small boxes — so most boxes are
    /// stored several times, under distinct values, and the tree (small
    /// nodes) is several levels deep — every stored box, its spelling
    /// with negative zeros, and a box that may be absent each yield
    /// exactly the values the scan finds.
    #[test]
    fn for_each_equal_matches_a_linear_scan(
        ops in prop::collection::vec(
            (any::<bool>(), 0..4u8, 0..4u8, 0..3u8, 0..3u8),
            0..160,
        ),
        absent in (0..4u8, 0..4u8, 0..3u8, 0..3u8),
    ) {
        let boxed = |(x, y, w, h): (u8, u8, u8, u8), zero: f64| {
            let at = |v: u8| if v == 0 { zero } else { f64::from(v) };
            Aabb::new(vec![at(x), at(y)], vec![at(x + w), at(y + h)]).unwrap()
        };
        let params = RTreeParams { max_entries: 4, min_entries: 2, reinsert_count: 1 };
        let mut tree: RStarTree<usize> = RStarTree::with_params(2, params);
        for (seq, &(insert, x, y, w, h)) in ops.iter().enumerate() {
            let b = boxed((x, y, w, h), 0.0);
            if insert {
                tree.insert(b, seq);
            } else {
                tree.remove(&b, |_| true);
            }
        }
        tree.check_invariants();

        let stored = ops.iter().map(|&(_, x, y, w, h)| (x, y, w, h));
        for key in stored.chain([absent]) {
            let mut want: Vec<usize> = tree
                .iter()
                .filter(|(b, _)| **b == boxed(key, 0.0))
                .map(|(_, &v)| v)
                .collect();
            want.sort_unstable();
            for zero in [0.0, -0.0] {
                let mut got = Vec::new();
                tree.for_each_equal(&boxed(key, zero), |&v| got.push(v));
                got.sort_unstable();
                prop_assert_eq!(&got, &want);
            }
        }
    }
}
