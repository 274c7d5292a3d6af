//! Randomized insert/delete stress of the R*-tree, checked against its invariants.

use skycache_geom::{Aabb, Point};
use skycache_rtree::{RStarTree, RTreeParams};

fn main() {
    // small params to force frequent splits/underflows
    let params = RTreeParams { max_entries: 4, min_entries: 2, reinsert_count: 1 };
    let mut state: u64 = 0x9E3779B97F4A7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for dims in [1usize, 2, 3] {
        let mut t: RStarTree<u64> = RStarTree::with_params(dims, params);
        let mut live: Vec<(Vec<f64>, u64)> = Vec::new();
        for step in 0..20000u64 {
            let r = next();
            if r % 3 != 0 || live.is_empty() {
                // insert, with heavy duplicates
                let coords: Vec<f64> = (0..dims).map(|_| (next() % 7) as f64).collect();
                t.insert(Aabb::from_point(&Point::from(coords.clone())), step);
                live.push((coords, step));
            } else {
                let idx = (next() as usize) % live.len();
                let (coords, id) = live.swap_remove(idx);
                let got = t.remove(&Aabb::from_point(&Point::from(coords.clone())), |&v| v == id);
                assert_eq!(got, Some(id), "dims={dims} step={step}");
            }
            if step % 997 == 0 {
                t.check_invariants();
            }
        }
        t.check_invariants();
        assert_eq!(t.len(), live.len());
        // verify search completeness
        for (coords, id) in &live {
            let mut found = false;
            t.for_each_in(&Aabb::from_point(&Point::from(coords.clone())), |_, v| found |= v == id);
            assert!(found, "missing {id}");
        }
        println!("dims {dims} ok, len {}", t.len());
    }
}
