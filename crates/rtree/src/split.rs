//! The R\* topological split (Beckmann et al. 1990, §4.2).

use skycache_geom::float::exact_eq;
use skycache_geom::Aabb;

use crate::node::{ChildEntry, LeafEntry};

/// Anything with a minimum bounding rectangle — both entry kinds.
pub(crate) trait HasMbr {
    fn mbr(&self) -> &Aabb;
}

impl<T> HasMbr for LeafEntry<T> {
    fn mbr(&self) -> &Aabb {
        &self.mbr
    }
}

impl<T> HasMbr for ChildEntry<T> {
    fn mbr(&self) -> &Aabb {
        &self.mbr
    }
}

fn bounding<E: HasMbr>(entries: &[E]) -> Aabb {
    let mut acc = entries[0].mbr().clone();
    for e in &entries[1..] {
        acc.merge(e.mbr());
    }
    acc
}

/// Splits an overflowing entry list into two groups, each holding at least
/// `min` entries.
///
/// Axis choice: minimum sum of group margins over all distributions and
/// both sort orders (by lower and by upper coordinate). Distribution
/// choice on that axis: minimum overlap between the two group MBRs,
/// ties broken by minimum combined area.
pub(crate) fn rstar_split<E: HasMbr>(mut entries: Vec<E>, min: usize) -> (Vec<E>, Vec<E>) {
    let total = entries.len();
    assert!(total >= 2 * min, "split needs at least 2*min entries");
    let dims = entries[0].mbr().dims();

    // Pick the axis (and sort key) with minimal margin sum.
    let mut best_axis = 0usize;
    let mut best_by_upper = false;
    let mut best_margin = f64::INFINITY;
    for axis in 0..dims {
        for by_upper in [false, true] {
            sort_entries(&mut entries, axis, by_upper);
            let margin: f64 = distributions(total, min)
                .map(|k| bounding(&entries[..k]).margin() + bounding(&entries[k..]).margin())
                .sum();
            if margin < best_margin {
                best_margin = margin;
                best_axis = axis;
                best_by_upper = by_upper;
            }
        }
    }

    // Pick the distribution on that axis with minimal overlap (tie: area).
    sort_entries(&mut entries, best_axis, best_by_upper);
    let mut best_k = min;
    let mut best_overlap = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for k in distributions(total, min) {
        let (a, b) = (bounding(&entries[..k]), bounding(&entries[k..]));
        let overlap = a.overlap_area(&b);
        let area = a.area() + b.area();
        if overlap < best_overlap || (exact_eq(overlap, best_overlap) && area < best_area) {
            best_overlap = overlap;
            best_area = area;
            best_k = k;
        }
    }

    let right = entries.split_off(best_k);
    (entries, right)
}

fn distributions(total: usize, min: usize) -> impl Iterator<Item = usize> {
    min..=(total - min)
}

fn sort_entries<E: HasMbr>(entries: &mut [E], axis: usize, by_upper: bool) {
    entries.sort_by(|a, b| {
        let (ka, kb) = if by_upper {
            (a.mbr().hi()[axis], b.mbr().hi()[axis])
        } else {
            (a.mbr().lo()[axis], b.mbr().lo()[axis])
        };
        ka.total_cmp(&kb)
    });
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact expectations on exactly computed values")]
mod tests {
    use super::*;

    fn leaf(lo: [f64; 2], hi: [f64; 2]) -> LeafEntry<usize> {
        LeafEntry { mbr: Aabb::new(lo.to_vec(), hi.to_vec()).unwrap(), value: 0 }
    }

    #[test]
    fn split_separates_clusters() {
        // Two well-separated clusters of 3 points each must split cleanly.
        let entries = vec![
            leaf([0.0, 0.0], [1.0, 1.0]),
            leaf([0.5, 0.5], [1.5, 1.5]),
            leaf([0.2, 0.8], [0.9, 1.2]),
            leaf([10.0, 10.0], [11.0, 11.0]),
            leaf([10.5, 10.2], [11.5, 11.0]),
            leaf([10.1, 10.8], [10.9, 11.6]),
        ];
        let (a, b) = rstar_split(entries, 2);
        assert_eq!(a.len() + b.len(), 6);
        assert!(a.len() >= 2 && b.len() >= 2);
        let (ba, bb) = (bounding(&a), bounding(&b));
        assert_eq!(ba.overlap_area(&bb), 0.0, "clusters must not overlap");
    }

    #[test]
    fn split_respects_min_fill() {
        let entries: Vec<_> =
            (0..10).map(|i| leaf([i as f64, 0.0], [i as f64 + 0.5, 1.0])).collect();
        let (a, b) = rstar_split(entries, 4);
        assert!(a.len() >= 4 && b.len() >= 4);
        assert_eq!(a.len() + b.len(), 10);
    }
}
