use skycache_geom::Interval;

use crate::table::RowId;

/// A read-optimized single-dimension index: the B-tree stand-in.
///
/// Keys are stored as a sorted `(key, row)` array; range location is two
/// binary searches (`O(log n)`), mirroring a B-tree descent, and the rows
/// of a range are a contiguous slice, mirroring a leaf scan.
#[derive(Clone, Debug)]
pub struct ColumnIndex {
    /// Sorted keys.
    keys: Vec<f64>,
    /// Row ids parallel to `keys`.
    rows: Vec<RowId>,
}

impl ColumnIndex {
    /// Builds the index of one dimension from the `(key, row)` entries of
    /// the rows it should cover (a table passes its live rows only).
    pub fn build(entries: impl Iterator<Item = (f64, RowId)>) -> Self {
        let mut pairs: Vec<(f64, RowId)> = entries.collect();
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        ColumnIndex {
            keys: pairs.iter().map(|p| p.0).collect(),
            rows: pairs.iter().map(|p| p.1).collect(),
        }
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Half-open position range `[start, end)` of keys inside `iv`.
    ///
    /// Keys are sorted by `total_cmp`, so the binary-search predicates must
    /// compare in the same order — mixing numeric `<`/`<=` with a
    /// total-order sort can land a boundary in the middle of a
    /// `-0.0`/`0.0` run. To keep *numeric* range semantics (the interval
    /// bound `0.0` must admit `-0.0` keys and vice versa), each finite
    /// bound is first normalized to the zero of the appropriate sign.
    pub(crate) fn locate(&self, iv: &Interval) -> (usize, usize) {
        let start = if iv.lo() == f64::NEG_INFINITY {
            0
        } else if iv.lo_open() {
            // Exclude everything numerically equal to `lo`: for a zero
            // bound that means both zero signs, so compare against `0.0`.
            let lo = norm_up(iv.lo());
            self.keys.partition_point(|&k| k.total_cmp(&lo).is_le())
        } else {
            // Include everything numerically equal to `lo`: compare
            // against `-0.0` so `-0.0` keys survive a `0.0` bound.
            let lo = norm_down(iv.lo());
            self.keys.partition_point(|&k| k.total_cmp(&lo).is_lt())
        };
        let end = if iv.hi() == f64::INFINITY {
            self.keys.len()
        } else if iv.hi_open() {
            let hi = norm_down(iv.hi());
            self.keys.partition_point(|&k| k.total_cmp(&hi).is_lt())
        } else {
            let hi = norm_up(iv.hi());
            self.keys.partition_point(|&k| k.total_cmp(&hi).is_le())
        };
        (start, end.max(start))
    }

    /// The key at sorted position `pos`.
    #[inline]
    pub(crate) fn key_at(&self, pos: usize) -> f64 {
        self.keys[pos]
    }

    /// Row ids at sorted-key positions `[start, end)`.
    #[inline]
    pub(crate) fn rows_at(&self, start: usize, end: usize) -> &[RowId] {
        &self.rows[start..end]
    }

    /// All `(key, row)` entries in key order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (f64, RowId)> + '_ {
        self.keys.iter().copied().zip(self.rows.iter().copied())
    }

    /// The `parts - 1` keys that cut the sorted keys into `parts` runs of
    /// equal length (fewer when the index is empty; repeated when a key
    /// run spans a cut): the bucket sketch's split values.
    pub(crate) fn quantile_keys(&self, parts: usize) -> Vec<f64> {
        (1..parts).filter_map(|i| self.keys.get(i * self.keys.len() / parts).copied()).collect()
    }

    /// Inserts a `(key, row)` entry, keeping keys sorted (`O(n)` memmove,
    /// like a B-tree leaf insert without node splits — adequate for the
    /// moderate update rates of the dynamic-data extension).
    pub fn insert(&mut self, key: f64, row: RowId) {
        debug_assert!(!key.is_nan());
        // total_cmp, not `<`: a numeric predicate would file `0.0` before
        // an existing `-0.0` and silently break the total sort order that
        // `build` established (and that `locate` relies on).
        let pos = self.keys.partition_point(|&k| k.total_cmp(&key).is_lt());
        self.keys.insert(pos, key);
        self.rows.insert(pos, row);
    }

    /// Removes the entry for `(key, row)`. Returns whether it existed.
    pub fn remove(&mut self, key: f64, row: RowId) -> bool {
        // The run of numerically equal keys can mix `-0.0` and `0.0`;
        // normalize the bounds so the scan covers the whole run.
        let lo = norm_down(key);
        let hi = norm_up(key);
        let start = self.keys.partition_point(|&k| k.total_cmp(&lo).is_lt());
        let end = self.keys.partition_point(|&k| k.total_cmp(&hi).is_le());
        for i in start..end {
            if self.rows[i] == row {
                self.keys.remove(i);
                self.rows.remove(i);
                return true;
            }
        }
        false
    }
}

/// `±0.0` → `-0.0`, the `total_cmp`-smaller zero; other values unchanged.
#[inline]
fn norm_down(v: f64) -> f64 {
    if v == 0.0 {
        -0.0
    } else {
        v
    }
}

/// `±0.0` → `0.0`, the `total_cmp`-larger zero; other values unchanged.
#[inline]
fn norm_up(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An index over `keys`, row ids in slice order.
    fn index_of(keys: &[f64]) -> ColumnIndex {
        ColumnIndex::build(keys.iter().copied().zip(0..))
    }

    /// Sorted keys `[1, 3, 3, 5, 9]` held by rows `[1, {2, 3}, 0, 4]`.
    fn idx() -> ColumnIndex {
        index_of(&[5.0, 1.0, 3.0, 3.0, 9.0])
    }

    /// The rows at the positions `locate` finds for `iv`, sorted (the
    /// order between equal keys is unspecified).
    fn rows(i: &ColumnIndex, iv: &Interval) -> Vec<RowId> {
        let (start, end) = i.locate(iv);
        let mut rows = i.rows_at(start, end).to_vec();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn build_sorts_keys() {
        let i = idx();
        assert_eq!(i.len(), 5);
        assert_eq!((0..5).map(|p| i.key_at(p)).collect::<Vec<_>>(), [1.0, 3.0, 3.0, 5.0, 9.0]);
    }

    #[test]
    fn count_closed_range() {
        let i = idx();
        assert_eq!(i.locate(&Interval::closed(3.0, 5.0)), (1, 4));
        assert_eq!(i.locate(&Interval::closed(0.0, 10.0)), (0, 5));
        assert_eq!(i.locate(&Interval::closed(6.0, 8.0)), (4, 4));
    }

    #[test]
    fn open_endpoints_exclude_keys() {
        let i = idx();
        assert_eq!(i.locate(&Interval::new(3.0, 5.0, true, false)), (3, 4)); // only 5
        assert_eq!(i.locate(&Interval::new(3.0, 5.0, false, true)), (1, 3)); // the 3s
        assert_eq!(i.locate(&Interval::new(3.0, 3.0, true, true)), (3, 3));
    }

    #[test]
    fn unbounded_ranges() {
        let i = idx();
        assert_eq!(i.locate(&Interval::closed(f64::NEG_INFINITY, f64::INFINITY)), (0, 5));
        assert_eq!(i.locate(&Interval::closed(f64::NEG_INFINITY, 3.0)), (0, 3));
        assert_eq!(i.locate(&Interval::closed(5.0, f64::INFINITY)), (3, 5));
    }

    #[test]
    fn rows_in_returns_matching_rows() {
        // Rows 2 and 3 hold key 3.0.
        assert_eq!(rows(&idx(), &Interval::closed(3.0, 3.0)), vec![2, 3]);
    }

    #[test]
    fn insert_keeps_sorted_order() {
        let mut i = idx();
        i.insert(4.0, 9);
        assert_eq!(i.len(), 6);
        assert_eq!(i.locate(&Interval::closed(3.5, 4.5)), (3, 4));
        assert_eq!(rows(&i, &Interval::closed(4.0, 4.0)), vec![9]);
        i.insert(0.5, 10);
        assert_eq!((i.key_at(0), i.key_at(6)), (0.5, 9.0));
    }

    #[test]
    fn remove_targets_exact_entry() {
        let mut i = idx();
        // Two rows hold key 3.0; remove only row 3.
        assert!(i.remove(3.0, 3));
        assert_eq!(rows(&i, &Interval::closed(3.0, 3.0)), vec![2]);
        // Removing a non-existent pairing is a no-op.
        assert!(!i.remove(3.0, 99));
        assert!(!i.remove(77.0, 2));
        assert_eq!(i.len(), 4);
    }

    #[test]
    fn signed_zeros_keep_numeric_range_semantics() {
        // total_cmp sorts -0.0 before 0.0; numerically they are equal, so
        // every range bound of either zero sign must treat the whole run
        // of zeros as one key value. Sorted: -1 (row 3), -0 (row 0),
        // 0 (row 2), 2 (row 1).
        let i = index_of(&[-0.0, 2.0, 0.0, -1.0]);
        assert_eq!(i.locate(&Interval::closed(0.0, 0.0)), (1, 3));
        assert_eq!(i.locate(&Interval::closed(-0.0, 0.0)), (1, 3));
        assert_eq!(i.locate(&Interval::closed(-1.0, -0.0)), (0, 3));
        // Open bounds exclude both zero signs...
        assert_eq!(i.locate(&Interval::new(0.0, 2.0, true, false)), (3, 4));
        assert_eq!(i.locate(&Interval::new(-1.0, -0.0, false, true)), (0, 1));
        // ...and never split the zero run down the middle.
        assert_eq!(i.locate(&Interval::new(-0.0, f64::INFINITY, true, false)), (3, 4));
        assert_eq!(rows(&i, &Interval::closed(0.0, 0.0)), vec![0, 2]);
    }

    #[test]
    fn insert_mixed_zero_signs_keeps_total_order() {
        let mut i = index_of(&[]);
        // A numeric `<` insert predicate would place 0.0 *before* an
        // existing -0.0, breaking the total_cmp sort order.
        i.insert(-0.0, 1);
        i.insert(0.0, 2);
        i.insert(-0.0, 3);
        i.insert(-1.0, 4);
        assert_eq!(i.locate(&Interval::closed(-1.0, 0.0)), (0, 4));
        assert_eq!(rows(&i, &Interval::closed(0.0, 0.0)), vec![1, 2, 3]);
        // remove() must find a row anywhere in the mixed-sign zero run.
        assert!(i.remove(0.0, 1));
        assert!(i.remove(-0.0, 2));
        assert_eq!(i.locate(&Interval::closed(0.0, 0.0)), (1, 2));
        assert_eq!(rows(&i, &Interval::closed(-0.0, -0.0)), vec![3]);
    }

    #[test]
    fn empty_index() {
        let i = index_of(&[]);
        assert!(i.is_empty());
        assert_eq!(i.locate(&Interval::closed(0.0, 1.0)), (0, 0));
        assert!(i.quantile_keys(128).is_empty());
    }

    #[test]
    fn quantile_keys_cut_equal_runs() {
        let keys: Vec<f64> = (0..256).rev().map(f64::from).collect();
        assert_eq!(index_of(&keys).quantile_keys(4), vec![64.0, 128.0, 192.0]);
        // Fewer keys than parts: cuts repeat, ascending all the same.
        assert_eq!(idx().quantile_keys(8), vec![1.0, 3.0, 3.0, 3.0, 5.0, 5.0, 9.0]);
    }
}
