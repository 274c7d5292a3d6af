//! The bucket sketch: one packed `u64` per heap slot, consulted by the
//! candidate walk of [`Table::fetch_plan_into`](crate::Table::fetch_plan_into)
//! *before* it dereferences the row (DESIGN.md §12, "The bucket sketch").
//!
//! Byte lane `j` of a row's word is the 7-bit equi-depth bucket of its
//! coordinate `j`, for the first `min(dims, 8)` dimensions. A region maps
//! to a [`BucketBox`] once per fetch, and one SWAR expression tests every
//! lane of a candidate at once. The test is conservative — bucketing is
//! monotone in numeric order, so a row inside the region is always inside
//! the box — and the exact `contains_coords` post-filter still decides
//! every emitted row: the sketch only keeps the walk from touching heap
//! rows it would reject.

use skycache_geom::Interval;

use crate::index::ColumnIndex;
use crate::table::RowId;

/// Sketched dimensions: one byte lane of the word each. Dimensions past
/// the eighth are left to the exact post-filter.
const LANES: usize = 8;
/// Buckets per lane: seven bits, so bit 7 of every lane is free to guard
/// the lane-wise subtractions of [`BucketBox::admits`].
const BUCKETS: usize = 128;
/// Bit 7 of every lane.
const GUARD: u64 = 0x8080_8080_8080_8080;

/// A region in bucket space: lane `j` of `lo` / `hi` is the bucket of the
/// region's lower / upper bound on dimension `j`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BucketBox {
    lo: u64,
    hi: u64,
}

impl BucketBox {
    /// Whether every lane of `word` lies in `lo..=hi`. With the guard bit
    /// set in the minuend and every operand lane below 128, no lane ever
    /// borrows from its neighbour, and a lane keeps its guard bit exactly
    /// when its difference is non-negative.
    #[inline]
    pub(crate) fn admits(self, word: u64) -> bool {
        (((word | GUARD) - self.lo) & ((self.hi | GUARD) - word) & GUARD) == GUARD
    }
}

/// Per-lane split values plus one bucket word per heap slot.
#[derive(Clone, Debug)]
pub(crate) struct Sketch {
    /// Per sketched dimension, its (at most 127) ascending split values:
    /// equi-depth quantiles of the dimension's index keys when the table
    /// was built or loaded, frozen afterwards — later inserts are bucketed
    /// by the same splits, so words never need rewriting.
    splits: Vec<Vec<f64>>,
    /// One word per heap slot, in row-id order: the walk reads
    /// `words[row]` for row ids coming out of an index slice, whichever
    /// dimension's index that is.
    words: Vec<u64>,
}

impl Sketch {
    /// Splits from the sorted index keys, then the words lane by lane in
    /// one pass over each index: keys arrive ascending, so the bucket — the
    /// number of splits `<=` the key, as in [`Sketch::pack`] — only ever
    /// advances. Tombstoned slots keep a zero word; no index leads to them.
    pub(crate) fn build(indexes: &[ColumnIndex], slots: usize) -> Self {
        let splits: Vec<Vec<f64>> =
            indexes.iter().take(LANES).map(|index| index.quantile_keys(BUCKETS)).collect();
        let mut words = vec![0u64; slots];
        for (lane, (index, splits)) in indexes.iter().zip(&splits).enumerate() {
            let mut bucket = 0;
            for (key, row) in index.entries() {
                while splits.get(bucket).is_some_and(|&s| s <= key) {
                    bucket += 1;
                }
                words[row as usize] |= (bucket as u64) << (8 * lane);
            }
        }
        Sketch { splits, words }
    }

    /// Packs one value per sketched dimension into a word. A value's
    /// bucket is the number of splits `<=` it: monotone in numeric order,
    /// equal for `-0.0` and `0.0`, `0` for `-inf` and the lane's maximum
    /// for `+inf`.
    fn pack(&self, value_of: impl Fn(usize) -> f64) -> u64 {
        self.splits.iter().enumerate().fold(0, |word, (lane, splits)| {
            let value = value_of(lane);
            word | (splits.partition_point(|&s| s <= value) as u64) << (8 * lane)
        })
    }

    /// Appends the word of a new heap slot.
    pub(crate) fn push(&mut self, coords: &[f64]) {
        let word = self.pack(|lane| coords[lane]);
        self.words.push(word);
    }

    /// The bucket word of heap slot `row`.
    #[inline]
    pub(crate) fn word(&self, row: RowId) -> u64 {
        self.words[row as usize]
    }

    /// The bucket box of `region`. Conservative for open, closed and
    /// infinite bounds alike: `lo <= c <= hi` numerically implies
    /// `bucket(lo) <= bucket(c) <= bucket(hi)`.
    pub(crate) fn region_box(&self, region: &[Interval]) -> BucketBox {
        BucketBox {
            lo: self.pack(|lane| region[lane].lo()),
            hi: self.pack(|lane| region[lane].hi()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-lane scalar definition `admits` must agree with.
    fn admits_scalar(lo: u64, hi: u64, word: u64) -> bool {
        (0..LANES).all(|lane| {
            let byte = |v: u64| (v >> (8 * lane)) & 0xff;
            byte(lo) <= byte(word) && byte(word) <= byte(hi)
        })
    }

    /// Exhaustive over one lane, at both ends of the word so a borrow out
    /// of lane 0 or into lane 7 would show. Runs with overflow checks on
    /// (debug profile; CI's `checked-test` job), which is what proves the
    /// guarded subtractions never wrap.
    #[test]
    fn admits_matches_scalar_definition_exhaustively_on_one_lane() {
        for shift in [0, 56] {
            for lo in 0..BUCKETS as u64 {
                for hi in 0..BUCKETS as u64 {
                    let bbox = BucketBox { lo: lo << shift, hi: hi << shift };
                    for w in 0..BUCKETS as u64 {
                        assert_eq!(bbox.admits(w << shift), lo <= w && w <= hi, "{lo} {w} {hi}");
                    }
                }
            }
        }
    }

    #[test]
    fn admits_matches_scalar_definition_on_random_words() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut admitted = 0;
        for round in 0..200_000 {
            // Every lane a bucket in 0..128; every other round the box is
            // drawn around the word so that admissions are exercised too.
            let [mut lo, mut hi, mut word] = [0u64; 3];
            for lane in 0..LANES {
                let w = rng.gen_range(0..BUCKETS as u64);
                let (a, b) = if round % 2 == 0 {
                    (rng.gen_range(0..BUCKETS as u64), rng.gen_range(0..BUCKETS as u64))
                } else {
                    (rng.gen_range(0..=w), rng.gen_range(w..BUCKETS as u64))
                };
                // One lane in sixteen is a near miss among admitting lanes:
                // its lower bound sits one above the word.
                let a = if rng.gen_range(0..16) == 0 { (w + 1).min(127) } else { a };
                lo |= a << (8 * lane);
                hi |= b << (8 * lane);
                word |= w << (8 * lane);
            }
            let got = BucketBox { lo, hi }.admits(word);
            assert_eq!(got, admits_scalar(lo, hi, word), "{lo:016x} {word:016x} {hi:016x}");
            admitted += u32::from(got);
        }
        assert!(admitted > 10_000, "only {admitted} admissions exercised");
    }

    #[test]
    fn buckets_are_monotone_and_fold_signed_zeros() {
        // Lane 0: 600 distinct keys; lane 1: a constant column.
        let keys = (-300..300).map(|i| f64::from(i) / 100.0);
        let indexes =
            [ColumnIndex::build(keys.zip(0..)), ColumnIndex::build((0..600).map(|row| (0.0, row)))];
        let sketch = Sketch::build(&indexes, 600);
        let bucket = |v: f64| sketch.pack(|lane| if lane == 0 { v } else { 0.0 }) & 0xff;
        assert_eq!(bucket(f64::NEG_INFINITY), 0);
        assert_eq!(bucket(f64::INFINITY), 127);
        assert_eq!(bucket(-0.0), bucket(0.0));
        let probes = [-9.0, -3.0, -1.5, -0.01, -0.0, 0.0, 0.01, 0.99, 1.0, 2.99, 7.0];
        assert!(probes.windows(2).all(|w| bucket(w[0]) <= bucket(w[1])));
        // A constant column has one repeated split: two buckets at most.
        assert!(sketch.words.iter().all(|w| (w >> 8) & 0xff == 127));
    }
}
