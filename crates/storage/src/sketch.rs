//! The bucket sketch: one packed `u32` per index position, consulted by
//! the candidate walk of [`Table::fetch_plan_into`](crate::Table::fetch_plan_into)
//! *before* it dereferences the row (DESIGN.md §12, "The bucket sketch").
//!
//! Index `k`'s word at a position holds the equi-depth buckets of that
//! entry's row on the other dimensions, one lane of `L` bits each — the
//! position range already decides dimension `k` exactly. A region maps to
//! a [`BucketBox`] per chosen dimension, and one SWAR expression tests
//! every lane of a candidate at once. The test is conservative —
//! bucketing is monotone in numeric order, so a row inside the region is
//! always inside the box — and the exact `rect::contains` post-filter
//! still decides every emitted row: the sketch only keeps the walk from
//! touching heap rows it would reject.

use skycache_geom::Interval;

use crate::index::ColumnIndex;

/// The lane width `L` in bits for `dims` dimensions: the `dims − 1` other
/// dimensions share the word's 32 bits, between 4 and 8 each. Each lane is
/// an `(L − 1)`-bit bucket under a guard bit.
fn lane_bits(dims: usize) -> u32 {
    (32 / dims.saturating_sub(1).max(1)).clamp(4, 8) as u32
}

/// A region in bucket space for one chosen dimension: each lane of `lo` /
/// `hi` is the bucket of the region's lower / upper bound on that lane's
/// dimension, and `guard` has the top bit of every used lane set.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BucketBox {
    lo: u32,
    hi: u32,
    guard: u32,
}

impl BucketBox {
    /// Whether every lane of `word` lies in `lo..=hi`. With the guard bit
    /// set in the minuend and every operand lane below it, no lane ever
    /// borrows from its neighbour, and a lane keeps its guard bit exactly
    /// when its difference is non-negative. No used lane (`dims = 1`):
    /// every word is admitted.
    #[inline]
    pub(crate) fn admits(self, word: u32) -> bool {
        (((word | self.guard) - self.lo) & ((self.hi | self.guard) - word) & self.guard)
            == self.guard
    }
}

/// Per-dimension split values and the lane layout of the words each
/// [`ColumnIndex`] holds in position order.
#[derive(Clone, Debug)]
pub(crate) struct Sketch {
    /// Lane width `L` in bits.
    bits: u32,
    /// Lanes per word: the first `⌊32 / L⌋` other dimensions get one; the
    /// exact filter decides the rest.
    lanes: usize,
    /// The guard bit of every used lane.
    guard: u32,
    /// Per dimension, its (at most `2^(L−1) − 1`) ascending split values:
    /// equi-depth quantiles of the dimension's index keys when the table
    /// was built or loaded, frozen afterwards — later inserts are bucketed
    /// by the same splits, so words never need rewriting.
    splits: Vec<Vec<f64>>,
}

impl Sketch {
    /// Splits from the sorted index keys, then every index's words. One
    /// bucket pass over each index fills a temporary per-row table — keys
    /// arrive ascending, so the bucket, the number of splits `<=` the key
    /// as in [`Sketch::bucket`], only ever advances — and each index then
    /// gathers its words from it.
    pub(crate) fn build(indexes: &mut [ColumnIndex], slots: usize) -> Self {
        let dims = indexes.len();
        let bits = lane_bits(dims);
        let lanes = dims.saturating_sub(1).min((32 / bits) as usize);
        let sketch = Sketch {
            bits,
            lanes,
            guard: (0..lanes as u32).fold(0, |g, lane| g | 1 << (lane * bits + bits - 1)),
            splits: indexes.iter().map(|index| index.quantile_keys(1 << (bits - 1))).collect(),
        };
        let mut buckets = vec![0u8; slots * dims];
        for (dim, (index, splits)) in indexes.iter().zip(&sketch.splits).enumerate() {
            let mut bucket = 0;
            for (key, row) in index.entries() {
                while splits.get(bucket).is_some_and(|&s| s <= key) {
                    bucket += 1;
                }
                buckets[row as usize * dims + dim] = bucket as u8;
            }
        }
        for (own, index) in indexes.iter_mut().enumerate() {
            let lanes: Vec<(usize, u32)> = sketch.lanes(own).collect();
            index.fill_words(|row| {
                let row = &buckets[row as usize * dims..][..dims];
                lanes.iter().fold(0, |word, &(dim, shift)| word | u32::from(row[dim]) << shift)
            });
        }
        sketch
    }

    /// The bucket of `value` on dimension `dim`: the number of splits `<=`
    /// it. Monotone in numeric order, equal for `-0.0` and `0.0`, `0` for
    /// `-inf` and the top bucket for `+inf`.
    fn bucket(&self, dim: usize, value: f64) -> u32 {
        self.splits[dim].partition_point(|&s| s <= value) as u32
    }

    /// The `(dimension, shift)` of each lane of index `own`'s words: the
    /// dimensions other than `own`, in order, lane `i` at bit `i · L`.
    fn lanes(&self, own: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        let others = (0..self.splits.len()).filter(move |&dim| dim != own).take(self.lanes);
        others.zip((0..).step_by(self.bits as usize))
    }

    /// Packs `bucket_of` each lane's dimension into a word of index `own`.
    fn pack(&self, own: usize, bucket_of: impl Fn(usize) -> u32) -> u32 {
        self.lanes(own).fold(0, |word, (dim, shift)| word | bucket_of(dim) << shift)
    }

    /// The word of a row with `coords` in index `own`.
    pub(crate) fn word(&self, own: usize, coords: &[f64]) -> u32 {
        self.pack(own, |dim| self.bucket(dim, coords[dim]))
    }

    /// The bucket box of `region` for the words of index `own`.
    /// Conservative for open, closed and infinite bounds alike:
    /// `lo <= c <= hi` numerically implies
    /// `bucket(lo) <= bucket(c) <= bucket(hi)`.
    pub(crate) fn region_box(&self, own: usize, region: &[Interval]) -> BucketBox {
        BucketBox {
            lo: self.pack(own, |dim| self.bucket(dim, region[dim].lo())),
            hi: self.pack(own, |dim| self.bucket(dim, region[dim].hi())),
            guard: self.guard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The layout the lane rule gives `dims` dimensions: `(L, lanes,
    /// guard)`, from a sketch over empty indexes.
    fn layout(dims: usize) -> (u32, usize, u32) {
        let mut indexes: Vec<ColumnIndex> =
            (0..dims).map(|_| ColumnIndex::build(std::iter::empty())).collect();
        let sketch = Sketch::build(&mut indexes, 0);
        (sketch.bits, sketch.lanes, sketch.guard)
    }

    /// One representative dimensionality per lane width the rule yields.
    const WIDTHS: [(usize, u32); 4] = [(5, 8), (6, 6), (7, 5), (9, 4)];

    #[test]
    fn the_lane_rule() {
        let rule: Vec<_> = (1..=12).map(|d| layout(d).0 * 100 + layout(d).1 as u32).collect();
        assert_eq!(rule, [800, 801, 802, 803, 804, 605, 506, 407, 408, 408, 408, 408]);
        for dims in 1..=20 {
            let (bits, lanes, guard) = layout(dims);
            assert!(lanes as u32 * bits <= 32 && guard.count_ones() == lanes as u32);
        }
        assert_eq!(layout(5).2, 0x8080_8080);
        assert_eq!(layout(1).2, 0);
    }

    /// The per-lane scalar definition `admits` must agree with.
    fn admits_scalar(bits: u32, lanes: usize, lo: u32, hi: u32, word: u32) -> bool {
        (0..lanes as u32).all(|lane| {
            let bucket = |v: u32| (v >> (lane * bits)) & ((1 << bits) - 1);
            bucket(lo) <= bucket(word) && bucket(word) <= bucket(hi)
        })
    }

    /// Exhaustive over one lane for every lane width, at the lowest and
    /// the highest used lane so a borrow out of lane 0 or out of the top
    /// lane would show. Runs with overflow checks on (debug profile; CI's
    /// `checked-test` job), which is what proves the guarded subtractions
    /// never wrap.
    #[test]
    fn admits_matches_scalar_definition_exhaustively_on_one_lane() {
        for (dims, bits) in WIDTHS {
            let (_, lanes, guard) = layout(dims);
            let buckets = 1u32 << (bits - 1);
            for shift in [0, (lanes as u32 - 1) * bits] {
                for lo in 0..buckets {
                    for hi in 0..buckets {
                        let bbox = BucketBox { lo: lo << shift, hi: hi << shift, guard };
                        for w in 0..buckets {
                            let got = bbox.admits(w << shift);
                            assert_eq!(got, lo <= w && w <= hi, "L={bits} {lo} {w} {hi}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn admits_matches_scalar_definition_on_random_words() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for (dims, bits) in WIDTHS {
            let (_, lanes, guard) = layout(dims);
            let top = 1u32 << (bits - 1);
            let mut admitted = 0;
            for round in 0..50_000 {
                // Every lane a bucket below `top`; every other round the
                // box is drawn around the word so that admissions are
                // exercised too.
                let [mut lo, mut hi, mut word] = [0u32; 3];
                for shift in (0..lanes as u32).map(|lane| lane * bits) {
                    let w = rng.gen_range(0..top);
                    let (a, b) = if round % 2 == 0 {
                        (rng.gen_range(0..top), rng.gen_range(0..top))
                    } else {
                        (rng.gen_range(0..=w), rng.gen_range(w..top))
                    };
                    // One lane in sixteen is a near miss among admitting
                    // lanes: its lower bound sits one above the word.
                    let a = if rng.gen_range(0..16) == 0 { (w + 1).min(top - 1) } else { a };
                    lo |= a << shift;
                    hi |= b << shift;
                    word |= w << shift;
                }
                let got = BucketBox { lo, hi, guard }.admits(word);
                let want = admits_scalar(bits, lanes, lo, hi, word);
                assert_eq!(got, want, "L={bits} {lo:08x} {word:08x} {hi:08x}");
                admitted += u32::from(got);
            }
            assert!(admitted > 2_500, "L={bits}: only {admitted} admissions exercised");
        }
    }

    #[test]
    fn buckets_are_monotone_and_fold_signed_zeros() {
        // Dim 0: 600 distinct keys; dim 1: a constant column.
        let keys = (-300..300).map(|i| f64::from(i) / 100.0);
        let mut indexes =
            [ColumnIndex::build(keys.zip(0..)), ColumnIndex::build((0..600).map(|row| (0.0, row)))];
        let sketch = Sketch::build(&mut indexes, 600);
        let bucket = |v: f64| sketch.bucket(0, v);
        assert_eq!(bucket(f64::NEG_INFINITY), 0);
        assert_eq!(bucket(f64::INFINITY), 127);
        assert_eq!(bucket(-0.0), bucket(0.0));
        let probes = [-9.0, -3.0, -1.5, -0.01, -0.0, 0.0, 0.01, 0.99, 1.0, 2.99, 7.0];
        assert!(probes.windows(2).all(|w| bucket(w[0]) <= bucket(w[1])));
        // A constant column has one repeated split: dim 0's words hold
        // its top bucket, dim 1's words each row's bucket on dim 0.
        assert!(indexes[0].words_at(0, 600).iter().all(|&w| w == 127));
        let (rows, words) = (indexes[1].rows_at(0, 600), indexes[1].words_at(0, 600));
        for (&row, &word) in rows.iter().zip(words) {
            assert_eq!(word, bucket(f64::from(row as i32 - 300) / 100.0), "row {row}");
        }
    }
}
