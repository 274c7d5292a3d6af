//! Reusable fetch workspaces: the allocation-free side of
//! [`Table::fetch_plan_into`](crate::Table::fetch_plan_into).
//!
//! Every growable buffer the block-oriented fetch path needs lives here,
//! owned by a [`FetchScratch`] that callers keep across queries (via the
//! engine's per-executor `QueryScratch`). After warmup the buffers have
//! reached their high-water marks and a fetch performs no heap
//! allocation at all.
//!
//! Ownership rules (see DESIGN.md §12): the *table* never stores scratch
//! state — it borrows a `FetchScratch` per call; the *scratch* never
//! holds table references — it is plain reusable memory; and the fetched
//! rows stay inside [`FetchBuf`] as borrowed views until a caller
//! explicitly materializes `Point`s at the public-API boundary.
//!
//! The fetch kernel in `table.rs` only pushes onto these buffers and
//! calls the amortized mutators below (`append`, `partition`, …): growth
//! happens here, once, not per row on the hot path, and
//! `crates/bench/tests/alloc_ceiling.rs` holds `Table::fetch_plan_into`
//! to zero allocations in steady state.

use crate::sketch::BucketBox;
use crate::table::{RegionPlan, RowId};

/// Columnar fetch output: row ids plus a row-major coordinate block,
/// reused across queries (the zero-copy replacement for `Vec<Row>`).
#[derive(Clone, Debug, Default)]
pub struct FetchBuf {
    ids: Vec<RowId>,
    coords: Vec<f64>,
    dims: usize,
}

impl FetchBuf {
    /// An empty buffer; dimensionality is set by the first fetch.
    pub fn new() -> Self {
        FetchBuf::default()
    }

    /// Clears contents and (re)binds the dimensionality.
    pub(crate) fn reset(&mut self, dims: usize) {
        self.ids.clear();
        self.coords.clear();
        self.dims = dims;
    }

    /// Number of buffered rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the buffer holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dimensionality of the buffered rows.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Row ids, parallel to [`FetchBuf::coords`].
    pub fn ids(&self) -> &[RowId] {
        &self.ids
    }

    /// All coordinates as one flat row-major block.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// The coordinates of buffered row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dims..(i + 1) * self.dims]
    }

    /// Appends one row. Amortized O(1); allocation only on growth.
    #[inline]
    pub(crate) fn append(&mut self, id: RowId, row: &[f64]) {
        debug_assert_eq!(row.len(), self.dims);
        self.ids.push(id);
        self.coords.extend_from_slice(row);
    }
}

/// One executable unit of a fetch plan: ready regions whose index ranges
/// in one dimension overlap or abut, answered by a single *walk* over
/// their merged index slice, each member scanning its own range of it.
/// What the walk is charged — how many range queries, over which
/// sub-slices — is decided per unit by [`UnitCharge`], not by the
/// grouping.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FetchUnit {
    /// Range into [`FetchScratch::order`] listing member region indices.
    pub members_start: u32,
    pub members_end: u32,
    /// Chosen index dimension shared by all members.
    pub dim: u32,
    /// Merged position range `[pos_lo, pos_hi)` in that dimension.
    pub pos_lo: u32,
    pub pos_hi: u32,
}

/// What one ready unit's walk is *charged*: the cheapest split of its
/// members (sorted by `pos_lo`) into contiguous groups, one range query
/// each. A group of one costs what the caller predicts for that region
/// alone; a group of several costs one scan of its own merged slice. The
/// split is chosen on predicted cost before the walk; the per-region match
/// counts the walk leaves here are what the chosen groups then pay for.
#[derive(Clone, Debug, Default)]
pub(crate) struct UnitCharge {
    /// Per member of the current unit: `(pos_lo, pos_hi, predicted cost of
    /// a range query of its own)`.
    members: Vec<(u32, u32, f64)>,
    /// `plan[j]`: the cheapest predicted cost of the first `j` members,
    /// then the first member and the span of that optimum's last group.
    plan: Vec<(f64, u32, u32)>,
    /// Rows each plan region's exact filter accepted, this fetch.
    pub matched: Vec<u64>,
}

impl UnitCharge {
    /// Chooses the cheapest partition of a unit's `members` into
    /// contiguous groups, `merged(span)` being the predicted cost
    /// (non-decreasing in `span`) of one range query scanning `span` index
    /// positions; returns its predicted cost. One pass: a group ending at
    /// member `j` is grown leftwards only while its span alone still
    /// undercuts the best found, so a unit of far-apart or cheap-alone
    /// members costs O(members).
    pub(crate) fn partition(
        &mut self,
        members: impl Iterator<Item = (u32, u32, f64)>,
        merged: impl Fn(u32) -> f64,
    ) -> f64 {
        self.members.clear();
        self.members.extend(members);
        self.plan.clear();
        self.plan.push((0.0, 0, 0));
        for (j, &(lo, mut hi, alone)) in self.members.iter().enumerate() {
            let mut best = (self.plan[j].0 + alone, j as u32, hi - lo);
            for (i, &(first_lo, member_hi, _)) in self.members[..j].iter().enumerate().rev() {
                hi = hi.max(member_hi);
                let scan = merged(hi - first_lo);
                if scan >= best.0 {
                    break; // spans only grow leftwards
                }
                if self.plan[i].0 + scan < best.0 {
                    best = (self.plan[i].0 + scan, i as u32, hi - first_lo);
                }
            }
            self.plan.push(best);
        }
        self.plan[self.members.len()].0
    }

    /// The chosen groups, last to first, as `(member offsets, span)`.
    pub(crate) fn groups(&self) -> impl Iterator<Item = (std::ops::Range<usize>, u64)> + '_ {
        let mut end = self.members.len();
        std::iter::from_fn(move || {
            let (_, start, span) = self.plan[end];
            let group = start as usize..end;
            end = start as usize;
            (!group.is_empty()).then_some((group, u64::from(span)))
        })
    }
}

/// The walk's side of the workspace: what a unit writes while it reads
/// the planning records beside it.
#[derive(Clone, Debug, Default)]
pub(crate) struct WalkBufs {
    /// Output rows, in unit order.
    pub out: FetchBuf,
    /// Per-unit charge decision and per-region match counts.
    pub charge: UnitCharge,
    /// The current unit's admitted candidates, `(slice offset, member)`.
    pub admitted: Vec<(u32, u32)>,
}

/// The complete per-caller workspace of the block-oriented fetch path.
///
/// Hold one per executor and pass it to every
/// [`Table::fetch_plan_into`](crate::Table::fetch_plan_into) call; the
/// fetched rows are then readable through [`FetchScratch::rows`] until
/// the next fetch reuses the buffers.
#[derive(Clone, Debug, Default)]
pub struct FetchScratch {
    /// One plan per plan region, with its bucket box when ready.
    pub(crate) plans: Vec<(RegionPlan, BucketBox)>,
    /// Ready region indices, grouped into units (`FetchUnit` spans).
    pub(crate) order: Vec<u32>,
    /// Executable units, in execution order.
    pub(crate) units: Vec<FetchUnit>,
    /// The walk's buffers.
    pub(crate) walk: WalkBufs,
}

impl FetchScratch {
    /// An empty workspace.
    pub fn new() -> Self {
        FetchScratch::default()
    }

    /// The rows of the most recent fetch, as a borrowed columnar view.
    pub fn rows(&self) -> &FetchBuf {
        &self.walk.out
    }

    /// Clears all per-fetch state and binds the table dimensionality.
    pub(crate) fn begin(&mut self, dims: usize) {
        self.walk.out.reset(dims);
        self.plans.clear();
        self.order.clear();
        self.units.clear();
    }

    /// Groups the ready regions into executable units, in execution
    /// order: sorted by chosen dimension and position range, the ranges
    /// that overlap or abut merged into one unit each.
    pub(crate) fn build_units(&mut self) {
        let plans = &self.plans;
        self.walk.charge.matched.clear();
        self.walk.charge.matched.resize(plans.len(), 0);
        self.order.extend((0..plans.len() as u32).filter(|&i| plans[i as usize].0.ready));
        self.order.sort_unstable_by_key(|&i| {
            let (plan, _) = &plans[i as usize];
            (plan.dim, plan.pos_lo, plan.pos_hi, i)
        });
        let mut k = 0usize;
        while k < self.order.len() {
            let (plan, _) = plans[self.order[k] as usize];
            let (start, mut pos_hi) = (k, plan.pos_hi);
            k += 1;
            // A region takes in the following ones whose range in the
            // same dimension overlaps or abuts.
            while let Some(&next) = self.order.get(k) {
                let (q, _) = plans[next as usize];
                if q.dim != plan.dim || q.pos_lo > pos_hi {
                    break;
                }
                pos_hi = pos_hi.max(q.pos_hi);
                k += 1;
            }
            self.units.push(FetchUnit {
                members_start: start as u32,
                members_end: k as u32,
                dim: plan.dim,
                pos_lo: plan.pos_lo,
                pos_hi,
            });
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact expectations on exactly computed values")]
mod tests {
    use super::*;

    const SEEK_NS: f64 = 4_000_000.0;
    const ROW_NS: f64 = 150_020.0; // one heap row + its index entry

    /// The chosen groups, first to last, and the predicted cost.
    fn partition_of(members: &[(u32, u32, f64)]) -> (Vec<std::ops::Range<usize>>, f64) {
        let mut charge = UnitCharge::default();
        let merged = |span| SEEK_NS + ROW_NS * f64::from(span);
        let cost = charge.partition(members.iter().copied(), merged);
        let mut groups: Vec<_> = charge.groups().map(|(group, _)| group).collect();
        groups.reverse();
        (groups, cost)
    }

    /// A range query of its own predicted to fetch `rows` heap rows.
    fn alone(rows: f64) -> f64 {
        SEEK_NS + 150_000.0 * rows
    }

    /// Predicted cost of one explicit partition (`cuts[i]`: a group ends
    /// after member `i`), for the brute-force comparison.
    fn cost_of(members: &[(u32, u32, f64)], cuts: u32) -> f64 {
        let (mut cost, mut start) = (0.0, 0);
        for end in 1..=members.len() {
            if end == members.len() || cuts & (1 << (end - 1)) != 0 {
                let group = &members[start..end];
                cost += match group {
                    [(_, _, alone)] => *alone,
                    _ => {
                        let hi = group.iter().map(|m| m.1).max().expect("non-empty group");
                        SEEK_NS + ROW_NS * f64::from(hi - group[0].0)
                    }
                };
                start = end;
            }
        }
        cost
    }

    /// Fifteen slivers nested in a 140-position range whose own region is
    /// selective. A pairwise rule never merges the outer member with a
    /// neighbour (140 rows scanned to save one seek) and ends with two
    /// range queries; one scan of the slice is cheaper than that and than
    /// sixteen seeks.
    #[test]
    fn nested_slivers_share_one_range_query() {
        let mut members = vec![(1_000, 1_140, alone(5.0))];
        members.extend((0..15).map(|i| (1_004 + 9 * i, 1_006 + 9 * i, alone(2.0))));
        let (groups, cost) = partition_of(&members);
        assert_eq!(groups, vec![0..16]);
        assert_eq!(cost, SEEK_NS + ROW_NS * 140.0);
        assert!(cost > alone(5.0) + alone(2.0), "outer + one sliver: dearer merged than apart");
        assert!(cost < alone(5.0) + SEEK_NS + ROW_NS * 128.0, "the pairwise rule's result");
    }

    /// Four overlapping 2 000-position ranges, each expected to match
    /// about 30 rows through a bitmap AND: a seek each is far cheaper than
    /// any shared scan.
    #[test]
    fn selective_members_of_wide_ranges_stay_apart() {
        let members: Vec<_> = (0..4).map(|i| (500 * i, 500 * i + 2_000, alone(30.0))).collect();
        let (groups, cost) = partition_of(&members);
        assert_eq!(groups, vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(cost, 4.0 * alone(30.0));
    }

    /// Two tight clusters bridged by one wide but selective member: the
    /// chain splits on both sides of the bridge.
    #[test]
    fn a_chain_splits_in_the_middle() {
        let members = [
            (0, 40, alone(40.0)),
            (30, 70, alone(40.0)),
            (60, 100, alone(40.0)),
            (90, 5_000, alone(12.0)),
            (4_990, 5_030, alone(40.0)),
            (5_020, 5_060, alone(40.0)),
        ];
        let (groups, _) = partition_of(&members);
        assert_eq!(groups, vec![0..3, 3..4, 4..6]);
    }

    #[test]
    fn a_single_member_is_its_own_group() {
        let (groups, cost) = partition_of(&[(7, 19, alone(3.0))]);
        assert_eq!(groups, vec![0..1]);
        assert_eq!(cost, alone(3.0));
        assert_eq!(partition_of(&[]), (vec![], 0.0));
    }

    /// The one-pass DP with its early exit finds the optimum of all
    /// 2^(n-1) contiguous partitions — so it is never dearer than the
    /// all-separate or the all-merged one — and reports spans that are its
    /// groups' own.
    #[test]
    fn partition_is_the_cheapest_of_all_contiguous_ones() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0A1);
        for case in 0..256 {
            let n = rng.gen_range(1..=10usize);
            let mut members: Vec<(u32, u32, f64)> = (0..n)
                .map(|_| {
                    let lo = rng.gen_range(0..400u32);
                    let len = if rng.gen_range(0..3) == 0 {
                        rng.gen_range(1..3_000)
                    } else {
                        rng.gen_range(1..60)
                    };
                    let rows = f64::from(rng.gen_range(0..=len))
                        * if rng.gen_range(0..2) == 0 { 0.02 } else { 1.0 };
                    (lo, lo + len, alone(rows))
                })
                .collect();
            members.sort_by_key(|m| (m.0, m.1));
            let (groups, cost) = partition_of(&members);

            let cheapest = (0..1u32 << (n - 1))
                .map(|cuts| cost_of(&members, cuts))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(cost, cheapest, "case {case}: {members:?}");
            assert!(cost <= cost_of(&members, (1 << (n - 1)) - 1), "dearer than all-separate");
            assert!(cost <= cost_of(&members, 0), "dearer than all-merged");

            let cuts =
                groups.iter().fold(0u32, |cuts, g| cuts | 1 << (g.end - 1)) & !(1 << (n - 1));
            assert_eq!(
                cost_of(&members, cuts),
                cost,
                "case {case}: groups do not cost what was returned"
            );
            assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), n);
        }
    }
}
