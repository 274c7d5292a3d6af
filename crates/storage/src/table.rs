use std::borrow::Cow;
use std::time::Duration;

use skycache_geom::{rect, subtract, Constraints, Interval, Point, Regions};

use crate::cost::{CostModel, FetchStats, Prediction};
use crate::error::StorageError;
use crate::index::ColumnIndex;
use crate::scratch::{FetchScratch, FetchUnit, WalkBufs};
use crate::sketch::{BucketBox, Sketch};
use crate::Result;

/// How many admitted candidates [`Table::run_unit`] fetches from the heap
/// together. Enough to overlap their cache misses; 16 and 64 measure the
/// same.
const BATCH: usize = 32;

/// Identifier of a stored row.
pub type RowId = u32;

/// Table construction knobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct TableConfig {
    /// I/O latency model used to simulate fetch times.
    pub cost_model: CostModel,
}

/// Declarative description of one storage access: which regions to
/// range-query. Callers build a plan and hand it to
/// [`Table::fetch_plan_into`], which leaves the rows in a columnar
/// scratch.
///
/// The regions must be pairwise disjoint, as the paper's MPR is (its
/// range queries are the strict splits of Algorithm 1): a row then lies
/// in at most one region, and is emitted once. Debug builds check it.
///
/// Every plan coalesces: regions whose chosen-dimension index ranges
/// overlap or abut are charged as one range query wherever one scan of
/// the merged slice is predicted cheaper than a range query each. The
/// range queries saved are reported in [`FetchStats::regions_coalesced`].
/// A plan of one region is charged exactly as that region's range query
/// alone.
#[derive(Clone, Debug, PartialEq)]
pub struct FetchPlan {
    /// Regions to fetch, one issued range query each.
    pub regions: Regions,
}

impl FetchPlan {
    /// A plan over `regions`.
    pub fn new(regions: Regions) -> Self {
        FetchPlan { regions }
    }

    /// The naive approach's constraint range query `RQ(C)`.
    pub fn constrained(c: &Constraints) -> Self {
        FetchPlan::new(c.region().into())
    }

    /// [`FetchPlan::new`]: it remains only because skybench calls it,
    /// until ROADMAP item 1h deletes it with `Cache::insert_with_cost`.
    pub fn remainder(regions: Regions) -> Self {
        FetchPlan::new(regions)
    }
}

/// Result of [`Table::fetch_plan_into`]: accounting only. The fetched
/// rows stay inside the caller's [`FetchScratch`] as a borrowed columnar
/// view ([`FetchScratch::rows`]) — `Point`s are materialized only when a
/// caller crosses the public-API boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct FetchOutcome {
    /// I/O counters for the fetch.
    pub stats: FetchStats,
    /// Simulated latency under the table's [`CostModel`].
    pub simulated_latency: Duration,
}

/// The one plan of one region's range query, from [`Table::plan_of`]'s
/// probe pass: what emptiness detection, fetch planning, the unit charge
/// and the prediction all read.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RegionPlan {
    /// Index probes made: the bounded dimensions up to and including the
    /// first empty range.
    pub probe_count: u32,
    /// Whether the region is to be read: not geometrically empty
    /// (rejected before any index work), nor proved empty by a probe.
    pub ready: bool,
    /// The most selective index range, when ready: its dimension and
    /// position range `[pos_lo, pos_hi)` (the first of equal counts); all
    /// of index 0 when no dimension is bounded.
    pub dim: u32,
    pub pos_lo: u32,
    pub pos_hi: u32,
    /// Whether a bitmap AND of every probed range is predicted cheaper
    /// than a single-index scan of the most selective one.
    pub bitmap: bool,
    /// Index entries the chosen plan scans: every probed range's for a
    /// bitmap AND, else the most selective range's.
    pub entries: u64,
    /// Heap rows the chosen plan is predicted to fetch, and the predicted
    /// ns of the region's own range query.
    pub rows: f64,
    pub ns: f64,
}

/// A read-only table of points: a heap of rows plus one `ColumnIndex` per
/// dimension (the paper's "PostgreSQL with each dimension indexed by a
/// standard B-tree").
#[derive(Clone, Debug)]
pub struct Table {
    points: Vec<Point>,
    /// Liveness per heap slot; deletions tombstone instead of compacting
    /// so row ids stay stable (index entries of dead rows are removed, so
    /// index-driven plans never see them).
    live: Vec<bool>,
    live_count: usize,
    /// One index per dimension, each entry with its bucket-sketch word.
    indexes: Vec<ColumnIndex>,
    /// The sketch's splits and lane layout: the candidate walk's cheap
    /// pre-filter in front of the heap (never persisted; rebuilt from the
    /// indexes on load).
    sketch: Sketch,
    dims: usize,
    config: TableConfig,
}

/// The row id of heap slot `slot`, or [`StorageError::TooManyRows`] when
/// the slot is past the last id a table hands out (`RowId::MAX - 1`).
fn checked_row(slot: usize) -> Result<RowId> {
    RowId::try_from(slot).ok().filter(|&row| row < RowId::MAX).ok_or(StorageError::TooManyRows)
}

impl Table {
    /// Builds a table (heap + all indexes) from a non-empty point set.
    pub fn build(points: Vec<Point>, config: TableConfig) -> Result<Self> {
        let live = vec![true; points.len()];
        Table::from_parts(points, live, config)
    }

    /// Assembles a table from heap slots plus a liveness bitmap (all set
    /// for a fresh build, persisted for a load): the per-dimension indexes
    /// over the live rows only, then the bucket sketch from their keys.
    pub(crate) fn from_parts(
        points: Vec<Point>,
        live: Vec<bool>,
        config: TableConfig,
    ) -> Result<Self> {
        if points.len() != live.len() {
            return Err(StorageError::Corrupt("liveness bitmap length mismatch".into()));
        }
        let dims = points.first().ok_or(StorageError::EmptyTable)?.dims();
        if let Some(bad) = points.iter().find(|p| p.dims() != dims) {
            return Err(StorageError::DimensionMismatch { expected: dims, actual: bad.dims() });
        }
        checked_row(points.len() - 1)?;
        let live_count = live.iter().filter(|&&l| l).count();
        let mut indexes: Vec<ColumnIndex> = (0..dims)
            .map(|d| {
                let live_rows = points.iter().enumerate().filter(|&(row, _)| live[row]);
                ColumnIndex::build(live_rows.map(|(row, p)| (p[d], row as RowId)))
            })
            .collect();
        let sketch = Sketch::build(&mut indexes, points.len());
        Ok(Table { points, live, live_count, indexes, sketch, dims, config })
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Number of heap slots, including tombstoned rows.
    pub fn slot_count(&self) -> usize {
        self.points.len()
    }

    /// Whether the table holds no live points.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Dimensionality of stored points.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The table's configuration.
    pub fn config(&self) -> &TableConfig {
        &self.config
    }

    /// Index-only emptiness probe: `true` iff the per-dimension indexes
    /// prove the region holds no rows, without any heap access.
    ///
    /// This is the planning-time emptiness detection of
    /// [`Table::fetch_plan_into`] — the state of the region's one plan —
    /// exposed as a standalone predicate so callers (the query service)
    /// can answer a provably empty constraint region before committing to
    /// a full query.
    /// Conservative: a `false` answer means "not provably empty", not
    /// "non-empty" — a region can pass every single-dimension probe and
    /// still match no row.
    pub fn probe_region_empty(&self, region: &[Interval]) -> bool {
        !self.plan_of(region).ready
    }

    /// The one probe pass, shared by [`Table::probe_region_empty`], fetch
    /// planning and [`Table::predict_region`]: locates every bounded
    /// dimension of `region` in its index, in dimension order, and stops
    /// at the first empty range — which proves the region empty, as a
    /// degenerate interval does before any probe. Of a region not proved
    /// empty it keeps the most selective range and decides, by the
    /// standard selectivity-product estimate over the probed ranges'
    /// counts, whether a bitmap AND of them is cheaper than a
    /// single-index scan of the most selective one. A region that bounds
    /// no dimension is a scan of all of index 0, its live rows, and empty
    /// when no row is live.
    pub(crate) fn plan_of(&self, region: &[Interval]) -> RegionPlan {
        assert_eq!(region.len(), self.dims, "query/table dimensionality mismatch");
        let mut plan = RegionPlan::default();
        if rect::is_empty(region) {
            return plan;
        }
        let n = self.points.len();
        let (mut est_match, mut entries) = (n as f64, 0);
        for (dim, (iv, index)) in region.iter().zip(&self.indexes).enumerate() {
            // Both ends infinite: no predicate on this dimension.
            if iv.lo() == f64::NEG_INFINITY && iv.hi() == f64::INFINITY {
                continue;
            }
            let (lo, hi) = index.locate(iv);
            plan.probe_count += 1;
            if lo == hi {
                return plan;
            }
            est_match *= (hi - lo) as f64 / n as f64;
            entries += hi - lo;
            if plan.probe_count == 1 || hi - lo < (plan.pos_hi - plan.pos_lo) as usize {
                (plan.dim, plan.pos_lo, plan.pos_hi) = (dim as u32, lo as u32, hi as u32);
            }
        }
        if plan.probe_count == 0 {
            if self.live_count == 0 {
                return plan;
            }
            plan.pos_hi = self.live_count as u32;
        }
        let best = (plan.pos_hi - plan.pos_lo) as usize;
        let model = self.config.cost_model;
        let bitmap_cost = est_match + model.entry_to_point_ratio() * entries as f64;
        plan.ready = true;
        plan.bitmap = plan.probe_count > 1 && bitmap_cost < best as f64;
        let (rows, entries) = if plan.bitmap { (est_match, entries) } else { (best as f64, best) };
        (plan.rows, plan.entries) = (rows, entries as u64);
        plan.ns = model.predicted_ns(rows, entries as f64);
        plan
    }

    /// Direct access to a stored point (no I/O accounting; for index
    /// construction and tests).
    pub fn point(&self, row: RowId) -> &Point {
        &self.points[row as usize]
    }

    /// All heap slots in row order, *including logically deleted rows*
    /// (no I/O accounting). Correct for tables that have not been mutated;
    /// prefer [`Table::live_points`] after deletions.
    pub fn all_points(&self) -> &[Point] {
        &self.points
    }

    /// Live `(row, point)` pairs in row order (no I/O accounting; used to
    /// bulk-load secondary structures such as the BBS R-tree).
    pub fn live_points(&self) -> impl Iterator<Item = (RowId, &Point)> {
        self.points
            .iter()
            .enumerate()
            .filter(|&(row, _)| self.live[row])
            .map(|(row, p)| (row as RowId, p))
    }

    /// The live rows' bounding box, one `(lo, hi)` pair per dimension:
    /// each index's first and last key, in O(d), for every index holds
    /// one entry per live row and no other. Empty when no row is live.
    /// The indexes order `-0.0` before `0.0`, so an end where both zeros
    /// lie reads `-0.0` as the lower bound and `0.0` as the upper.
    pub fn live_bounds(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let last = self.live_count.checked_sub(1);
        self.indexes.iter().filter_map(move |i| last.map(|l| (i.key_at(0), i.key_at(l))))
    }

    /// Whether a row is live.
    pub fn is_live(&self, row: RowId) -> bool {
        self.live.get(row as usize).copied().unwrap_or(false)
    }

    /// Appends a point (the dynamic-data extension, paper Section 6.2),
    /// maintaining every per-dimension index. Returns the new row id.
    pub fn insert(&mut self, point: Point) -> Result<RowId> {
        if point.dims() != self.dims {
            return Err(StorageError::DimensionMismatch {
                expected: self.dims,
                actual: point.dims(),
            });
        }
        let row = checked_row(self.points.len())?;
        for (dim, index) in self.indexes.iter_mut().enumerate() {
            index.insert(point[dim], row, self.sketch.word(dim, point.coords()));
        }
        self.points.push(point);
        self.live.push(true);
        self.live_count += 1;
        Ok(row)
    }

    /// Deletes a row (tombstoning its heap slot and removing its index
    /// entries with their sketch words). Returns the deleted point, or
    /// `None` if the row does not exist or was already deleted.
    pub fn delete(&mut self, row: RowId) -> Option<Point> {
        let idx = row as usize;
        if !self.live.get(idx).copied().unwrap_or(false) {
            return None;
        }
        self.live[idx] = false;
        self.live_count -= 1;
        let point = self.points[idx].clone();
        for (dim, index) in self.indexes.iter_mut().enumerate() {
            let removed = index.remove(point[dim], row);
            debug_assert!(removed, "index out of sync with heap");
        }
        Some(point)
    }

    /// Executes a [`FetchPlan`] into a caller-provided [`FetchScratch`]
    /// — the table's zero-copy fetch kernel. The fetched rows are left
    /// in `scratch` ([`FetchScratch::rows`]) as a columnar block view;
    /// no `Point` is cloned and, after the scratch buffers have warmed
    /// up, no allocation happens at all.
    ///
    /// Execution model:
    ///
    /// 1. **Plan**: every region gets its one `RegionPlan` from the
    ///    per-dimension indexes (empty and degenerate regions are answered
    ///    from the index alone — "the B-trees detect the empty queries",
    ///    paper Section 7.3.2), and a ready one the bucket box of its most
    ///    selective dimension's index range.
    /// 2. **Coalesce**: ready regions whose chosen-dimension position
    ///    ranges overlap or abut share one unit — one walk — each.
    /// 3. **Execute**: units run in unit order, appending straight into
    ///    the output buffer. The plan's regions are disjoint (its
    ///    precondition, checked in debug builds), so each row is emitted
    ///    at most once without marks.
    ///
    /// Accounting contract: `range_queries_issued` counts plan regions,
    /// `range_queries_executed` counts the range queries the units are
    /// charged — per unit the cheapest set covering its regions, see
    /// `Table::run_unit` — their difference for non-empty regions is
    /// `regions_coalesced`, `points_read` counts the emitted rows, and
    /// `simulated_latency` is the [`CostModel`] charge for the summed
    /// stats.
    pub fn fetch_plan_into(&self, plan: &FetchPlan, scratch: &mut FetchScratch) -> FetchOutcome {
        debug_assert!(subtract::pairwise_disjoint(&plan.regions), "fetch regions overlap");
        scratch.begin(self.dims);

        // Phase 1: plan every region (index probes only).
        let mut stats = FetchStats::default();
        for region in plan.regions.iter() {
            let region_plan = self.plan_of(region);
            stats.range_queries_issued += 1;
            stats.range_queries_empty += u64::from(!region_plan.ready);
            stats.index_probes += u64::from(region_plan.probe_count);
            let bucket_box = if region_plan.ready {
                self.sketch.region_box(region_plan.dim as usize, region)
            } else {
                BucketBox::default()
            };
            scratch.plans.push((region_plan, bucket_box));
        }

        // Phase 2: group the ready regions into executable units.
        scratch.build_units();

        // Phase 3: execute the units in order.
        let FetchScratch { plans, order, units, walk } = scratch;
        for unit in units.iter() {
            let members = &order[unit.members_start as usize..unit.members_end as usize];
            stats += self.run_unit(&plan.regions, plans, members, unit, walk);
        }
        let simulated_latency = self.config.cost_model.fetch_latency(&stats);
        stats.points_read = walk.out.len() as u64;
        FetchOutcome { stats, simulated_latency }
    }

    /// Executes one unit, its `members` indices into `regions` and their
    /// `plans`, appending matching rows to `walk.out` and returning the
    /// unit's heap and index-scan stats (the caller counts the probes and
    /// sets `points_read` from the emitted rows).
    ///
    /// A unit is one *walk* over its (merged) slice of the chosen
    /// dimension's index. The walk itself reads no heap row: each member
    /// region scans the sketch words of its own probed range against its
    /// bucket box. Only candidates some box admits are fetched from the
    /// heap, a batch at a time, and put to that region's exact
    /// [`rect::contains`] test, which alone decides what is emitted — in
    /// position order.
    ///
    /// What the walk *costs* is the simulated plan's business, not the
    /// walk's: the unit is charged the cheapest set of range queries that
    /// covers its member regions (`UnitCharge` — contiguous groups of
    /// the members, one seek each). A group of one region is charged as
    /// every one-region plan is, by its [`RegionPlan`]: a **bitmap AND
    /// scan** (the per-dimension row sets intersected in the indexes, only
    /// the intersection fetched — heap cost: the matching rows plus cheap
    /// per-entry index work) when the plan chose one, else a
    /// **single-index scan** (the chosen dimension's candidates fetched
    /// from the heap and post-filtered — heap cost: the candidate count).
    /// A group of several is charged one scan of its own merged slice.
    /// Which groups is decided before the walk, on each member plan's
    /// predicted ns; what they pay is counted by the walk — predicted
    /// decides, actual pays, as for a unit of one region.
    fn run_unit(
        &self,
        regions: &Regions,
        plans: &[(RegionPlan, BucketBox)],
        members: &[u32],
        unit: &FetchUnit,
        walk: &mut WalkBufs,
    ) -> FetchStats {
        // The charge is settled before the walk, on predicted cost.
        let WalkBufs { out, charge, admitted } = walk;
        let model = self.config.cost_model;
        charge.partition(
            members.iter().map(|&r| {
                let plan = &plans[r as usize].0;
                (plan.pos_lo, plan.pos_hi, plan.ns)
            }),
            |span| model.predicted_ns(f64::from(span), f64::from(span)),
        );

        // The walk: sketch words only, one scan per member of its own
        // probed range. Sorted by `(offset, member)`, the admitted pairs of
        // several members meet the heap in position order.
        let index = &self.indexes[unit.dim as usize];
        let rows = index.rows_at(unit.pos_lo as usize, unit.pos_hi as usize);
        admitted.clear();
        for (m, &r) in (0u32..).zip(members) {
            let (plan, bucket_box) = plans[r as usize];
            let words = index.words_at(plan.pos_lo as usize, plan.pos_hi as usize);
            for (offset, &word) in (plan.pos_lo - unit.pos_lo..).zip(words) {
                if bucket_box.admits(word) {
                    admitted.push((offset, m));
                }
            }
        }
        if members.len() > 1 {
            admitted.sort_unstable();
        }

        // The heap side, a batch of admitted pairs at a time: first every
        // row's header, then exact filter and emission, so that the first
        // of a heap row's two dependent cache misses overlaps across the
        // batch instead of stalling the walk one row at a time. The
        // regions are disjoint, so a candidate lies in at most one.
        for batch in admitted.chunks(BATCH) {
            let mut coords: [&[f64]; BATCH] = [&[]; BATCH];
            for (slot, &(offset, _)) in batch.iter().enumerate() {
                coords[slot] = self.points[rows[offset as usize] as usize].coords();
            }
            for (slot, &(offset, m)) in batch.iter().enumerate() {
                let r = members[m as usize] as usize;
                if rect::contains(&regions[r], coords[slot]) {
                    charge.matched[r] += 1;
                    out.append(rows[offset as usize], coords[slot]);
                }
            }
        }

        // What the chosen range queries pay, on actual counts.
        let mut stats = FetchStats::default();
        for (group, span) in charge.groups() {
            let (heap_fetches, index_entries) = match members[group] {
                // Bitmap AND: every probed index range is scanned (cheap,
                // index-only); only the matches hit the heap. Else every
                // candidate of the group's slice — one region's: its most
                // selective range — is fetched and post-filtered.
                [r] if plans[r as usize].0.bitmap => {
                    (charge.matched[r as usize], plans[r as usize].0.entries)
                }
                _ => (span, span),
            };
            stats.range_queries_executed += 1;
            stats.heap_fetches += heap_fetches;
            stats.index_entries_scanned += index_entries;
        }
        stats.regions_coalesced = members.len() as u64 - stats.range_queries_executed;
        stats
    }

    /// What [`Table::fetch_plan_into`] is predicted to charge `plan`,
    /// every region priced as a range query of its own
    /// ([`Table::predict_region`]). Index probes only: no heap row is
    /// read and nothing is allocated.
    pub fn predict(&self, plan: &FetchPlan) -> Prediction {
        let mut total = Prediction::default();
        for p in plan.regions.iter().map(|region| self.predict_region(region)) {
            total.range_queries += p.range_queries;
            total.heap_fetches += p.heap_fetches;
            total.ns += p.ns;
        }
        total
    }

    /// The predicted cost of one range query over `region`, read off its
    /// `RegionPlan`: nothing when the indexes prove it empty, else the
    /// cheaper one-region plan `Table::run_unit` would charge it alone.
    pub fn predict_region(&self, region: &[Interval]) -> Prediction {
        match self.plan_of(region) {
            plan if !plan.ready => Prediction::default(),
            plan => Prediction { range_queries: 1, heap_fetches: plan.rows, ns: plan.ns },
        }
    }

    /// The lower corner of `region` predicted to hold `rows` rows, written
    /// to `cut` (one key per dimension) as the upper corner of the box
    /// `[lo, cut]`: per dimension, the index key at position
    /// `lo + ⌈f · count⌉` of the region's index range, with
    /// `f = (rows / est)^(1/d)` and `est` the selectivity-product estimate
    /// of the region's rows. Returns the rows `[cut, hi]` is predicted to
    /// hold, `est · (1 − f)^d` — every one dominated by any row of a
    /// non-empty corner — or `None` when `region` is not predicted to hold
    /// more than `rows` or a cut position falls outside its range. Index
    /// probes only.
    pub fn corner_cut(&self, region: &[Interval], rows: f64, cut: &mut [f64]) -> Option<f64> {
        assert_eq!((region.len(), cut.len()), (self.dims, self.dims), "dimensionality mismatch");
        let n = self.points.len() as f64;
        let ranges = || region.iter().zip(&self.indexes).map(|(iv, index)| index.locate(iv));
        let est = ranges().fold(n, |est, (lo, hi)| est * ((hi - lo) as f64 / n));
        if est <= rows {
            return None;
        }
        let d = self.dims as f64;
        let f = (rows / est).powf(d.recip());
        for ((lo, hi), (index, key)) in ranges().zip(self.indexes.iter().zip(cut)) {
            let pos = lo + (f * (hi - lo) as f64).ceil() as usize;
            if pos >= hi {
                return None;
            }
            *key = index.key_at(pos);
        }
        Some(est * (1.0 - f).powf(d))
    }
}

/// A borrowed table, for holders that copy it on their first write.
impl<'t> From<&'t Table> for Cow<'t, Table> {
    fn from(table: &'t Table) -> Self {
        Cow::Borrowed(table)
    }
}

/// An owned table, for holders that write it in place.
impl From<Table> for Cow<'_, Table> {
    fn from(table: Table) -> Self {
        Cow::Owned(table)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact expectations on exactly computed values")]
mod tests {
    use super::*;
    use skycache_geom::{Aabb, Interval};

    fn table() -> Table {
        // Grid of 100 2-D points: (i, j) for i, j in 0..10.
        let points: Vec<Point> = (0..10)
            .flat_map(|i| (0..10).map(move |j| Point::from(vec![i as f64, j as f64])))
            .collect();
        Table::build(points, TableConfig::default()).unwrap()
    }

    /// A fetch's rows, `(id, point)` in emission order, and its outcome.
    struct Fetched {
        rows: Vec<(RowId, Point)>,
        stats: FetchStats,
        simulated_latency: Duration,
    }

    fn fetch(t: &Table, plan: &FetchPlan) -> Fetched {
        let mut scratch = FetchScratch::new();
        let FetchOutcome { stats, simulated_latency } = t.fetch_plan_into(plan, &mut scratch);
        let buf = scratch.rows();
        let rows = (0..buf.len()).map(|i| (buf.ids()[i], Point::from(buf.row(i).to_vec())));
        Fetched { rows: rows.collect(), stats, simulated_latency }
    }

    fn fetch_one(t: &Table, region: &[Interval]) -> Fetched {
        fetch(t, &FetchPlan::new(Regions::from_iter([region])))
    }

    fn fetch_c(t: &Table, c: &Constraints) -> Fetched {
        fetch(t, &FetchPlan::constrained(c))
    }

    fn regions(boxes: &[[(f64, f64); 2]]) -> Regions {
        boxes.iter().map(|pairs| Constraints::from_pairs(pairs).unwrap().region()).collect()
    }

    #[test]
    fn build_validates() {
        assert_eq!(
            Table::build(vec![], TableConfig::default()).unwrap_err(),
            StorageError::EmptyTable
        );
        let bad = vec![Point::from(vec![1.0, 2.0]), Point::from(vec![1.0])];
        assert!(matches!(
            Table::build(bad, TableConfig::default()).unwrap_err(),
            StorageError::DimensionMismatch { expected: 2, actual: 1 }
        ));
    }

    #[test]
    fn fetch_constrained_matches_filter() {
        let t = table();
        let c = Constraints::from_pairs(&[(2.0, 4.0), (3.0, 5.0)]).unwrap();
        let res = fetch_c(&t, &c);
        assert_eq!(res.rows.len(), 9);
        assert!(res.rows.iter().all(|r| c.satisfies(&r.1)));
        // Both dimensions are moderately selective (30 candidates each,
        // ~9 estimated matches): the planner picks a bitmap AND, so only
        // the matching rows hit the heap while both index ranges are
        // scanned as cheap index-only work.
        assert_eq!(res.stats.points_read, 9);
        assert_eq!(res.stats.heap_fetches, 9);
        assert_eq!(res.stats.index_entries_scanned, 60);
        assert_eq!(res.stats.range_queries_executed, 1);
        assert_eq!(res.stats.index_probes, 2);
    }

    #[test]
    fn picks_most_selective_dimension() {
        let t = table();
        // Dim 0 matches 10 keys, dim 1 matches 1 key → dim 1 chosen.
        let c = Constraints::from_pairs(&[(0.0, 9.0), (4.0, 4.0)]).unwrap();
        let res = fetch_c(&t, &c);
        assert_eq!(res.rows.len(), 10);
        // Dim 1 alone matches 10 rows; a bitmap AND with the unselective
        // dim 0 (all 100 rows) would cost more, so the planner stays with
        // the single-index scan: all 10 candidates hit the heap.
        assert_eq!(res.stats.points_read, 10);
        assert_eq!(res.stats.heap_fetches, 10);
        assert_eq!(res.stats.index_entries_scanned, 10);
    }

    #[test]
    fn empty_detection_skips_heap() {
        let t = table();
        let c = Constraints::from_pairs(&[(20.0, 30.0), (0.0, 9.0)]).unwrap();
        let res = fetch_c(&t, &c);
        assert!(res.rows.is_empty());
        assert_eq!(res.stats.range_queries_empty, 1);
        assert_eq!(res.stats.range_queries_executed, 0);
        assert_eq!(res.stats.points_read, 0);
    }

    #[test]
    fn degenerate_region_rejected_in_planning() {
        let t = table();
        let region = [
            Interval::new(3.0, 3.0, true, false), // empty interval
            Interval::closed(0.0, 9.0),
        ];
        let res = fetch_one(&t, &region);
        assert!(res.rows.is_empty());
        assert_eq!(res.stats.range_queries_empty, 1);
        assert_eq!(res.stats.index_probes, 0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn an_empty_region_of_the_wrong_dimensionality_is_refused() {
        // The dimensionality is checked before the region's emptiness.
        table().predict_region(&[Interval::new(3.0, 3.0, true, false)]);
    }

    #[test]
    fn half_open_region_excludes_boundary() {
        let t = table();
        let region = [
            Interval::new(2.0, 4.0, true, true), // only key 3
            Interval::closed(0.0, 9.0),
        ];
        let res = fetch_one(&t, &region);
        assert_eq!(res.rows.len(), 10);
        assert!(res.rows.iter().all(|r| r.1[0] == 3.0));
    }

    #[test]
    fn unbounded_query_scans_heap() {
        let t = table();
        let c = Constraints::unbounded(2).unwrap();
        let res = fetch_c(&t, &c);
        assert_eq!(res.rows.len(), 100);
        assert_eq!(res.stats.points_read, 100);
        assert_eq!(res.stats.heap_fetches, 100);
    }

    /// A region that bounds no dimension is a walk of all of index 0,
    /// and keeps the region's openness at ±∞ as every walk does.
    #[test]
    fn full_scan_filters_by_its_region() {
        let points =
            [[1.0, 2.0], [f64::INFINITY, 0.5], [3.0, 1.0]].map(|q| Point::from(q.to_vec()));
        let t = Table::build(points.to_vec(), TableConfig::default()).unwrap();
        let x = Interval::new(f64::NEG_INFINITY, f64::INFINITY, false, true);
        let scan = fetch_one(&t, &[x, Interval::closed(f64::NEG_INFINITY, f64::INFINITY)]);
        let walk = fetch_one(&t, &[x, Interval::closed(f64::NEG_INFINITY, 10.0)]);
        for res in [&scan, &walk] {
            let mut ids: Vec<RowId> = res.rows.iter().map(|r| r.0).collect();
            ids.sort_unstable();
            assert_eq!(ids, [0, 2]);
        }
        // The scan reads, and is charged, every live row.
        assert_eq!(scan.stats.heap_fetches, 3);
    }

    /// A region that bounds no dimension reads the live rows only, each
    /// once, and is charged one heap fetch per live row, not per slot;
    /// once no row is live the probe proves it empty.
    #[test]
    fn an_unbounded_region_reads_each_live_row_once() {
        let points: Vec<Point> =
            (0..10).map(|i| Point::from(vec![f64::from(i), f64::from(9 - i)])).collect();
        let mut t = Table::build(points, TableConfig::default()).unwrap();
        for row in [1, 4, 7] {
            t.delete(row).unwrap();
        }
        let all = Constraints::unbounded(2).unwrap();
        let res = fetch_c(&t, &all);
        let mut ids: Vec<RowId> = res.rows.iter().map(|r| r.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, [0, 2, 3, 5, 6, 8, 9]);
        assert_eq!((res.stats.points_read, res.stats.heap_fetches), (7, 7));
        assert_eq!(t.predict_region(&all.region()).heap_fetches, 7.0);

        assert!(!t.probe_region_empty(&all.region()));
        for row in [0, 2, 3, 5, 6, 8, 9] {
            t.delete(row).unwrap();
        }
        assert!(t.probe_region_empty(&all.region()));
        let res = fetch_c(&t, &all);
        assert!(res.rows.is_empty());
        assert_eq!((res.stats.range_queries_empty, res.stats.heap_fetches), (1, 0));
    }

    /// A plan's regions must be pairwise disjoint; debug builds refuse two
    /// slabs that share rows.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "fetch regions overlap")]
    fn overlapping_regions_are_refused() {
        let slabs = regions(&[[(0.0, 2.0), (0.0, 9.0)], [(2.0, 4.0), (0.0, 9.0)]]);
        fetch(&table(), &FetchPlan::new(slabs));
    }

    #[test]
    fn batch_merges_stats() {
        let t = table();
        let res = fetch(
            &t,
            &FetchPlan::new(regions(&[[(0.0, 1.0), (0.0, 1.0)], [(8.0, 9.0), (8.0, 9.0)]])),
        );
        assert_eq!(res.rows.len(), 8);
        assert_eq!(res.stats.range_queries_issued, 2);
        assert_eq!(res.stats.range_queries_executed, 2);
        assert_eq!(res.stats.points_read, 8);
    }

    #[test]
    fn fetch_plan_builders() {
        let c = Constraints::from_pairs(&[(1.0, 2.0), (1.0, 2.0)]).unwrap();
        let plan = FetchPlan::constrained(&c);
        assert_eq!(plan.regions, Regions::from_iter([c.region()]));
        assert_eq!(FetchPlan::remainder(plan.regions.clone()), plan);
    }

    #[test]
    fn empty_plan_fetches_nothing() {
        let none = fetch(&table(), &FetchPlan::new(Regions::default()));
        assert!(none.rows.is_empty());
        assert_eq!(none.stats, FetchStats::default());
        assert_eq!(none.simulated_latency, Duration::ZERO);
    }

    #[test]
    fn simulated_latency_uses_cost_model() {
        let t = table();
        let c = Constraints::from_pairs(&[(2.0, 4.0), (3.0, 5.0)]).unwrap();
        let res = fetch_c(&t, &c);
        let expect = t.config().cost_model.fetch_latency(&res.stats);
        assert_eq!(res.simulated_latency, expect);
        assert!(res.simulated_latency > Duration::ZERO);
    }

    #[test]
    fn insert_is_queryable_immediately() {
        let mut t = table();
        let row = t.insert(Point::from(vec![3.5, 3.5])).unwrap();
        assert_eq!(t.len(), 101);
        assert!(t.is_live(row));
        let c = Constraints::from_pairs(&[(3.2, 3.8), (3.2, 3.8)]).unwrap();
        let res = fetch_c(&t, &c);
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.rows[0].0, row);
        // Dimensionality is validated.
        assert!(t.insert(Point::from(vec![1.0])).is_err());
    }

    #[test]
    fn delete_removes_from_all_plans() {
        let mut t = table();
        // Row for point (4, 4) in the grid: row = 4*10 + 4.
        let deleted = t.delete(44).unwrap();
        assert_eq!(deleted, Point::from(vec![4.0, 4.0]));
        assert_eq!(t.len(), 99);
        assert!(!t.is_live(44));
        assert!(t.delete(44).is_none(), "double delete is a no-op");

        // Single-index and bitmap plans no longer see it.
        let c = Constraints::from_pairs(&[(4.0, 4.0), (4.0, 4.0)]).unwrap();
        assert!(fetch_c(&t, &c).rows.is_empty());
        // The walk of a region that bounds no dimension skips it too.
        let all = fetch_c(&t, &Constraints::unbounded(2).unwrap());
        assert_eq!(all.rows.len(), 99);
        assert!(all.rows.iter().all(|r| r.0 != 44));
        // live_points agrees.
        assert_eq!(t.live_points().count(), 99);
    }

    /// The live rows' box, read from the indexes' ends, equals
    /// `Aabb::bounding_rows` over the live rows coordinate by coordinate
    /// (`==`, so `-0.0 == 0.0`) across deletes and inserts, and shrinks
    /// when an extreme row goes. Where both zeros lie at one end, the
    /// lower bound is `-0.0` and the upper `0.0`, whatever the row order.
    #[test]
    fn live_bounds_are_the_live_rows_box() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let sides = |t: &Table| t.live_bounds().collect::<Vec<_>>();
        let agrees = |t: &Table| match Aabb::bounding_rows(t.live_points().map(|(_, p)| p.coords()))
        {
            None => sides(t).is_empty(),
            Some(b) => {
                sides(t) == b.lo().iter().copied().zip(b.hi().iter().copied()).collect::<Vec<_>>()
            }
        };

        let rows =
            [[0.0, -5.0], [-0.0, 0.0], [3.0, -0.0], [0.0, -0.0]].map(|p| Point::from(p.to_vec()));
        let mut t = Table::build(rows.to_vec(), TableConfig::default()).unwrap();
        assert!(agrees(&t));
        let got = sides(&t);
        assert_eq!(got, vec![(0.0, 3.0), (-5.0, 0.0)]);
        assert!(got[0].0.is_sign_negative(), "x's lower end is -0.0, where row 0 says 0.0");
        assert!(got[1].1.is_sign_positive(), "y's upper end is 0.0, where rows 2 and 3 say -0.0");
        t.delete(2).unwrap();
        t.delete(0).unwrap();
        assert_eq!(sides(&t), vec![(0.0, 0.0), (0.0, 0.0)], "the extreme rows went");
        assert!(agrees(&t));
        t.delete(1).unwrap();
        t.delete(3).unwrap();
        assert!(sides(&t).is_empty() && agrees(&t), "no live row, no box");
        t.insert(Point::from(vec![1.0, 2.0])).unwrap();
        assert_eq!(sides(&t), vec![(1.0, 1.0), (2.0, 2.0)]);

        let mut rng = StdRng::seed_from_u64(25);
        for dims in 1..=4 {
            let coords = [-0.0, 0.0, -1.0, 2.5, 7.0];
            let point = |rng: &mut StdRng| {
                let row = (0..dims).map(|_| coords[rng.gen_range(0..coords.len())]);
                Point::from(row.collect::<Vec<_>>())
            };
            let initial: Vec<Point> = (0..12).map(|_| point(&mut rng)).collect();
            let mut t = Table::build(initial, TableConfig::default()).unwrap();
            for step in 0..80 {
                if rng.gen_bool(0.5) {
                    t.delete(rng.gen_range(0..t.slot_count()) as RowId);
                } else {
                    t.insert(point(&mut rng)).unwrap();
                }
                assert!(agrees(&t), "d={dims} step {step}: {:?}", sides(&t));
            }
        }
    }

    #[test]
    fn mutated_table_matches_rebuilt_table() {
        let mut t = table();
        t.delete(17).unwrap();
        t.delete(83).unwrap();
        let added = Point::from(vec![2.5, 7.5]);
        t.insert(added.clone()).unwrap();

        // Rebuild from the live set and compare query results.
        let live: Vec<Point> = t.live_points().map(|(_, p)| p.clone()).collect();
        let rebuilt = Table::build(live, TableConfig::default()).unwrap();
        for c in [
            Constraints::from_pairs(&[(0.0, 9.0), (0.0, 9.0)]).unwrap(),
            Constraints::from_pairs(&[(1.0, 3.0), (6.0, 8.0)]).unwrap(),
            Constraints::from_pairs(&[(2.5, 2.5), (7.5, 7.5)]).unwrap(),
        ] {
            let mut a: Vec<Point> = fetch_c(&t, &c).rows.into_iter().map(|r| r.1).collect();
            let mut b: Vec<Point> = fetch_c(&rebuilt, &c).rows.into_iter().map(|r| r.1).collect();
            let key = |p: &Point| (p[0].to_bits(), p[1].to_bits());
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a, b, "constraints {c:?}");
        }
    }

    /// Abutting (non-overlapping) index ranges coalesce too; disjoint
    /// ranges with a gap stay separate range queries.
    #[test]
    fn coalescing_handles_abutting_and_disjoint_ranges() {
        let t = table();
        let abutting = regions(&[[(0.0, 1.0), (0.0, 9.0)], [(2.0, 3.0), (0.0, 9.0)]]);
        let res = fetch(&t, &FetchPlan::new(abutting));
        // Positions 0..20 and 20..40 abut → one merged query, its slice
        // scanned once.
        assert_eq!(res.stats.range_queries_executed, 1);
        assert_eq!(res.stats.regions_coalesced, 1);
        assert_eq!(res.stats.heap_fetches, 40);
        assert_eq!(res.rows.len(), 40);

        let disjoint = regions(&[[(0.0, 1.0), (0.0, 9.0)], [(5.0, 6.0), (0.0, 9.0)]]);
        let res = fetch(&t, &FetchPlan::new(disjoint));
        // Positions 0..20 and 50..70 leave a gap → two queries, no saving.
        assert_eq!(res.stats.range_queries_executed, 2);
        assert_eq!(res.stats.regions_coalesced, 0);
        assert_eq!(res.rows.len(), 40);
    }

    /// The sketch's one obligation, stated directly: at every
    /// dimensionality and for the words of every index, however a row got
    /// there (built, or inserted later with keys the frozen splits never
    /// saw, ±∞ among them), a live row inside a region is admitted by the
    /// region's bucket box for that index.
    #[test]
    fn bucket_box_admits_every_row_inside_the_region() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED);
        // Built from keys in [-40, 100]; inserts also draw keys outside.
        let coord =
            |rng: &mut StdRng, wide: bool| match rng.gen_range(0..if wide { 24 } else { 20u8 }) {
                0 => -0.0,
                1 => -40.0,
                2 => 100.0,
                20 => f64::NEG_INFINITY,
                21 => f64::INFINITY,
                22 => -1e9,
                23 => 1e9,
                v => f64::from(v % 9) * 0.5,
            };
        for dims in 1..=20 {
            let point = |rng: &mut StdRng, wide| {
                Point::from((0..dims).map(|_| coord(rng, wide)).collect::<Vec<_>>())
            };
            let initial: Vec<Point> = (0..150).map(|_| point(&mut rng, false)).collect();
            let mut t = Table::build(initial, TableConfig::default()).unwrap();
            for step in 0..90 {
                if step % 3 == 0 {
                    t.delete(rng.gen_range(0..t.slot_count()) as RowId);
                } else {
                    t.insert(point(&mut rng, true)).unwrap();
                }
            }
            let mut inside = 0;
            for round in 0..30 {
                // Every other region is stretched around a live row, so
                // that regions hold rows at every dimensionality.
                let anchor = (round % 2 == 0)
                    .then(|| t.live_points().nth(rng.gen_range(0..t.len())))
                    .flatten()
                    .map(|(_, p)| p.clone());
                let region: Vec<Interval> = (0..dims)
                    .map(|dim| {
                        let (a, b) = (coord(&mut rng, true), coord(&mut rng, true));
                        let (lo_open, hi_open) =
                            (rng.gen_range(0..2) == 0, rng.gen_range(0..2) == 0);
                        match (anchor.as_ref().map(|p| p[dim]), rng.gen_range(0..4u8)) {
                            (Some(c), _) => Interval::closed(a.min(c), b.max(c)),
                            (None, 0) => Interval::closed(f64::NEG_INFINITY, f64::INFINITY),
                            (None, 1) => Interval::new(f64::NEG_INFINITY, b, false, hi_open),
                            (None, 2) => Interval::new(a, f64::INFINITY, lo_open, false),
                            (None, _) => Interval::new(a.min(b), a.max(b), lo_open, hi_open),
                        }
                    })
                    .collect();
                for (dim, index) in t.indexes.iter().enumerate() {
                    let bucket_box = t.sketch.region_box(dim, &region);
                    let (rows, words) = (index.rows_at(0, t.len()), index.words_at(0, t.len()));
                    for (&row, &word) in rows.iter().zip(words) {
                        let p = t.point(row);
                        if rect::contains(&region, p.coords()) {
                            inside += 1;
                            assert!(
                                bucket_box.admits(word),
                                "d={dims} k={dim} {p:?} in {region:?}"
                            );
                        }
                    }
                }
            }
            assert!(inside > 0, "d={dims}: no region held a row");
        }
    }

    #[test]
    fn a_full_table_is_refused_with_its_own_error() {
        assert_eq!(checked_row(0), Ok(0));
        assert_eq!(checked_row(RowId::MAX as usize - 1), Ok(RowId::MAX - 1));
        assert_eq!(checked_row(RowId::MAX as usize), Err(StorageError::TooManyRows));
        assert_eq!(checked_row(usize::MAX), Err(StorageError::TooManyRows));
    }
}
