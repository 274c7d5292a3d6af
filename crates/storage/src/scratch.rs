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
//! This file is deliberately **not** a `skylint` `scope-file`: the fetch
//! kernel in `table.rs` is lint-checked and calls only the amortized
//! mutators below (`append`, `note_*`, `mark`, …) whose names are not in
//! the lint's allocation list — growth happens here, once, not per row
//! on the hot path.

use crate::cost::FetchStats;
use crate::sketch::BucketBox;
use crate::table::RowId;

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

/// How a region left the planning phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum RegionState {
    /// Geometrically empty; rejected before any index work.
    #[default]
    Degenerate,
    /// An index probe proved the region matches nothing.
    Empty,
    /// No dimension is bounded: answered by a full heap scan.
    FullScan,
    /// Has a chosen index dimension and a non-empty position range.
    Ready,
}

/// Planning-phase record for one region of a plan.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RegionProbe {
    /// Range into [`FetchScratch::probed`] holding this region's probes.
    pub probed_start: u32,
    pub probed_end: u32,
    pub state: RegionState,
    /// Chosen (most selective) index dimension, when `Ready`.
    pub chosen_dim: u32,
    /// Position range `[pos_lo, pos_hi)` in the chosen dimension's index.
    pub pos_lo: u32,
    pub pos_hi: u32,
    /// The region in bucket space, when `Ready`: what the candidate walk
    /// tests a row's sketch word against before touching the heap.
    pub bucket_box: BucketBox,
}

/// One probed dimension of a region: its index position range.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ProbedDim {
    pub dim: u32,
    pub pos_lo: u32,
    pub pos_hi: u32,
}

impl ProbedDim {
    #[inline]
    pub(crate) fn count(&self) -> usize {
        (self.pos_hi - self.pos_lo) as usize
    }
}

/// One executable unit of a fetch plan: a group of regions answered by a
/// single (possibly merged) range query.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FetchUnit {
    /// Range into [`FetchScratch::order`] listing member region indices.
    pub members_start: u32,
    pub members_end: u32,
    /// Chosen index dimension shared by all members (when indexed).
    pub dim: u32,
    /// Merged position range `[pos_lo, pos_hi)` in that dimension.
    pub pos_lo: u32,
    pub pos_hi: u32,
    /// The planning state its members share. Only `Ready` units have more
    /// than one member: ready regions whose index ranges merged into one
    /// range query walking the union slice, candidates tested against
    /// every member region. A ready unit of one member is charged as the
    /// classic single-region plan (bitmap or single-index scan).
    pub state: RegionState,
}

/// Per-heap-slot dedup marks with epoch-based O(1) reset.
#[derive(Clone, Debug, Default)]
pub(crate) struct SeenSet {
    marks: Vec<u32>,
    epoch: u32,
}

impl SeenSet {
    /// Starts a fresh dedup pass over a heap of `slots` rows.
    pub(crate) fn begin_pass(&mut self, slots: usize) {
        if self.marks.len() < slots {
            self.marks.resize(slots, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: old marks could alias; hard-reset once every
            // u32::MAX passes.
            self.marks.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks a row as emitted; returns `true` on first sighting.
    #[inline]
    pub(crate) fn mark(&mut self, row: RowId) -> bool {
        let slot = &mut self.marks[row as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

/// Read-only view of the planning state, split off the scratch so units
/// can read it while appending to the output buffer.
#[derive(Clone, Copy)]
pub(crate) struct ExecView<'a> {
    pub probed: &'a [ProbedDim],
    pub regions: &'a [RegionProbe],
    pub region_stats: &'a [FetchStats],
    pub order: &'a [u32],
    pub units: &'a [FetchUnit],
}

impl ExecView<'_> {
    /// The probed dimensions of region `r`.
    #[inline]
    pub(crate) fn probed_of(&self, r: u32) -> &[ProbedDim] {
        let pr = &self.regions[r as usize];
        &self.probed[pr.probed_start as usize..pr.probed_end as usize]
    }

    /// The member region indices of `unit`.
    #[inline]
    pub(crate) fn members_of(&self, unit: &FetchUnit) -> &[u32] {
        &self.order[unit.members_start as usize..unit.members_end as usize]
    }
}

/// The complete per-caller workspace of the block-oriented fetch path.
///
/// Hold one per executor and pass it to every
/// [`Table::fetch_plan_into`](crate::Table::fetch_plan_into) call; the
/// fetched rows are then readable through [`FetchScratch::rows`] until
/// the next fetch reuses the buffers.
#[derive(Clone, Debug, Default)]
pub struct FetchScratch {
    /// Output rows, in unit order.
    out: FetchBuf,
    /// Flat probe records, region-delimited via `RegionProbe`.
    probed: Vec<ProbedDim>,
    /// One planning record per plan region.
    regions: Vec<RegionProbe>,
    /// Planning-phase stats (issued/empty/probes) per region.
    region_stats: Vec<FetchStats>,
    /// Region indices, grouped into units (`FetchUnit` spans).
    order: Vec<u32>,
    /// Executable units, in execution order.
    units: Vec<FetchUnit>,
    /// Cross-unit row dedup marks (coalesced plans only).
    seen: SeenSet,
}

impl FetchScratch {
    /// An empty workspace.
    pub fn new() -> Self {
        FetchScratch::default()
    }

    /// The rows of the most recent fetch, as a borrowed columnar view.
    pub fn rows(&self) -> &FetchBuf {
        &self.out
    }

    /// Clears all per-fetch state and binds the table dimensionality.
    pub(crate) fn begin(&mut self, dims: usize) {
        self.out.reset(dims);
        self.probed.clear();
        self.regions.clear();
        self.region_stats.clear();
        self.order.clear();
        self.units.clear();
    }

    /// Current length of the probe log (used to delimit a region's run).
    #[inline]
    pub(crate) fn probe_mark(&self) -> u32 {
        self.probed.len() as u32
    }

    /// Logs one probed dimension of the region being planned.
    #[inline]
    pub(crate) fn note_probe(&mut self, dim: u32, pos_lo: u32, pos_hi: u32) {
        self.probed.push(ProbedDim { dim, pos_lo, pos_hi });
    }

    /// The probes logged since `mark` (the region being planned).
    #[inline]
    pub(crate) fn probes_since(&self, mark: u32) -> &[ProbedDim] {
        &self.probed[mark as usize..]
    }

    /// Finishes planning one region.
    #[inline]
    pub(crate) fn note_region(&mut self, probe: RegionProbe, stats: FetchStats) {
        self.regions.push(probe);
        self.region_stats.push(stats);
    }

    /// Groups the planned regions into executable units, in execution
    /// order. Returns the number of range queries saved by coalescing
    /// (ready candidates minus ready units; `0` when `coalesce` is off).
    ///
    /// Non-coalescing plans get exactly one unit per region, in region
    /// order. Coalescing plans put the non-ready regions first (in region
    /// order), then group ready regions by chosen dimension and merge
    /// position ranges that overlap or abut into one range query each.
    pub(crate) fn build_units(&mut self, coalesce: bool) -> u64 {
        self.units.clear();
        self.order.clear();
        let n = self.regions.len();
        self.order.extend(0..n as u32);

        if coalesce {
            // Group ready regions: sort by (dim, pos_lo, pos_hi, idx) after
            // the non-ready ones (kept in region order), then merge
            // consecutive overlapping/abutting position ranges.
            let regions = &self.regions;
            self.order.sort_unstable_by_key(|&i| {
                let pr = &regions[i as usize];
                match pr.state {
                    RegionState::Ready => (1u8, pr.chosen_dim, pr.pos_lo, pr.pos_hi, i),
                    _ => (0u8, 0, 0, 0, i),
                }
            });
            let mut ready_candidates = 0u64;
            let mut ready_units = 0u64;
            let mut k = 0usize;
            while k < self.order.len() {
                let i = self.order[k] as usize;
                let pr = self.regions[i];
                match pr.state {
                    RegionState::Degenerate | RegionState::Empty | RegionState::FullScan => {
                        self.units.push(FetchUnit {
                            members_start: k as u32,
                            members_end: k as u32 + 1,
                            dim: pr.chosen_dim,
                            pos_lo: pr.pos_lo,
                            pos_hi: pr.pos_hi,
                            state: pr.state,
                        });
                        k += 1;
                    }
                    RegionState::Ready => {
                        let start = k;
                        let dim = pr.chosen_dim;
                        let pos_lo = pr.pos_lo;
                        let mut pos_hi = pr.pos_hi;
                        k += 1;
                        while k < self.order.len() {
                            let q = self.regions[self.order[k] as usize];
                            if q.state != RegionState::Ready
                                || q.chosen_dim != dim
                                || q.pos_lo > pos_hi
                            {
                                break;
                            }
                            pos_hi = pos_hi.max(q.pos_hi);
                            k += 1;
                        }
                        let members = (k - start) as u64;
                        ready_candidates += members;
                        ready_units += 1;
                        self.units.push(FetchUnit {
                            members_start: start as u32,
                            members_end: k as u32,
                            dim,
                            pos_lo,
                            pos_hi,
                            state: RegionState::Ready,
                        });
                    }
                }
            }
            ready_candidates - ready_units
        } else {
            for (i, pr) in self.regions.iter().enumerate() {
                self.units.push(FetchUnit {
                    members_start: i as u32,
                    members_end: i as u32 + 1,
                    dim: pr.chosen_dim,
                    pos_lo: pr.pos_lo,
                    pos_hi: pr.pos_hi,
                    state: pr.state,
                });
            }
            0
        }
    }

    /// Splits the workspace for execution: planning view, output buffer
    /// and the dedup set.
    pub(crate) fn exec_parts(&mut self) -> (ExecView<'_>, &mut FetchBuf, &mut SeenSet) {
        let FetchScratch { out, probed, regions, region_stats, order, units, seen } = self;
        (ExecView { probed, regions, region_stats, order, units }, out, seen)
    }
}
