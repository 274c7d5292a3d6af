use std::ops::AddAssign;
use std::time::Duration;

/// Deterministic I/O latency model.
///
/// The paper's measurements ran against PostgreSQL on a 2008-era machine
/// with the DBMS restarted between runs (cold cache); its conclusions rest
/// on two cost drivers it calls out explicitly in Section 7.3: *"the
/// number of disk reads performed and the degree of random access due to
/// multiple range queries"*. The model charges exactly those:
///
/// * `seek` — once per executed (non-empty) range query: locating the
///   first heap tuple of an index range is a random access;
/// * `per_point` — per heap row fetched: on a cold cache, matching rows
///   are scattered over heap pages read quasi-randomly (the dominant cost
///   the paper measures — its fetch times track points read);
/// * `probe` — per index-only probe (range location + emptiness check);
/// * `index_entry` — per index leaf entry scanned (sequential, cheap).
///
/// Defaults are calibrated so that a Baseline query matching ~2k rows of
/// a 1M-row table costs a few hundred milliseconds, the order of
/// magnitude of the paper's Figures 6 and 10. Absolute values are
/// irrelevant to the reproduction; only the relative shape matters, and
/// that is governed by the counter ratios, not the constants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of the random access starting one executed range query.
    pub seek_ns: u64,
    /// Cost of fetching one heap row.
    pub per_point_ns: u64,
    /// Cost of one index probe (also the full cost of an empty query).
    pub probe_ns: u64,
    /// Cost of scanning one index entry during a bitmap index scan
    /// (index-only work, far cheaper than a heap fetch).
    pub index_entry_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            seek_ns: 4_000_000,
            per_point_ns: 150_000,
            probe_ns: 30_000,
            index_entry_ns: 20,
        }
    }
}

impl CostModel {
    /// A zero-cost model: counters only, no simulated latency.
    pub fn free() -> Self {
        CostModel { seek_ns: 0, per_point_ns: 0, probe_ns: 0, index_entry_ns: 0 }
    }

    /// Simulated latency of a fetch described by `stats`.
    pub fn fetch_latency(&self, stats: &FetchStats) -> Duration {
        let ns = self.seek_ns * stats.range_queries_executed
            + self.per_point_ns * stats.heap_fetches
            + self.probe_ns * stats.index_probes
            + self.index_entry_ns * stats.index_entries_scanned;
        Duration::from_nanos(ns)
    }

    /// The model the planner *decides* with: this one, or — in counter-only
    /// mode — the default hardware's, so that plan choice stays realistic
    /// and no counter depends on whether latency is charged.
    fn planning(&self) -> CostModel {
        match self.per_point_ns {
            0 => CostModel::default(),
            _ => *self,
        }
    }

    /// Ratio of index-entry-scan cost to heap-fetch cost, used by the
    /// planner to compare a bitmap plan against a single-index plan.
    pub(crate) fn entry_to_point_ratio(&self) -> f64 {
        let m = self.planning();
        m.index_entry_ns as f64 / m.per_point_ns as f64
    }

    /// Predicted latency in nanoseconds of one range query expected to
    /// fetch `rows` heap rows and scan `entries` index entries: the terms
    /// of [`CostModel::fetch_latency`] a planner can trade against each
    /// other (probes are spent before any plan is chosen).
    pub(crate) fn predicted_ns(&self, rows: f64, entries: f64) -> f64 {
        let m = self.planning();
        m.seek_ns as f64 + m.per_point_ns as f64 * rows + m.index_entry_ns as f64 * entries
    }

    /// Heap rows whose fetch the planner prices like one seek
    /// (`seek_ns / per_point_ns` of the planning model, ≈ 26.7 by
    /// default): the exchange rate between reading rows and issuing range
    /// queries.
    pub fn seek_rows(&self) -> f64 {
        let m = self.planning();
        m.seek_ns as f64 / m.per_point_ns as f64
    }
}

/// What [`crate::Table::predict`] expects a plan to cost, from index
/// probes alone: each region its own range query, priced as the planner
/// prices one.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Prediction {
    /// One per region the indexes do not prove empty (coalescing can only
    /// charge fewer).
    pub range_queries: u64,
    /// Heap rows the chosen per-region plans fetch.
    pub heap_fetches: f64,
    /// Seeks, heap rows and index entries in nanoseconds, under the
    /// planning model (probes are spent either way).
    pub ns: f64,
}

/// Counters describing the I/O work of one or more range queries.
///
/// These are the quantities the paper's evaluation plots directly:
/// `points_read` (Fig. 8), `range_queries_issued` / `..._executed` /
/// `..._empty` (Fig. 9 and the discussion in 7.3.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Range queries handed to the executor.
    pub range_queries_issued: u64,
    /// Range queries that actually touched the heap, one seek each. A
    /// plan is charged, per group of regions whose index ranges overlap or
    /// abut, the cheapest set of range queries covering them (never more
    /// than one per region).
    pub range_queries_executed: u64,
    /// Range queries discarded by index-only emptiness detection.
    pub range_queries_empty: u64,
    /// Rows of the queried region(s) read from the heap — the paper's
    /// "points read" metric (Fig. 8). Equals the matching rows, each
    /// once (a plan's regions are disjoint): plans that scan extra
    /// candidate tuples surface that work in [`FetchStats::heap_fetches`]
    /// and the latency model instead.
    pub points_read: u64,
    /// Heap tuples actually fetched by the chosen plan, summed over its
    /// executed range queries (candidates of a single-index scan, just the
    /// matches of a bitmap AND scan, or the merged slice of a range query
    /// serving several regions) — the latency driver.
    pub heap_fetches: u64,
    /// Index probes performed (range location / emptiness checks).
    pub index_probes: u64,
    /// Index entries scanned: every probed range's for a bitmap AND scan,
    /// else the scanned slice's.
    pub index_entries_scanned: u64,
    /// Range queries *saved* by the coalescing fetch planner: non-empty
    /// indexed regions minus the range queries executed for them. Zero for
    /// a plan of one region, and for regions that share a walk but are
    /// each cheaper fetched by a range query of their own.
    pub regions_coalesced: u64,
}

impl AddAssign for FetchStats {
    fn add_assign(&mut self, rhs: FetchStats) {
        self.range_queries_issued += rhs.range_queries_issued;
        self.range_queries_executed += rhs.range_queries_executed;
        self.range_queries_empty += rhs.range_queries_empty;
        self.points_read += rhs.points_read;
        self.heap_fetches += rhs.heap_fetches;
        self.index_probes += rhs.index_probes;
        self.index_entries_scanned += rhs.index_entries_scanned;
        self.regions_coalesced += rhs.regions_coalesced;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_charges_all_components() {
        let m = CostModel::default();
        let stats = FetchStats {
            range_queries_issued: 3,
            range_queries_executed: 2,
            range_queries_empty: 1,
            points_read: 40,
            heap_fetches: 100,
            index_probes: 9,
            index_entries_scanned: 500,
            regions_coalesced: 0,
        };
        let ns = m.fetch_latency(&stats).as_nanos() as u64;
        assert_eq!(
            ns,
            2 * m.seek_ns + 100 * m.per_point_ns + 9 * m.probe_ns + 500 * m.index_entry_ns
        );
    }

    #[test]
    fn free_model_is_zero() {
        let stats = FetchStats { heap_fetches: 1_000_000, ..Default::default() };
        assert_eq!(CostModel::free().fetch_latency(&stats), Duration::ZERO);
    }

    #[test]
    fn stats_addition() {
        let mut c = FetchStats { points_read: 5, heap_fetches: 2, ..Default::default() };
        c += FetchStats { points_read: 7, index_probes: 3, ..Default::default() };
        assert_eq!(c.points_read, 12);
        assert_eq!(c.heap_fetches, 2);
        assert_eq!(c.index_probes, 3);
    }
}
