//! Canonical metric names.
//!
//! One constant per metric, shared by the one function that renders them
//! (`skycache_core::QueryStats::report`) and every consumer (report
//! readers, tests), so a renamed metric is a compile error, not a
//! silently empty dashboard column.
//! The README's "Observability" section carries the same table in prose.

// -- cache ------------------------------------------------------------------

/// Queries answered (at least partly) from a cached item. Counter.
pub const CACHE_HITS: &str = "cache.hits";
/// Queries computed from scratch. Counter.
pub const CACHE_MISSES: &str = "cache.misses";
/// Items evicted by the replacement policy. Counter.
pub const CACHE_EVICTIONS: &str = "cache.evictions";
/// Results inserted into the cache. Counter.
pub const CACHE_INSERTIONS: &str = "cache.insertions";
/// Overlapping candidate items returned by cache lookups. Counter.
pub const CACHE_CANDIDATES: &str = "cache.candidates";
/// Cached skyline points retained into the new computation. Counter.
pub const CACHE_RETAINED_POINTS: &str = "cache.retained_points";
/// Cached skyline points invalidated by the new constraints. Counter.
pub const CACHE_REMOVED_POINTS: &str = "cache.removed_points";

// -- fetch ------------------------------------------------------------------

/// Regions submitted to storage (one range query each). Counter.
pub const FETCH_REGIONS: &str = "fetch.regions";
/// Range queries that actually touched the heap. Counter.
pub const FETCH_RQ_EXECUTED: &str = "fetch.range_queries_executed";
/// Range queries discarded by index-only emptiness detection. Counter.
pub const FETCH_RQ_EMPTY: &str = "fetch.range_queries_empty";
/// Rows of the queried regions read from the heap. Counter.
pub const FETCH_POINTS_READ: &str = "fetch.points_read";
/// Heap tuples fetched by the chosen storage plans. Counter.
pub const FETCH_HEAP_FETCHES: &str = "fetch.heap_fetches";
/// Per-dimension B-tree probes during planning. Counter.
pub const FETCH_INDEX_PROBES: &str = "fetch.index_probes";
/// Index entries scanned by the chosen plans. Counter.
pub const FETCH_INDEX_ENTRIES: &str = "fetch.index_entries_scanned";
/// Range queries saved by the coalescing fetch planner (non-empty
/// candidate regions minus merged range queries executed for them).
/// Counter.
pub const FETCH_REGIONS_COALESCED: &str = "fetch.regions_coalesced";
/// Simulated I/O latency charged by the cost model, in nanoseconds —
/// the part of the report's `fetch` phase that was not measured. Counter.
pub const FETCH_SIM_NS: &str = "fetch.sim_ns";

// -- mpr --------------------------------------------------------------------

/// Regions in the executed (a)MPR plan. Counter.
pub const MPR_REGIONS: &str = "mpr.regions";
/// Cached skyline points used for pruning during MPR construction. Counter.
pub const MPR_PRUNE_POINTS: &str = "mpr.prune_points";
/// Cached-region pieces invalidated by inverted-logic preprocessing. Counter.
pub const MPR_INVALIDATED_PIECES: &str = "mpr.invalidated_pieces";

// -- skyline ----------------------------------------------------------------

/// Pairwise dominance tests performed. Counter.
pub const SKYLINE_DOMINANCE_TESTS: &str = "skyline.dominance_tests";
/// Result cardinality. Counter.
pub const SKYLINE_RESULT_SIZE: &str = "skyline.result_size";

// -- serve ------------------------------------------------------------------

/// Queries a service answered empty because the index-only probe proves
/// their constraint region holds no row — no plan, no heap. Counter.
pub const SERVE_NEGATIVE_HITS: &str = "serve.negative_hits";
