//! The in-memory constrained-skyline cache (paper Section 6 / Def. 3).
//!
//! Each cache item is the 3-tuple `⟨Sky(S,C), MBR, C⟩`, and a lookup for
//! new constraints `C′` returns every item with `R_C′ ∩ MBR ≠ ∅`. Items
//! sit once in one R\*-tree, under their constraint regions: a skyline
//! lies inside its constraints, so the tree's window search over `R_C′`
//! finds a superset of those items, and the MBR test filters it. (For an
//! item whose skyline is *empty*, the MBR is undefined; such an item is
//! tested by its constraint region instead so the knowledge "this region
//! is empty" stays discoverable — a strict improvement documented in
//! DESIGN.md.) A `C′` the cache has seen before is the exception: the
//! item cached under it answers alone, found by one containment descent
//! of the same tree, and keeps the text of its skyline for the reply
//! (DESIGN.md §17.5).
//!
//! Replacement (Section 6.2): insertion and use counters on the items
//! support LRU (least recently used) and LCU (least commonly used)
//! eviction when a capacity is set. Every insert is stored; eviction
//! order is maintained incrementally in an ordered victim index — no
//! per-eviction scan.

// An out-of-bounds index here would panic a thread holding the shared
// cache: every access goes through `get`.
#![deny(clippy::indexing_slicing)]

// BTreeMap/BTreeSet, not HashMap/HashSet: eviction order and the order
// of dynamic-data maintenance feed back into query planning, and
// iteration order must not depend on a randomized hasher (`clippy.toml`
// bans the hash collections).
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use skycache_geom::{dominated_by_any_rows, dominates_rows, Aabb, Constraints, Point, PointBlock};
use skycache_rtree::RStarTree;

/// What building a result cost, as [`Cache::insert_with_cost`] takes it.
/// Nothing reads it: it remains only because skybench names it, until
/// ROADMAP item 1h deletes both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ItemCost {
    /// Data points the query read from storage to build this result.
    pub points_read: u64,
    /// Simulated fetch latency (nanoseconds) charged by the cost model.
    pub fetch_ns: u64,
}

/// A cached constrained-skyline result.
#[derive(Clone, Debug)]
pub struct CacheItem {
    /// Unique id within the cache.
    pub id: u64,
    /// The constraints `C` the skyline was computed under.
    pub constraints: Constraints,
    /// The cached result `Sky(S, C)` in columnar form: steady-state
    /// planning copies coordinate rows out of this block instead of
    /// cloning one heap-boxed `Point` per cached result point. Behind its
    /// own `Arc`, so copying an item to update its counters
    /// ([`Cache::touch`]) never copies points.
    pub skyline: Arc<PointBlock>,
    /// Minimum bounding rectangle of the skyline (`None` when empty).
    pub mbr: Option<Aabb>,
    /// Logical insertion time.
    pub inserted_at: u64,
    /// Logical time of last use.
    pub last_used: u64,
    /// Number of times the item answered a query.
    pub use_count: u64,
    /// `skyline` as text ([`render_points`]): empty until the first exact
    /// hit renders it, read by every later one. Behind its own `Arc`, so
    /// the copy of an item a cache makes to update its counters
    /// ([`Cache::touch`]) still shares the slot with every snapshot that
    /// holds the item; whoever changes `skyline` must start a new slot
    /// with it.
    pub(crate) text: Arc<OnceLock<Arc<str>>>,
}

impl CacheItem {
    /// The cached skyline as [`render_points`] text, rendered on the
    /// first call and shared from then on.
    pub fn skyline_text(&self) -> Arc<str> {
        let render = || {
            let mut text = String::new();
            render_points(&mut text, self.skyline.rows());
            text.into()
        };
        Arc::clone(self.text.get_or_init(render))
    }

    /// Write access to this copy's skyline, un-shared from every other
    /// copy of the item. Text rendered from the old skyline would be a
    /// wrong answer for the new one, so the slot is replaced here, with
    /// an empty one; the copies that keep the old block keep the old
    /// slot.
    fn skyline_mut(&mut self) -> &mut PointBlock {
        self.text = Arc::default();
        Arc::make_mut(&mut self.skyline)
    }
}

/// Appends a skyline to `out` in its one text form: ` x,y,..` per point
/// (coordinates in `f64`'s round-tripping `Display` form), points in
/// ascending order of their coordinates' bit patterns — so equal point
/// sets always render to equal bytes, whatever order they arrive in.
/// This is the body of a query reply on the wire and what a
/// [`CacheItem`] keeps of its skyline for exact repeats.
pub fn render_points<'a>(out: &mut String, rows: impl Iterator<Item = &'a [f64]>) {
    let mut sky: Vec<&[f64]> = rows.collect();
    // Unstable: rows that compare equal are bit-identical, so their
    // order cannot show in the text.
    sky.sort_unstable_by(|a, b| a.iter().map(|x| x.to_bits()).cmp(b.iter().map(|x| x.to_bits())));
    // One growth of `out` for the usual skyline: a round-tripped
    // coordinate takes about 18 bytes and its separator one.
    out.reserve(sky.iter().map(|coords| coords.len() * 20).sum());
    for coords in sky {
        let mut sep = ' ';
        for c in coords {
            out.push(sep);
            sep = ',';
            // Writing into a String cannot fail.
            let _ = write!(out, "{c}");
        }
    }
}

/// The ordered victim-index key for an item under a policy: the victim
/// is always the *smallest* key present. Lower = evicted sooner.
fn victim_key(policy: ReplacementPolicy, item: &CacheItem) -> (u64, u64, u64) {
    match policy {
        ReplacementPolicy::Lru => (item.last_used, item.inserted_at, item.id),
        ReplacementPolicy::Lcu => (item.use_count, item.inserted_at, item.id),
    }
}

/// Cache eviction policy (applies only when a capacity is configured).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Evict the least recently used item.
    #[default]
    Lru,
    /// Evict the least commonly used item (ties: older first).
    Lcu,
}

/// Work accounting for a [`Cache::lookup_into`] — the candidate ids
/// themselves land in the caller's scratch vector.
#[derive(Clone, Copy, Debug)]
pub struct LookupStats {
    /// Candidates the lookup ranked: the items whose index box meets the
    /// query region (1 when an item cached under the very constraints
    /// answered the lookup alone, 0 when no index box meets the query).
    pub scans: u64,
}

/// The cache: items plus one R\*-tree over their constraint regions.
///
/// `Clone` is deliberate: the multi-tenant [`crate::SharedCache`]
/// publishes immutable epoch snapshots by cloning the write-side master.
/// A clone is a fully independent, internally consistent cache state
/// that *shares* everything immutable with its source: items (and their
/// skyline blocks) sit behind `Arc` and the R\*-tree is persistent, so
/// cloning copies one pointer per item, one root pointer and the victim
/// index — no points, no boxes, no tree nodes. Every mutation un-shares
/// just what it changes (`Arc::make_mut`), so neither copy can observe
/// the other's writes.
#[derive(Clone, Debug)]
pub struct Cache {
    items: BTreeMap<u64, Arc<CacheItem>>,
    /// The items' ids, each once, under its *constraint* region (the
    /// closed cover of a possibly-open box). A skyline change leaves an
    /// item where it is. Lookups walk it ([`Cache::lookup_into`]);
    /// dynamic-data maintenance probes it with the inserted point instead
    /// of scanning every item, and re-filters with the exact
    /// [`Constraints::satisfies`] test, so open boundaries stay correct.
    index: RStarTree<u64>,
    /// Ordered victim index: one `(rank, inserted_at, id)` key per item,
    /// maintained incrementally on insert/touch/remove so eviction pops
    /// the smallest key in `O(log n)` instead of scanning every item.
    victims: BTreeSet<(u64, u64, u64)>,
    clock: u64,
    next_id: u64,
    capacity: Option<usize>,
    policy: ReplacementPolicy,
    dims: usize,
    /// Items evicted by the replacement policy since construction.
    evictions: u64,
    /// Items individually examined by dynamic-data maintenance
    /// ([`Cache::on_insert`]).
    maintenance_scans: u64,
}

impl Cache {
    /// Creates an unbounded cache for `dims`-dimensional data.
    pub fn new(dims: usize) -> Self {
        Self::with_capacity(dims, None, ReplacementPolicy::default())
    }

    /// Creates a cache with an optional capacity and eviction policy.
    ///
    /// # Panics
    /// Panics if `dims == 0` or `capacity == Some(0)`.
    pub fn with_capacity(dims: usize, capacity: Option<usize>, policy: ReplacementPolicy) -> Self {
        assert!(dims > 0, "zero-dimensional cache");
        assert!(capacity != Some(0), "capacity must be at least 1");
        Cache {
            items: BTreeMap::new(),
            index: RStarTree::new(dims),
            victims: BTreeSet::new(),
            clock: 0,
            next_id: 0,
            capacity,
            policy,
            dims,
            evictions: 0,
            maintenance_scans: 0,
        }
    }

    /// Number of cached items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the cache holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Dimensionality of cached queries.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Inserts a result, evicting if over capacity; the new item is
    /// never the one evicted. Returns the item id.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn insert(&mut self, constraints: Constraints, skyline: &[Point]) -> u64 {
        assert_eq!(constraints.dims(), self.dims, "constraints dimensionality mismatch");
        self.clock += 1;
        let id = self.next_id;
        self.next_id += 1;
        let mbr = Aabb::bounding(skyline);
        #[expect(clippy::expect_used, reason = "dims > 0 asserted at construction")]
        let mut block = PointBlock::with_capacity(self.dims, skyline.len())
            .expect("cache dimensionality is nonzero");
        for point in skyline {
            block.push(point);
        }
        self.index.insert(constraints.aabb().clone(), id);
        let item = CacheItem {
            id,
            constraints,
            skyline: Arc::new(block),
            mbr,
            inserted_at: self.clock,
            last_used: self.clock,
            use_count: 0,
            text: Arc::default(),
        };
        self.victims.insert(victim_key(self.policy, &item));
        self.items.insert(id, Arc::new(item));
        if let Some(cap) = self.capacity {
            while self.items.len() > cap {
                self.evict_one(id);
            }
        }
        self.debug_assert_clock_monotone();
        id
    }

    /// [`Cache::insert`], ignoring `cost`: it remains only because
    /// skybench calls it, until ROADMAP item 1h deletes it and [`ItemCost`].
    pub fn insert_with_cost(&mut self, c: Constraints, skyline: &[Point], _: ItemCost) -> u64 {
        self.insert(c, skyline)
    }

    /// Invariant (debug builds): the logical clock dominates every
    /// timestamp recorded in the cache. Eviction compares `last_used` /
    /// `inserted_at` values; if a stale clock ever re-issued an old
    /// timestamp, LRU ordering would silently rank a fresh use below an
    /// ancient one (the exact bug class fixed in `touch` — see the
    /// `touch_on_unknown_id_does_not_advance_the_clock` regression test).
    fn debug_assert_clock_monotone(&self) {
        debug_assert!(
            self.items
                .values()
                .all(|it| it.last_used <= self.clock && it.inserted_at <= self.clock),
            "logical clock fell behind a recorded timestamp"
        );
        debug_assert_eq!(self.victims.len(), self.items.len(), "victim index out of sync");
    }

    /// Evicts the policy victim — the smallest key in the ordered victim
    /// index — skipping the just-inserted `protect` item. `O(log n)` via
    /// the incrementally maintained index; no per-item scan.
    fn evict_one(&mut self, protect: u64) {
        let victim = self.victims.iter().find(|&&(_, _, id)| id != protect).map(|&(_, _, id)| id);
        if let Some(id) = victim {
            if self.remove(id).is_some() {
                self.evictions += 1;
            }
        }
    }

    /// Removes an item by id, returning it (still shared with any clone
    /// of the cache that holds it).
    pub fn remove(&mut self, id: u64) -> Option<Arc<CacheItem>> {
        let item = self.items.remove(&id)?;
        let dropped = self.victims.remove(&victim_key(self.policy, &item));
        debug_assert!(dropped, "victim index out of sync with items");
        let removed = self.index.remove(item.constraints.aabb(), |&v| v == id);
        debug_assert!(removed.is_some(), "index out of sync with items");
        Some(item)
    }

    /// Returns an item by id.
    pub fn get(&self, id: u64) -> Option<&CacheItem> {
        self.items.get(&id).map(Arc::as_ref)
    }

    /// The lookup, exact first: if an item is cached under constraints
    /// numerically equal to `new` (`-0.0 == 0.0` — the equality
    /// [`crate::classify`] reports as [`crate::Overlap::Exact`]), `ids`
    /// is that item's id alone, the lowest among duplicates; otherwise
    /// `ids` is every item whose index box — its skyline's MBR, or its
    /// constraint region when the skyline is empty — intersects the query
    /// region (the paper's `R_C′ ∩ MBR ≠ ∅`), *cover-ordered*: descending
    /// overlap area between index box and query region, ties by
    /// ascending id. Returns the work accounting.
    ///
    /// An exact item answers with zero fetch under every search
    /// strategy, so nothing else is worth finding once it is: the probe
    /// is one containment descent of the R\*-tree
    /// ([`RStarTree::for_each_equal`]), and the window walk, the ranking
    /// and the sort never run.
    ///
    /// Otherwise the walk visits every item whose constraint region meets
    /// the query — an index box lies inside its item's constraints, so no
    /// candidate is missed — and keeps those whose index box meets it
    /// too, ranking each once as it is kept; the sort compares the
    /// decorated entries without going back to the cache. The decoration
    /// lives in `ids` itself — two words `[area bits, id]` per candidate
    /// until the sorted ids are compacted to the front — so the caller's
    /// scratch vector is still the only storage used.
    ///
    /// Allocation-free in steady state: both tree walks are recursive
    /// visitors and the sort is in-place, so a warm `ids` vector (two
    /// words per candidate of the largest lookup so far) never regrows.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn lookup_into(&self, new: &Constraints, ids: &mut Vec<u64>) -> LookupStats {
        assert_eq!(new.dims(), self.dims, "constraints dimensionality mismatch");
        ids.clear();
        let query = new.aabb();
        if let Some(id) = self.exact_id(query) {
            // Into the caller's reused scratch vector: steady state reuses its capacity.
            ids.push(id);
            return LookupStats { scans: 1 };
        }
        self.index.for_each_in(query, |_, id| {
            let Some(item) = self.items.get(id) else { return };
            let index_box = item.mbr.as_ref().unwrap_or_else(|| item.constraints.aabb());
            if index_box.intersects(query) {
                // Into the caller's reused scratch vector: steady state reuses its capacity.
                ids.extend([index_box.overlap_area(query).to_bits(), *id]);
            }
        });
        let (ranked, _) = ids.as_chunks_mut::<2>();
        // Unstable sort: allocation-free, and the ascending-id tiebreak
        // makes the order total, hence deterministic. total_cmp: the
        // overlap of partially unbounded boxes may be inf or NaN.
        ranked.sort_unstable_by(|&[area_a, a], &[area_b, b]| {
            f64::from_bits(area_b).total_cmp(&f64::from_bits(area_a)).then_with(|| a.cmp(&b))
        });
        let scans = ranked.len();
        for rank in 0..scans {
            ids.swap(rank, 2 * rank + 1);
        }
        ids.truncate(scans);
        LookupStats { scans: scans as u64 }
    }

    /// The lowest id cached under constraints whose box equals `query`
    /// numerically, if any: one containment descent of the R\*-tree.
    fn exact_id(&self, query: &Aabb) -> Option<u64> {
        let mut found: Option<u64> = None;
        self.index.for_each_equal(query, |&id| found = Some(found.map_or(id, |low| low.min(id))));
        found
    }

    /// Items evicted by the replacement policy since construction
    /// (explicit [`Cache::remove`] calls are not evictions).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Items individually examined by dynamic-data maintenance since
    /// construction. With the R\*-tree over constraint regions this grows
    /// with the number of items whose regions actually contain the
    /// inserted or deleted points, not with cache size.
    pub fn maintenance_scans(&self) -> u64 {
        self.maintenance_scans
    }

    /// Records a use of the item (updates LRU/LCU counters). A miss on
    /// an unknown id leaves the logical clock untouched, so recency
    /// ordering only advances on real cache events.
    pub fn touch(&mut self, id: u64) {
        let policy = self.policy;
        if let Some(item) = self.items.get_mut(&id).map(Arc::make_mut) {
            let old_key = victim_key(policy, item);
            self.clock += 1;
            item.last_used = self.clock;
            item.use_count += 1;
            let dropped = self.victims.remove(&old_key);
            debug_assert!(dropped, "victim index out of sync with items");
            self.victims.insert(victim_key(policy, item));
        }
        self.debug_assert_clock_monotone();
    }

    /// Iterates over all items.
    pub fn iter(&self) -> impl Iterator<Item = &CacheItem> {
        self.items.values().map(Arc::as_ref)
    }

    /// Dynamic-data maintenance (paper Section 6.2, "each cache item as a
    /// separate dataset with a continuous skyline query"): integrates a
    /// newly inserted data point into every cached result whose
    /// constraints it satisfies. Returns the number of items updated.
    pub fn on_insert(&mut self, p: &Point) -> usize {
        // The exact `satisfies` re-filter keeps open-boundary semantics.
        let affected = self.items_around(p, |item| item.constraints.satisfies(p));
        let mut updated = 0;
        for id in affected {
            let Some(item) = self.items.get_mut(&id) else { continue };
            if dominated_by_any_rows(p.coords(), &item.skyline) {
                continue; // dominated: the cached skyline is unchanged
            }
            // p enters the skyline; points it dominates leave — in this
            // cache's own copy of the item and its block, never in one a
            // clone still shares. The item stays where it is in the index,
            // under its constraints; only its MBR follows the skyline.
            let item = Arc::make_mut(item);
            let skyline = item.skyline_mut();
            skyline.retain_rows(|s| !dominates_rows(p.coords(), s));
            skyline.push(p);
            item.mbr = Aabb::bounding_rows(item.skyline.rows());
            updated += 1;
        }
        updated
    }

    /// Dynamic-data maintenance on deletion: cached results whose skyline
    /// contains the deleted point can no longer be trusted (points it
    /// dominated may resurface) and are dropped — the conservative
    /// strategy; exclusive-dominance-region recomputation à la DeltaSky
    /// (paper ref. [21]) is a possible refinement. Returns the number of
    /// items dropped.
    pub fn on_delete(&mut self, p: &Point) -> usize {
        // An item whose skyline holds p has constraints that contain it.
        let affected = self.items_around(p, |item| item.skyline.rows().any(|s| s == p.coords()));
        let dropped = affected.len();
        for id in affected {
            self.remove(id);
        }
        dropped
    }

    /// The ids, ascending (the order of a full scan), of the items that
    /// dynamic-data maintenance for point `p` must act on: the R\*-tree
    /// is probed with the point instead of every item scanned, so only
    /// items whose constraint region's closed cover contains `p` are
    /// examined — each counted in [`Cache::maintenance_scans`] — and kept
    /// if `keep` holds.
    fn items_around(&mut self, p: &Point, keep: impl Fn(&CacheItem) -> bool) -> Vec<u64> {
        assert_eq!(p.dims(), self.dims, "point dimensionality mismatch");
        let mut ids = Vec::new();
        self.index.for_each_in(&Aabb::from_point(p), |_, &id| ids.push(id));
        self.maintenance_scans += ids.len() as u64;
        ids.sort_unstable();
        ids.retain(|id| self.items.get(id).is_some_and(|item| keep(item)));
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(pairs: &[(f64, f64)]) -> Constraints {
        Constraints::from_pairs(pairs).unwrap()
    }

    fn p(coords: &[f64]) -> Point {
        Point::from(coords.to_vec())
    }

    /// `lookup_into` with a throwaway scratch: the ids it found (in
    /// order) and its work accounting.
    fn lookup(cache: &Cache, new: &Constraints) -> (Vec<u64>, LookupStats) {
        let mut ids = Vec::new();
        let stats = cache.lookup_into(new, &mut ids);
        assert!(ids.iter().all(|&id| cache.get(id).is_some()), "index out of sync with items");
        (ids, stats)
    }

    #[test]
    fn insert_and_lookup_by_mbr() {
        let mut cache = Cache::new(2);
        let id = cache.insert(c(&[(0.0, 1.0), (0.0, 1.0)]), &[p(&[0.2, 0.8]), p(&[0.6, 0.3])]);
        assert_eq!(cache.len(), 1);
        // Query overlapping the skyline MBR [0.2,0.6]x[0.3,0.8].
        let (hits, _) = lookup(&cache, &c(&[(0.5, 0.9), (0.1, 0.4)]));
        assert_eq!(hits, [id]);
        // Query overlapping the constraint region but not the MBR.
        let (misses, _) = lookup(&cache, &c(&[(0.9, 1.0), (0.9, 1.0)]));
        assert!(misses.is_empty());
    }

    #[test]
    fn empty_skyline_indexed_by_constraints() {
        let mut cache = Cache::new(2);
        let id = cache.insert(c(&[(0.4, 0.6), (0.4, 0.6)]), &[]);
        let (hits, _) = lookup(&cache, &c(&[(0.5, 0.9), (0.5, 0.9)]));
        assert_eq!(hits, [id]);
        assert!(cache.get(id).unwrap().mbr.is_none());
    }

    #[test]
    fn lru_eviction() {
        let mut cache = Cache::with_capacity(1, Some(2), ReplacementPolicy::Lru);
        let a = cache.insert(c(&[(0.0, 1.0)]), &[p(&[0.5])]);
        let b = cache.insert(c(&[(1.0, 2.0)]), &[p(&[1.5])]);
        cache.touch(a); // a is now more recent than b
        let _c = cache.insert(c(&[(2.0, 3.0)]), &[p(&[2.5])]);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(a).is_some(), "recently used item kept");
        assert!(cache.get(b).is_none(), "LRU item evicted");
    }

    #[test]
    fn lcu_eviction() {
        let mut cache = Cache::with_capacity(1, Some(2), ReplacementPolicy::Lcu);
        let a = cache.insert(c(&[(0.0, 1.0)]), &[p(&[0.5])]);
        let b = cache.insert(c(&[(1.0, 2.0)]), &[p(&[1.5])]);
        cache.touch(b);
        cache.touch(b);
        cache.touch(a);
        let _c = cache.insert(c(&[(2.0, 3.0)]), &[p(&[2.5])]);
        assert!(cache.get(b).is_some(), "commonly used item kept");
        assert!(cache.get(a).is_none(), "LCU item evicted");
    }

    #[test]
    fn newest_item_is_protected_from_eviction() {
        let mut cache = Cache::with_capacity(1, Some(1), ReplacementPolicy::Lru);
        let a = cache.insert(c(&[(0.0, 1.0)]), &[p(&[0.5])]);
        let b = cache.insert(c(&[(1.0, 2.0)]), &[p(&[1.5])]);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(a).is_none());
        assert!(cache.get(b).is_some());
    }

    #[test]
    fn remove_keeps_index_consistent() {
        let mut cache = Cache::new(2);
        let a = cache.insert(c(&[(0.0, 1.0), (0.0, 1.0)]), &[p(&[0.5, 0.5])]);
        let b = cache.insert(c(&[(0.0, 1.0), (0.0, 1.0)]), &[p(&[0.5, 0.5])]);
        assert_eq!(cache.len(), 2);
        let removed = cache.remove(a).unwrap();
        assert_eq!(removed.id, a);
        let (hits, _) = lookup(&cache, &c(&[(0.0, 1.0), (0.0, 1.0)]));
        assert_eq!(hits, [b]);
        assert!(cache.remove(a).is_none());
    }

    #[test]
    fn many_unbounded_empty_results_are_cacheable() {
        // Regression: partially-constrained queries (Fig. 7 setup) cache
        // empty skylines indexed by their (±inf) constraint regions; the
        // R*-tree must survive splits/reinserts over such boxes.
        let mut cache = Cache::new(3);
        for i in 0..200 {
            let v = i as f64;
            let cc = Constraints::new(
                vec![v, f64::NEG_INFINITY, f64::NEG_INFINITY],
                vec![v + 0.5, f64::INFINITY, f64::INFINITY],
            )
            .unwrap();
            cache.insert(cc, &[]);
        }
        assert_eq!(cache.len(), 200);
        let probe = Constraints::new(
            vec![10.2, f64::NEG_INFINITY, f64::NEG_INFINITY],
            vec![10.3, f64::INFINITY, f64::INFINITY],
        )
        .unwrap();
        let (hits, _) = lookup(&cache, &probe);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn on_insert_updates_affected_items() {
        let mut cache = Cache::new(2);
        let a = cache.insert(c(&[(0.0, 1.0), (0.0, 1.0)]), &[p(&[0.5, 0.5])]);
        let b = cache.insert(c(&[(2.0, 3.0), (2.0, 3.0)]), &[p(&[2.5, 2.5])]);

        // New point inside item a's constraints, dominating its skyline.
        let updated = cache.on_insert(&p(&[0.2, 0.2]));
        assert_eq!(updated, 1);
        assert_eq!(cache.get(a).unwrap().skyline.to_points(), vec![p(&[0.2, 0.2])]);
        assert_eq!(cache.get(b).unwrap().skyline.to_points(), vec![p(&[2.5, 2.5])]);
        // The lookup follows the skyline's new MBR.
        let (hits, _) = lookup(&cache, &c(&[(0.1, 0.3), (0.1, 0.3)]));
        assert!(hits.contains(&a));

        // A dominated insertion changes nothing.
        assert_eq!(cache.on_insert(&p(&[0.9, 0.9])), 0);
        assert_eq!(cache.get(a).unwrap().skyline.len(), 1);

        // An incomparable insertion joins the skyline.
        assert_eq!(cache.on_insert(&p(&[0.1, 0.9])), 1);
        assert_eq!(cache.get(a).unwrap().skyline.len(), 2);
    }

    #[test]
    fn on_insert_on_a_clone_leaves_the_original_untouched() {
        let mut original = Cache::new(2);
        let a = original.insert(c(&[(0.0, 1.0), (0.0, 1.0)]), &[p(&[0.5, 0.5])]);
        let mut copy = original.clone();
        // The clone shares the item, block and all.
        assert!(std::ptr::eq(original.get(a).unwrap(), copy.get(a).unwrap()));

        assert_eq!(copy.on_insert(&p(&[0.2, 0.2])), 1);
        assert_eq!(copy.get(a).unwrap().skyline.to_points(), vec![p(&[0.2, 0.2])]);
        assert_eq!(original.get(a).unwrap().skyline.to_points(), vec![p(&[0.5, 0.5])]);
        // Each copy's index follows its own skyline.
        let old_spot = c(&[(0.45, 0.55), (0.45, 0.55)]);
        assert_eq!(lookup(&original, &old_spot).0.len(), 1);
        assert!(lookup(&copy, &old_spot).0.is_empty());
    }

    #[test]
    fn maintenance_scans_count_only_candidate_items() {
        let mut cache = Cache::new(2);
        // Ten items far from the insertion point, one containing it.
        for i in 0..10 {
            let lo = 10.0 + f64::from(i);
            cache.insert(c(&[(lo, lo + 0.5), (lo, lo + 0.5)]), &[p(&[lo, lo])]);
        }
        let near = cache.insert(c(&[(0.0, 1.0), (0.0, 1.0)]), &[p(&[0.8, 0.8])]);
        assert_eq!(cache.maintenance_scans(), 0);

        let updated = cache.on_insert(&p(&[0.5, 0.5]));
        assert_eq!(updated, 1);
        assert_eq!(cache.get(near).unwrap().skyline.to_points(), vec![p(&[0.5, 0.5])]);
        // The constraint index pruned the ten distant items: only the
        // containing item was individually examined.
        assert_eq!(cache.maintenance_scans(), 1);

        // Removal keeps the constraint index in sync.
        cache.remove(near).unwrap();
        assert_eq!(cache.on_insert(&p(&[0.5, 0.5])), 0);
        assert_eq!(cache.maintenance_scans(), 1);

        // A delete inside exactly one item's box examines that item
        // alone, whether or not its skyline holds the point.
        assert_eq!(cache.on_delete(&p(&[13.2, 13.2])), 0);
        assert_eq!(cache.maintenance_scans(), 2);
        assert_eq!(cache.on_delete(&p(&[13.0, 13.0])), 1);
        assert_eq!(cache.maintenance_scans(), 3);
        assert_eq!(cache.len(), 9);
    }

    #[test]
    fn on_delete_drops_items_holding_the_point() {
        let mut cache = Cache::new(2);
        let a = cache.insert(c(&[(0.0, 1.0), (0.0, 1.0)]), &[p(&[0.5, 0.5])]);
        let b = cache.insert(c(&[(0.0, 2.0), (0.0, 2.0)]), &[p(&[0.5, 0.5]), p(&[1.5, 0.2])]);
        let keep = cache.insert(c(&[(2.0, 3.0), (2.0, 3.0)]), &[p(&[2.5, 2.5])]);

        let dropped = cache.on_delete(&p(&[0.5, 0.5]));
        assert_eq!(dropped, 2);
        assert!(cache.get(a).is_none());
        assert!(cache.get(b).is_none());
        assert!(cache.get(keep).is_some());
        // Deleting a non-skyline point is free.
        assert_eq!(cache.on_delete(&p(&[9.0, 9.0])), 0);
    }

    #[test]
    fn lookup_short_circuits_disjoint_queries() {
        let mut cache = Cache::new(2);
        // Empty cache: nothing to visit.
        let (ids, stats) = lookup(&cache, &c(&[(0.0, 1.0), (0.0, 1.0)]));
        assert_eq!(stats.scans, 0);
        assert!(ids.is_empty());

        cache.insert(c(&[(0.0, 1.0), (0.0, 1.0)]), &[p(&[0.2, 0.8]), p(&[0.6, 0.3])]);
        cache.insert(c(&[(2.0, 3.0), (2.0, 3.0)]), &[p(&[2.5, 2.5])]);

        // Disjoint from every constraint region: the R*-tree walk visits
        // no item, zero candidates ranked.
        let (ids, miss) = lookup(&cache, &c(&[(8.0, 9.0), (8.0, 9.0)]));
        assert_eq!(miss.scans, 0);
        assert!(ids.is_empty());

        // Inside a constraint region but disjoint from its skyline's MBR:
        // the item is visited and filtered out, still zero ranked.
        let (ids, miss) = lookup(&cache, &c(&[(0.9, 1.0), (0.9, 1.0)]));
        assert_eq!(miss.scans, 0);
        assert!(ids.is_empty());

        // Overlapping: the walk ranks the candidates.
        let (ids, hit) = lookup(&cache, &c(&[(0.5, 0.9), (0.1, 0.4)]));
        assert_eq!(ids.len(), 1);
        assert!(hit.scans >= 1);
    }

    #[test]
    fn evictions_counter_counts_only_policy_evictions() {
        let mut cache = Cache::with_capacity(1, Some(2), ReplacementPolicy::Lru);
        let a = cache.insert(c(&[(0.0, 1.0)]), &[p(&[0.5])]);
        cache.insert(c(&[(1.0, 2.0)]), &[p(&[1.5])]);
        assert_eq!(cache.evictions(), 0);
        cache.insert(c(&[(2.0, 3.0)]), &[p(&[2.5])]);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(a).is_none());
        // Explicit removal is not an eviction.
        let survivor = cache.iter().next().unwrap().id;
        cache.remove(survivor).unwrap();
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn touch_updates_counters() {
        let mut cache = Cache::new(1);
        let a = cache.insert(c(&[(0.0, 1.0)]), &[p(&[0.5])]);
        let before = cache.get(a).unwrap().last_used;
        cache.touch(a);
        let item = cache.get(a).unwrap();
        assert_eq!(item.use_count, 1);
        assert!(item.last_used > before);
    }

    #[test]
    fn logical_clock_is_strictly_monotone_over_cache_events() {
        // Invariant backing `debug_assert_clock_monotone`: every insert
        // and every successful touch produces a timestamp strictly greater
        // than all timestamps recorded before it, so LRU recency is a
        // total, stable order.
        let mut cache = Cache::new(1);
        let mut seen_max = 0u64;
        let mut ids = Vec::new();
        for i in 0..5 {
            let id = cache.insert(c(&[(f64::from(i), f64::from(i) + 1.0)]), &[]);
            let stamp = cache.get(id).unwrap().inserted_at;
            assert!(stamp > seen_max, "insert stamp {stamp} not past {seen_max}");
            seen_max = stamp;
            ids.push(id);
        }
        for &id in ids.iter().rev() {
            cache.touch(id);
            let stamp = cache.get(id).unwrap().last_used;
            assert!(stamp > seen_max, "touch stamp {stamp} not past {seen_max}");
            seen_max = stamp;
        }
        // Failed touches leave the order untouched.
        cache.touch(9999);
        assert!(cache.iter().all(|it| it.last_used <= seen_max));
    }

    #[test]
    fn touch_on_unknown_id_does_not_advance_the_clock() {
        // Regression: touch() used to bump the clock before checking
        // presence, so misses inflated later items' recency timestamps.
        let mut cache = Cache::new(1);
        let a = cache.insert(c(&[(0.0, 1.0)]), &[p(&[0.5])]);
        cache.touch(a + 1000); // no such item
        let b = cache.insert(c(&[(1.0, 2.0)]), &[p(&[1.5])]);
        assert_eq!(cache.get(a).unwrap().inserted_at, 1);
        assert_eq!(cache.get(b).unwrap().inserted_at, 2);
        assert_eq!(cache.get(a).unwrap().use_count, 0);
    }

    /// The victim the retired `evict_one` full scan would have chosen —
    /// the reference implementation for the differential test below.
    fn scan_victim(cache: &Cache, policy: ReplacementPolicy) -> Option<u64> {
        cache
            .iter()
            .min_by_key(|it| match policy {
                ReplacementPolicy::Lru => (it.last_used, it.inserted_at, it.id),
                ReplacementPolicy::Lcu => (it.use_count, it.inserted_at, it.id),
            })
            .map(|it| it.id)
    }

    #[test]
    fn victim_index_matches_reference_scan() {
        // Differential pin: the incremental ordered victim index evicts
        // exactly the item the old O(n) min_by_key scan selected, over a
        // deterministic pseudo-random schedule of inserts, touches and
        // dynamic-data maintenance — inserted points that change a live
        // item's skyline, deleted points that drop the item. (The newly
        // inserted item is protected in both implementations, so the
        // pre-insert scan predicts the victim.)
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Lcu] {
            let mut cache = Cache::with_capacity(1, Some(4), policy);
            let mut state = 0x2545_F491_4F6C_DD1Du64; // LCG seed
            let mut live: Vec<u64> = Vec::new();
            for i in 0..200 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // Interleave touches of pseudo-random live items.
                if !live.is_empty() && !state.is_multiple_of(3) {
                    let pick = live[(state >> 33) as usize % live.len()];
                    cache.touch(pick);
                }
                // Every item's constraints are disjoint from the others',
                // so each point lands in exactly the picked item.
                if !live.is_empty() && (state >> 40).is_multiple_of(4) {
                    let pick = live[(state >> 13) as usize % live.len()];
                    let item = cache.get(pick).unwrap();
                    let (lo, row) = (item.constraints.lo()[0], item.skyline.row(0)[0]);
                    if (state >> 50).is_multiple_of(2) {
                        assert_eq!(cache.on_insert(&p(&[(lo + row) / 2.0])), 1);
                    } else {
                        assert_eq!(cache.on_delete(&p(&[row])), 1);
                        live.retain(|&v| v != pick);
                    }
                }
                let predicted = (cache.len() == 4).then(|| scan_victim(&cache, policy).unwrap());
                let lo = f64::from(i);
                let id = cache.insert(c(&[(lo, lo + 0.5)]), &[p(&[lo + 0.25])]);
                live.push(id);
                if let Some(victim) = predicted {
                    assert!(
                        cache.get(victim).is_none(),
                        "{policy:?}: index evicted a different item than the reference scan"
                    );
                    live.retain(|&v| v != victim);
                }
                assert_eq!(cache.len(), live.len().min(4));
            }
        }
    }

    #[test]
    fn lookup_is_cover_ordered() {
        let mut cache = Cache::new(2);
        // Three items with strictly increasing overlap with the query
        // region, inserted in ascending-overlap order.
        let small =
            cache.insert(c(&[(0.0, 0.2), (0.0, 0.2)]), &[p(&[0.05, 0.05]), p(&[0.15, 0.15])]);
        let medium =
            cache.insert(c(&[(0.0, 0.5), (0.0, 0.5)]), &[p(&[0.05, 0.45]), p(&[0.45, 0.05])]);
        let large =
            cache.insert(c(&[(0.0, 0.9), (0.0, 0.9)]), &[p(&[0.05, 0.85]), p(&[0.85, 0.05])]);
        let (order, stats) = lookup(&cache, &c(&[(0.0, 1.0), (0.0, 1.0)]));
        assert_eq!(order, vec![large, medium, small], "descending overlap area");
        assert_eq!(stats.scans, 3);
    }

    #[test]
    fn lookup_answers_a_repeat_with_the_lowest_exact_id_alone() {
        let mut cache = Cache::new(2);
        let wide = cache.insert(c(&[(0.0, 2.0), (0.0, 2.0)]), &[p(&[0.5, 0.5])]);
        let first = cache.insert(c(&[(0.0, 1.0), (0.0, 1.0)]), &[p(&[0.5, 0.5])]);
        let second = cache.insert(c(&[(0.0, 1.0), (0.0, 1.0)]), &[]);
        // No item under these constraints: every overlapping item.
        let (ids, stats) = lookup(&cache, &c(&[(0.0, 1.5), (0.0, 1.5)]));
        assert_eq!((ids.len(), stats.scans), (3, 3));
        // A repeat, however it spells its zeros: the older duplicate alone.
        let repeat = c(&[(-0.0, 1.0), (-0.0, 1.0)]);
        let (ids, stats) = lookup(&cache, &repeat);
        assert_eq!((ids, stats.scans), (vec![first], 1));
        cache.remove(first).unwrap();
        assert_eq!(lookup(&cache, &repeat).0, [second]);
        // With no exact item left the slow path answers again.
        cache.remove(second).unwrap();
        assert_eq!(lookup(&cache, &repeat).0, [wide]);
    }

    #[test]
    fn skyline_text_is_shared_between_copies_and_replaced_with_the_skyline() {
        let mut master = Cache::new(2);
        let a = master.insert(c(&[(0.0, 1.0), (0.0, 1.0)]), &[p(&[0.5, 0.5]), p(&[0.2, 0.8])]);
        let snapshot = master.clone();
        // The master copies the item to count the use; the slot stays one.
        master.touch(a);
        assert!(!std::ptr::eq(master.get(a).unwrap(), snapshot.get(a).unwrap()));
        let text = snapshot.get(a).unwrap().skyline_text();
        assert_eq!(&*text, " 0.2,0.8 0.5,0.5");
        assert!(Arc::ptr_eq(&text, &master.get(a).unwrap().skyline_text()));

        // A changed skyline starts a slot of its own; the snapshot keeps
        // the old block and the old text.
        assert_eq!(master.on_insert(&p(&[0.1, 0.1])), 1);
        assert_eq!(&*master.get(a).unwrap().skyline_text(), " 0.1,0.1");
        assert!(Arc::ptr_eq(&text, &snapshot.get(a).unwrap().skyline_text()));
    }
}
