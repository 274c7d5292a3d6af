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
//! Replacement (Section 6.2) is not the items' business: a [`Cache`] is
//! what a query reads, and its `insert` never evicts. LRU (least recently
//! used) and LCU (least commonly used) eviction live in one
//! `Replacement` record beside the master cache of a
//! [`crate::SharedCache`]: a victim key per item, kept in an ordered
//! victim index — no per-eviction scan — and the logical clock. A hit
//! writes that record alone, and no published snapshot carries it.

// An out-of-bounds index here would panic a thread holding the shared
// cache: every access goes through `get`.
#![deny(clippy::indexing_slicing)]

// BTreeMap, not HashMap: eviction order and the order of dynamic-data
// maintenance feed back into query planning, and iteration order must
// not depend on a randomized hasher (`clippy.toml` bans the hash
// collections).
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use crate::render_points;

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

/// A cached constrained-skyline result: what a lookup reads, written
/// once. How often and how lately it was used is the master's
/// `Replacement` record's to know, so a hit copies nothing.
#[derive(Clone, Debug)]
pub struct CacheItem {
    /// Unique id within the cache.
    pub id: u64,
    /// The constraints `C` the skyline was computed under.
    pub constraints: Constraints,
    /// The cached result `Sky(S, C)` in columnar form: steady-state
    /// planning copies coordinate rows out of this block instead of
    /// cloning one heap-boxed `Point` per cached result point.
    pub skyline: PointBlock,
    /// Minimum bounding rectangle of the skyline (`None` when empty).
    pub mbr: Option<Aabb>,
    /// `skyline` as text ([`render_points`]): empty until the first exact
    /// hit renders it, read by every later one. Every cache that holds
    /// the item holds this one slot; [`Cache::on_insert`], which changes
    /// a skyline, starts an empty one in its copy of the item.
    pub(crate) text: OnceLock<Arc<str>>,
}

impl CacheItem {
    /// The box a lookup finds the item by: its skyline's MBR, or its
    /// constraint region when the skyline is empty.
    pub fn index_box(&self) -> &Aabb {
        self.mbr.as_ref().unwrap_or_else(|| self.constraints.aabb())
    }

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
    /// Candidates the lookup found: the items whose index box meets the
    /// query region (1 when an item cached under the very constraints
    /// answered the lookup alone, 0 when no index box meets the query).
    pub scans: u64,
}

/// The cache: items plus one R\*-tree over their constraint regions.
///
/// `Clone` is deliberate: the multi-tenant [`crate::SharedCache`]
/// publishes immutable epoch snapshots by cloning the write-side master.
/// A clone is a fully independent, internally consistent cache state
/// that *shares* everything immutable with its source: items sit behind
/// `Arc` and the R\*-tree is persistent, so cloning copies one pointer
/// per item and one root pointer — no points, no boxes, no tree nodes,
/// and no replacement state, which stays on the master's
/// `Replacement` record. Every mutation un-shares just what it changes
/// (`Arc::make_mut`), so neither copy can observe the other's writes.
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
    next_id: u64,
    dims: usize,
    /// Items evicted by a `Replacement` record since construction.
    evictions: u64,
    /// Items individually examined by dynamic-data maintenance
    /// ([`Cache::on_insert`]).
    maintenance_scans: u64,
}

impl Cache {
    /// Creates an empty cache for `dims`-dimensional data.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "zero-dimensional cache");
        Cache {
            items: BTreeMap::new(),
            index: RStarTree::new(dims),
            next_id: 0,
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

    /// Inserts a result and returns its id; nothing is evicted here (a
    /// master cache's `Replacement` record evicts).
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn insert(&mut self, constraints: Constraints, skyline: &[Point]) -> u64 {
        assert_eq!(constraints.dims(), self.dims, "constraints dimensionality mismatch");
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
        let item = CacheItem { id, constraints, skyline: block, mbr, text: OnceLock::new() };
        self.items.insert(id, Arc::new(item));
        id
    }

    /// [`Cache::insert`], ignoring `cost`: it remains only because
    /// skybench calls it, until ROADMAP item 1h deletes it and [`ItemCost`].
    pub fn insert_with_cost(&mut self, c: Constraints, skyline: &[Point], _: ItemCost) -> u64 {
        self.insert(c, skyline)
    }

    /// Removes an item by id, returning it (still shared with any clone
    /// of the cache that holds it).
    pub fn remove(&mut self, id: u64) -> Option<Arc<CacheItem>> {
        let item = self.items.remove(&id)?;
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
    /// `ids` is every item whose index box ([`CacheItem::index_box`])
    /// intersects the query region (the paper's `R_C′ ∩ MBR ≠ ∅`), in
    /// the order the walk meets them: ranking them is the search
    /// strategy's ([`crate::SearchStrategy::select_indexed`]). Returns
    /// the work accounting.
    ///
    /// An exact item answers with zero fetch under every search
    /// strategy, so nothing else is worth finding once it is: the probe
    /// is one containment descent of the R\*-tree
    /// ([`RStarTree::for_each_equal`]), and the window walk never runs.
    ///
    /// Otherwise the walk visits every item whose constraint region meets
    /// the query — an index box lies inside its item's constraints, so no
    /// candidate is missed — and keeps those whose index box meets it
    /// too.
    ///
    /// Allocation-free in steady state: both tree walks are recursive
    /// visitors, so a warm `ids` vector (one word per candidate of the
    /// largest lookup so far) never regrows.
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
            if self.items.get(id).is_some_and(|item| item.index_box().intersects(query)) {
                // Into the caller's reused scratch vector: steady state reuses its capacity.
                ids.push(*id);
            }
        });
        LookupStats { scans: ids.len() as u64 }
    }

    /// The lowest id cached under constraints whose box equals `query`
    /// numerically, if any: one containment descent of the R\*-tree.
    fn exact_id(&self, query: &Aabb) -> Option<u64> {
        let mut found: Option<u64> = None;
        self.index.for_each_equal(query, |&id| found = Some(found.map_or(id, |low| low.min(id))));
        found
    }

    /// Items a `Replacement` record evicted since construction
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
            // cache's own copy of the item, never in one a clone still
            // shares. Text rendered from the old skyline would be a wrong
            // answer for the new one, so the copy starts an empty slot;
            // the copies that keep the old skyline keep the old text. The
            // item stays where it is in the index, under its constraints;
            // only its MBR follows the skyline.
            let item = Arc::make_mut(item);
            item.text = OnceLock::new();
            item.skyline.retain_rows(|s| !dominates_rows(p.coords(), s));
            item.skyline.push(p);
            item.mbr = Aabb::bounding_rows(item.skyline.rows());
            updated += 1;
        }
        updated
    }

    /// Dynamic-data maintenance on deletion: cached results whose skyline
    /// contains the deleted point can no longer be trusted (points it
    /// dominated may resurface) and are dropped — the conservative
    /// strategy; exclusive-dominance-region recomputation à la DeltaSky
    /// (paper ref. [21]) is a possible refinement. Returns the ids of the
    /// items dropped, ascending, for a `Replacement` record to forget.
    pub fn on_delete(&mut self, p: &Point) -> Vec<u64> {
        // An item whose skyline holds p has constraints that contain it.
        let affected = self.items_around(p, |item| item.skyline.rows().any(|s| s == p.coords()));
        for &id in &affected {
            self.remove(id);
        }
        affected
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

/// The replacement record of a master cache (paper Section 6.2): each
/// item's victim key `(rank, admitted)` — `rank` the stamp of its last
/// use under LRU, its number of uses under LCU; `admitted` its admission
/// stamp, which breaks ties oldest first — the same keys in an ordered
/// victim index, the logical clock, the capacity and the policy.
///
/// [`crate::SharedCache`] keeps it beside its master [`Cache`], under the
/// master lock, and tells it of every item that comes and goes there:
/// [`Replacement::admit`] after an insert, [`Replacement::forget`] for
/// each id [`Cache::on_delete`] dropped. A hit's [`Replacement::touch`]
/// writes nothing else, and no published snapshot has a record.
#[derive(Debug, Default)]
pub(crate) struct Replacement {
    policy: ReplacementPolicy,
    capacity: Option<usize>,
    /// Advanced by every admission and every use: the stamps it issues
    /// strictly increase.
    clock: u64,
    /// Uses recorded since construction.
    touches: u64,
    /// Each item's victim key, by id.
    keys: BTreeMap<u64, (u64, u64)>,
    /// The keys of `keys`, ordered: the victim is the first.
    victims: BTreeMap<(u64, u64), u64>,
}

impl Replacement {
    /// An empty record.
    ///
    /// # Panics
    /// Panics if `capacity == Some(0)`.
    pub(crate) fn new(capacity: Option<usize>, policy: ReplacementPolicy) -> Self {
        assert!(capacity != Some(0), "capacity must be at least 1");
        Replacement { policy, capacity, ..Replacement::default() }
    }

    /// Items the record holds a key for.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Uses recorded since construction.
    pub(crate) fn touches(&self) -> u64 {
        self.touches
    }

    /// Admits `id`, just inserted into `cache`, then evicts the smallest
    /// keys other than `id` until `cache` is within capacity. Returns how
    /// many items it evicted.
    pub(crate) fn admit(&mut self, cache: &mut Cache, id: u64) -> u64 {
        let admitted = self.tick();
        let rank = if self.policy == ReplacementPolicy::Lru { admitted } else { 0 };
        self.set(id, (rank, admitted));
        let evictions_before = cache.evictions;
        while self.capacity.is_some_and(|cap| cache.len() > cap) {
            let Some(victim) = self.victims.values().copied().find(|&v| v != id) else { break };
            cache.remove(victim);
            cache.evictions += 1;
            self.forget(victim);
        }
        cache.evictions - evictions_before
    }

    /// Records a use of item `id`. An unknown id leaves the clock alone,
    /// so recency only advances on real cache events.
    pub(crate) fn touch(&mut self, id: u64) {
        let Some(&(rank, admitted)) = self.keys.get(&id) else { return };
        let used = self.tick();
        self.touches += 1;
        let rank = if self.policy == ReplacementPolicy::Lru { used } else { rank + 1 };
        self.set(id, (rank, admitted));
    }

    /// Drops item `id`'s key, if it has one.
    pub(crate) fn forget(&mut self, id: u64) {
        if let Some(key) = self.keys.remove(&id) {
            self.victims.remove(&key);
        }
    }

    fn set(&mut self, id: u64, key: (u64, u64)) {
        if let Some(old) = self.keys.insert(id, key) {
            self.victims.remove(&old);
        }
        self.victims.insert(key, id);
    }

    /// The next stamp. Invariant (debug builds, `O(log n)`): the clock
    /// has run past every recorded stamp — the newest admission (the
    /// highest id's) and the top rank (under LRU the newest use; under LCU
    /// a use count, which never exceeds the uses stamped). If a stale
    /// clock re-issued an old stamp, LRU would rank a fresh use below an
    /// ancient one.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        let newest_admission = self.keys.last_key_value().map_or(0, |(_, key)| key.1);
        let top_rank = self.victims.last_key_value().map_or(0, |(key, _)| key.0);
        let newest = newest_admission.max(top_rank);
        debug_assert!(newest < self.clock, "logical clock fell behind a recorded stamp");
        debug_assert_eq!(self.keys.len(), self.victims.len(), "victim index out of step");
        self.clock
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

    /// `lookup_into` with a throwaway scratch: the ids it found (in walk
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

    /// A cache and its replacement record, as a shared cache's master
    /// holds them.
    struct Master {
        cache: Cache,
        record: Replacement,
    }

    impl Master {
        fn new(capacity: Option<usize>, policy: ReplacementPolicy) -> Self {
            Master { cache: Cache::new(1), record: Replacement::new(capacity, policy) }
        }

        /// Inserts and admits one item on `[lo, lo + 1]`; returns its id.
        fn insert(&mut self, lo: f64) -> u64 {
            let id = self.cache.insert(c(&[(lo, lo + 1.0)]), &[p(&[lo + 0.5])]);
            self.record.admit(&mut self.cache, id);
            id
        }

        fn has(&self, id: u64) -> bool {
            self.cache.get(id).is_some()
        }
    }

    #[test]
    fn lru_eviction() {
        let mut m = Master::new(Some(2), ReplacementPolicy::Lru);
        let a = m.insert(0.0);
        let b = m.insert(1.0);
        m.record.touch(a); // a is now more recent than b
        m.insert(2.0);
        assert_eq!(m.cache.len(), 2);
        assert!(m.has(a), "recently used item kept");
        assert!(!m.has(b), "LRU item evicted");
    }

    #[test]
    fn lcu_eviction() {
        let mut m = Master::new(Some(2), ReplacementPolicy::Lcu);
        let a = m.insert(0.0);
        let b = m.insert(1.0);
        m.record.touch(b);
        m.record.touch(b);
        m.record.touch(a);
        m.insert(2.0);
        assert!(m.has(b), "commonly used item kept");
        assert!(!m.has(a), "LCU item evicted");
    }

    #[test]
    fn newest_item_is_protected_from_eviction() {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Lcu] {
            let mut m = Master::new(Some(1), policy);
            let a = m.insert(0.0);
            let b = m.insert(1.0);
            assert_eq!((m.cache.len(), m.record.len()), (1, 1));
            assert!(!m.has(a));
            assert!(m.has(b));
        }
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
        assert!(cache.on_delete(&p(&[13.2, 13.2])).is_empty());
        assert_eq!(cache.maintenance_scans(), 2);
        assert_eq!(cache.on_delete(&p(&[13.0, 13.0])).len(), 1);
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
        assert_eq!(dropped, [a, b]);
        assert!(cache.get(a).is_none());
        assert!(cache.get(b).is_none());
        assert!(cache.get(keep).is_some());
        // Deleting a non-skyline point is free.
        assert!(cache.on_delete(&p(&[9.0, 9.0])).is_empty());
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
        let mut m = Master::new(Some(2), ReplacementPolicy::Lru);
        let a = m.insert(0.0);
        m.insert(1.0);
        assert_eq!(m.cache.evictions(), 0);
        m.insert(2.0);
        assert_eq!(m.cache.evictions(), 1);
        assert!(!m.has(a));
        // Explicit removal is not an eviction.
        let survivor = m.cache.iter().next().unwrap().id;
        m.cache.remove(survivor).unwrap();
        assert_eq!(m.cache.evictions(), 1);
    }

    #[test]
    fn touch_updates_counters() {
        let mut m = Master::new(None, ReplacementPolicy::Lru);
        let a = m.insert(0.0);
        let (rank, admitted) = m.record.keys[&a];
        assert_eq!(rank, admitted);
        m.record.touch(a);
        assert_eq!(m.record.touches(), 1);
        assert!(m.record.keys[&a].0 > rank, "a use moves the LRU rank past the admission");
        let mut m = Master::new(None, ReplacementPolicy::Lcu);
        let a = m.insert(0.0);
        m.record.touch(a);
        m.record.touch(a);
        assert_eq!((m.record.keys[&a].0, m.record.touches()), (2, 2), "the LCU rank counts uses");
    }

    #[test]
    fn logical_clock_is_strictly_monotone_over_cache_events() {
        // Invariant behind `Replacement::tick`'s assertion: every
        // admission and every successful touch is stamped strictly past
        // every stamp recorded before it, so LRU recency is a total,
        // stable order.
        let mut m = Master::new(None, ReplacementPolicy::Lru);
        let mut seen_max = 0u64;
        let mut ids = Vec::new();
        for i in 0..5 {
            let id = m.insert(f64::from(i));
            let stamp = m.record.keys[&id].1;
            assert!(stamp > seen_max, "admission stamp {stamp} not past {seen_max}");
            seen_max = stamp;
            ids.push(id);
        }
        for &id in ids.iter().rev() {
            m.record.touch(id);
            let stamp = m.record.keys[&id].0;
            assert!(stamp > seen_max, "touch stamp {stamp} not past {seen_max}");
            seen_max = stamp;
        }
        // A failed touch leaves the clock and the order alone.
        m.record.touch(9999);
        assert_eq!(m.record.clock, seen_max);
        assert!(m.record.keys.values().all(|&(rank, _)| rank <= seen_max));
    }

    #[test]
    fn touch_on_unknown_id_does_not_advance_the_clock() {
        // Regression: touch() used to bump the clock before checking
        // presence, so misses inflated later items' recency timestamps.
        let mut m = Master::new(None, ReplacementPolicy::Lru);
        let a = m.insert(0.0);
        m.record.touch(a + 1000); // no such item
        let b = m.insert(1.0);
        assert_eq!(m.record.keys[&a], (1, 1));
        assert_eq!(m.record.keys[&b], (2, 2));
        assert_eq!(m.record.touches(), 0);
    }

    /// What the three retired per-item counters recorded of one item.
    #[derive(Clone, Copy)]
    struct Counters {
        inserted_at: u64,
        last_used: u64,
        use_count: u64,
    }

    /// The victim a full scan over the counters selects: the retired
    /// `evict_one` scan, the reference for the differential test below.
    fn scan_victim(model: &BTreeMap<u64, Counters>, policy: ReplacementPolicy) -> Option<u64> {
        let key = |(&id, it): (&u64, &Counters)| match policy {
            ReplacementPolicy::Lru => (it.last_used, it.inserted_at, id),
            ReplacementPolicy::Lcu => (it.use_count, it.inserted_at, id),
        };
        model.iter().map(key).min().map(|(_, _, id)| id)
    }

    #[test]
    fn victim_index_matches_reference_scan() {
        // Differential pin: the record's ordered victim index evicts
        // exactly the item a full scan over an independent model of the
        // retired counters (`inserted_at`, `last_used`, `use_count`)
        // selects, over a deterministic pseudo-random schedule of
        // inserts, touches and dynamic-data maintenance — inserted points
        // that change a live item's skyline, deleted points that drop the
        // item. (The newly inserted item is protected in both, so the
        // pre-insert scan predicts the victim.)
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Lcu] {
            let mut m = Master::new(Some(4), policy);
            let mut model: BTreeMap<u64, Counters> = BTreeMap::new();
            let mut clock = 0u64;
            let mut state = 0x2545_F491_4F6C_DD1Du64; // LCG seed
            for i in 0..200 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let live: Vec<u64> = model.keys().copied().collect();
                // Interleave touches of pseudo-random live items.
                if !live.is_empty() && !state.is_multiple_of(3) {
                    let pick = live[(state >> 33) as usize % live.len()];
                    m.record.touch(pick);
                    clock += 1;
                    let it = model.get_mut(&pick).unwrap();
                    (it.last_used, it.use_count) = (clock, it.use_count + 1);
                }
                // Every item's constraints are disjoint from the others',
                // so each point lands in exactly the picked item.
                if !live.is_empty() && (state >> 40).is_multiple_of(4) {
                    let pick = live[(state >> 13) as usize % live.len()];
                    let item = m.cache.get(pick).unwrap();
                    let (lo, row) = (item.constraints.lo()[0], item.skyline.row(0)[0]);
                    if (state >> 50).is_multiple_of(2) {
                        assert_eq!(m.cache.on_insert(&p(&[(lo + row) / 2.0])), 1);
                    } else {
                        assert_eq!(m.cache.on_delete(&p(&[row])), [pick]);
                        m.record.forget(pick);
                        model.remove(&pick);
                    }
                }
                let predicted = (model.len() == 4).then(|| scan_victim(&model, policy).unwrap());
                let id = m.insert(f64::from(i));
                clock += 1;
                model.insert(id, Counters { inserted_at: clock, last_used: clock, use_count: 0 });
                if let Some(victim) = predicted {
                    assert!(
                        !m.has(victim),
                        "{policy:?}: index evicted a different item than the reference scan"
                    );
                    model.remove(&victim);
                }
                let held: Vec<u64> = m.cache.iter().map(|it| it.id).collect();
                assert_eq!(held, model.keys().copied().collect::<Vec<_>>());
                assert_eq!(m.record.len(), held.len());
            }
        }
    }

    #[test]
    fn lookup_finds_every_item_whose_index_box_meets_the_query() {
        let mut cache = Cache::new(2);
        // Three items with strictly increasing overlap with the query
        // region, inserted in ascending-overlap order, and one whose
        // constraints meet the query but whose MBR does not.
        let small =
            cache.insert(c(&[(0.0, 0.2), (0.0, 0.2)]), &[p(&[0.05, 0.05]), p(&[0.15, 0.15])]);
        let medium =
            cache.insert(c(&[(0.0, 0.5), (0.0, 0.5)]), &[p(&[0.05, 0.45]), p(&[0.45, 0.05])]);
        let large =
            cache.insert(c(&[(0.0, 0.9), (0.0, 0.9)]), &[p(&[0.05, 0.85]), p(&[0.85, 0.05])]);
        cache.insert(c(&[(0.0, 2.0), (0.0, 2.0)]), &[p(&[1.5, 1.5])]);
        let (mut found, stats) = lookup(&cache, &c(&[(0.0, 1.0), (0.0, 1.0)]));
        found.sort_unstable();
        assert_eq!(found, vec![small, medium, large], "the candidate set");
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
        let mut record = Replacement::new(None, ReplacementPolicy::Lru);
        let a = master.insert(c(&[(0.0, 1.0), (0.0, 1.0)]), &[p(&[0.5, 0.5]), p(&[0.2, 0.8])]);
        record.admit(&mut master, a);
        let snapshot = master.clone();
        // A use is the record's: the master's item stays the snapshot's.
        record.touch(a);
        assert!(std::ptr::eq(master.get(a).unwrap(), snapshot.get(a).unwrap()));
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
