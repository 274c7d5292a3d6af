//! Multi-user CBCS: a thread-safe cache shared by concurrent executors.
//!
//! The paper's second workload models "independent queries in a
//! multi-user system" — many users benefiting from one cache. This module
//! provides that deployment shape: a [`SharedCache`] shared by one
//! [`crate::service::Session`] per user (constructed through
//! [`crate::service::Service::session`]).
//!
//! # Epoch/snapshot protocol
//!
//! The cache state is held twice:
//!
//! * a **master** behind a `RwLock` — the authoritative write side every
//!   mutation (`touch`, `publish`) goes through: the [`Cache`] and, beside
//!   it, the replacement record (the LRU/LCU victim keys, the ordered
//!   victim index, the clock, the capacity and the policy);
//! * a **published snapshot** — an `Arc<Cache>` behind an `RwLock`,
//!   replaced wholesale by `publish` (clone-and-publish), never mutated
//!   in place. It is the items a query reads and nothing else: no
//!   snapshot has a replacement record.
//!
//! Clone-and-publish is cheap because [`Cache`] shares structure: items
//! sit behind `Arc` and the one R\*-tree is persistent, so
//! `master.clone()` copies one pointer per item and one root pointer — no
//! points, no boxes, no tree nodes, no victim index — and dropping the
//! snapshot it replaces frees only what no other snapshot or the master
//! still holds. The master then un-shares exactly what its next write
//! changes: the tree nodes on one insert path, or the one item whose
//! skyline `on_insert` rewrites. What a publish costs follows what
//! changed since the last one, not everything ever cached.
//!
//! Readers call [`SharedCache::snapshot`], which clones the `Arc` under
//! a momentary read lock and releases it before any lookup work begins:
//! the cache search, case analysis and planning run against the pinned
//! immutable snapshot with *no* lock held, so concurrent lookups never
//! serialize on the write side and an in-flight insert never blocks them.
//! The plan owns the points it retained, so the snapshot is released
//! before fetching and the skyline computation start. A monotone epoch
//! counter is bumped with every publication so observers can tell
//! snapshots apart without comparing contents; because the snapshot is
//! swapped as a whole `Arc`, a reader sees either the pre-insert or the
//! post-insert cache, never a torn intermediate (model-checked in
//! `crates/core/tests/model_serve.rs`).
//!
//! `touch` (LRU/LCU bookkeeping on a hit) writes the master's replacement
//! record and nothing else: replacement decisions made under the master
//! lock always see it, and a hit stays free of the publication — the
//! snapshot swap, the epoch bump and the per-item pointer copies — that
//! nothing reading a snapshot needs (lookups rank by geometry, never by
//! recency). No item is copied for it: the master's items stay the
//! snapshots' own. An exact hit's whole write phase is that one `touch`:
//! a single master write lock and no publication. Every other computed
//! answer is inserted — the cache refuses none — admitted to the record,
//! which evicts down to capacity, and published once, as is each write of
//! [`crate::Service::insert`] and [`crate::Service::delete`]: `publish` is
//! the one write path that changes what queries see.
//!
//! Lock order is `master → snap`, only ever in that direction (the
//! publication happens nested under the master guard so two racing
//! inserts cannot publish out of order). Every guard lives inside one
//! [`SharedCache`] method; what a write did comes back by value and the
//! pipeline adds it to its statistics after the call returns. Debug
//! builds check both rules: each acquisition asserts how many guards its
//! thread already holds (`skycheck::sync::held_guards`: none, or the
//! master guard for `publish`'s nested `snap` write), and planning,
//! fetching and the skyline assert that the thread holds none. A cached
//! item may be evicted between the snapshot read and the write phase;
//! that is benign (the plan was built from the pinned snapshot, and
//! `touch` on a gone item is a no-op).
//!
//! The query flow itself is not written here: a session runs the one
//! CBCS pipeline of [`crate::service`] against these methods — snapshot
//! reads, master writes.

// An out-of-bounds index here would panic a thread holding the shared
// cache: every access goes through `get`.
#![deny(clippy::indexing_slicing)]

// Shim sync primitives: identical to `std`/`parking_lot` in production,
// schedulable under a `skycheck::Explorer` model run (see DESIGN.md §15).
use skycheck::sync::{held_guards, Arc, AtomicU64, Ordering, RwLock};

use crate::cache::{Cache, Replacement};
use crate::engine::CbcsConfig;

/// The authoritative cache state: the items and their replacement record,
/// kept in step under one lock.
struct Master {
    cache: Cache,
    record: Replacement,
}

/// Write side plus published snapshot; see the module docs for the
/// protocol. Private so no caller can reach a raw lock or its guard —
/// all access flows through the sealed [`SharedCache`] methods.
struct SharedCacheInner {
    /// Every mutation happens here first. A `RwLock` so metadata reads
    /// (`len`, `with_read`) stay shared and re-entrant; the query path
    /// never read-locks it — it reads `snap`.
    master: RwLock<Master>,
    /// Immutable snapshot readers clone; replaced wholesale on insert.
    snap: RwLock<Arc<Cache>>,
    /// Publication counter; bumped once per snapshot swap.
    epoch: AtomicU64,
}

/// Debug builds: asserts that the calling thread holds `n` shim guards.
/// Each acquisition below holds none, except `publish`'s nested `snap`
/// write, which holds the master guard; planning, fetching and the
/// skyline start holding none.
pub(crate) fn assert_guards_held(n: usize) {
    debug_assert_eq!(
        held_guards(),
        n,
        "the lock order is master → snap, and no guard spans planning, fetching or the skyline"
    );
}

/// A cache shared between executors (and threads), sealed behind an
/// epoch/snapshot read protocol.
///
/// Cloning the handle is cheap and shares the same underlying cache.
#[derive(Clone)]
pub struct SharedCache {
    inner: Arc<SharedCacheInner>,
}

impl SharedCache {
    /// Creates a shared cache with the capacity/policy of `config`.
    pub fn new(dims: usize, config: &CbcsConfig) -> Self {
        let cache = Cache::new(dims);
        let snap = Arc::new(cache.clone());
        let master = Master { cache, record: Replacement::new(config.capacity, config.policy) };
        SharedCache {
            inner: Arc::new(SharedCacheInner {
                master: RwLock::new(master),
                snap: RwLock::new(snap),
                epoch: AtomicU64::new(0),
            }),
        }
    }

    /// The currently published snapshot.
    ///
    /// The internal read lock is held only for the `Arc` clone — the
    /// returned cache is immutable and can be searched for as long as
    /// the caller likes without blocking writers.
    pub fn snapshot(&self) -> Arc<Cache> {
        assert_guards_held(0);
        self.inner.snap.read().clone()
    }

    /// The publication epoch: how many snapshots have been published.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Number of cached items (authoritative, reads the master).
    pub fn len(&self) -> usize {
        assert_guards_held(0);
        self.inner.master.read().cache.len()
    }

    /// Whether the cache is empty (authoritative, reads the master).
    pub fn is_empty(&self) -> bool {
        assert_guards_held(0);
        self.inner.master.read().cache.is_empty()
    }

    /// Runs a closure with read access to the authoritative cache state,
    /// the master's [`Cache`] (its counters, such as
    /// [`Cache::evictions`], included).
    ///
    /// The closure must stay cheap: it runs under the master read lock
    /// (shared and re-entrant, so nested `with_read` is safe, which makes
    /// this the one acquisition that may run under another guard).
    pub fn with_read<R>(&self, f: impl FnOnce(&Cache) -> R) -> R {
        f(&self.inner.master.read().cache)
    }

    /// Uses of cached items recorded since construction (one per hit).
    pub fn touches(&self) -> u64 {
        assert_guards_held(0);
        self.inner.master.read().record.touches()
    }

    /// Records a hit on item `id` in the master's replacement record (a
    /// no-op if the item is gone) — no item is written and nothing is
    /// republished, see the module docs.
    pub(crate) fn touch(&self, id: u64) {
        assert_guards_held(0);
        self.inner.master.write().record.touch(id);
    }

    /// Runs `write` on the master's cache and its replacement record,
    /// publishes a fresh snapshot of the cache and bumps the epoch;
    /// returns what `write` returned, by value, so the caller adds it to
    /// its statistics after the guard is gone. `write` runs under the
    /// master guard and must stay cheap: an insert or an index-probed
    /// maintenance pass, never planning or a fetch. It must tell the
    /// record of every item it adds or drops.
    pub(crate) fn publish<R>(&self, write: impl FnOnce(&mut Cache, &mut Replacement) -> R) -> R {
        assert_guards_held(0);
        let mut master = self.inner.master.write();
        let Master { cache, record } = &mut *master;
        let written = write(cache, record);
        debug_assert_eq!(record.len(), cache.len(), "replacement record out of step with items");
        // Publish nested under the master guard: racing writes publish
        // in master order, so a newer snapshot is never overwritten by
        // an older one. The clone shares items and tree nodes with the
        // master (see the module docs), so holding the lock across it is
        // cheap.
        let published = Arc::new(cache.clone());
        assert_guards_held(1);
        *self.inner.snap.write() = published;
        self.inner.epoch.fetch_add(1, Ordering::Release);
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Executor, QueryOutcome, QueryRequest};
    use crate::service::{Service, ServiceConfig};
    use skycache_geom::{Constraints, Point};
    use skycache_storage::{Table, TableConfig};

    fn run(ex: &mut impl Executor, c: &Constraints) -> QueryOutcome {
        ex.execute(&QueryRequest::new(c.clone())).unwrap()
    }

    /// The door every deployment uses.
    fn open(t: &Table, cbcs: CbcsConfig) -> Service<'_> {
        Service::open(t, ServiceConfig::with_cbcs(cbcs))
    }

    fn table() -> Table {
        let points: Vec<Point> = (0..20)
            .flat_map(|i| {
                (0..20).map(move |j| Point::from(vec![f64::from(i) / 10.0, f64::from(j) / 10.0]))
            })
            .collect();
        Table::build(points, TableConfig::default()).unwrap()
    }

    #[test]
    fn second_user_hits_first_users_result() {
        let t = table();
        let service = open(&t, CbcsConfig::default());
        let shared = service.cache();
        let mut alice = service.session();
        let mut bob = service.session();

        let c = Constraints::from_pairs(&[(0.2, 1.0), (0.2, 1.0)]).unwrap();
        let r1 = run(&mut alice, &c);
        assert!(!r1.stats.cache_hit);

        let r2 = run(&mut bob, &c);
        assert!(r2.stats.cache_hit, "bob must hit alice's cached result");
        assert_eq!(r2.skyline, r1.skyline);
        // Bob's exact hit does not re-insert: the result is already
        // cached under the identical constraints.
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn epoch_advances_once_per_insert_and_snapshots_are_stable() {
        let t = table();
        let service = open(&t, CbcsConfig::default());
        let shared = service.cache();
        assert_eq!(shared.epoch(), 0);
        let before = shared.snapshot();
        assert!(before.is_empty());

        let mut ex = service.session();
        let c = Constraints::from_pairs(&[(0.2, 1.0), (0.2, 1.0)]).unwrap();
        run(&mut ex, &c);

        // One execute on a miss = one insert = one publication.
        assert_eq!(shared.epoch(), 1);
        assert_eq!(shared.snapshot().len(), 1);
        // The pre-insert snapshot is immutable: still empty.
        assert!(before.is_empty());
    }

    #[test]
    fn publish_shares_items_and_touch_stays_on_the_master() {
        let t = table();
        let service = open(&t, CbcsConfig::default());
        let shared = service.cache();
        let boxed = |lo: f64| Constraints::from_pairs(&[(lo, lo + 1.0), (lo, lo + 1.0)]).unwrap();
        let point = |v: f64| [Point::from(vec![v, v])];
        let insert = |lo: f64| {
            shared.publish(|cache, record| {
                let id = cache.insert(boxed(lo), &point(lo + 0.5));
                record.admit(cache, id)
            })
        };
        insert(0.0);
        let first = shared.snapshot();
        insert(2.0);
        let second = shared.snapshot();
        assert_eq!((first.len(), second.len()), (1, 2));

        // The item both snapshots hold is one allocation, not two copies.
        let id = first.iter().next().unwrap().id;
        assert!(std::ptr::eq(first.get(id).unwrap(), second.get(id).unwrap()));

        // A hit's bookkeeping lands in the master's replacement record:
        // the master's item stays the very allocation the snapshots hold.
        shared.touch(id);
        assert_eq!(shared.touches(), 1);
        shared.with_read(|master| {
            assert!(std::ptr::eq(master.get(id).unwrap(), second.get(id).unwrap()));
        });
    }

    #[test]
    fn touch_does_not_republish() {
        let t = table();
        let service = open(&t, CbcsConfig::default());
        let shared = service.cache();
        let c = Constraints::from_pairs(&[(0.2, 1.0), (0.2, 1.0)]).unwrap();
        // A miss and its insert publish epoch 1; an exact hit from another
        // session only touches — the key is cached already.
        run(&mut service.session(), &c);
        let r = run(&mut service.session(), &c);
        assert!(r.stats.cache_hit);
        assert_eq!(shared.epoch(), 1, "a hit must not publish a snapshot");
        // But the master saw the LRU bookkeeping.
        assert_eq!(shared.touches(), 1);
    }

    #[test]
    fn concurrent_users_stay_correct() {
        let t = table();
        let service = open(&t, CbcsConfig::default());
        let shared = service.cache();
        let queries: Vec<Constraints> = (0..8)
            .map(|i| {
                let lo = f64::from(i) * 0.05;
                Constraints::from_pairs(&[(lo, lo + 1.0), (0.1, 1.4)]).unwrap()
            })
            .collect();

        // Reference answers, computed single-threaded.
        let mut reference = Vec::new();
        {
            let mut ex = crate::engine::BaselineExecutor::new(&t);
            for c in &queries {
                let mut sky = run(&mut ex, c).skyline;
                sky.sort_by_key(|p| (p[0].to_bits(), p[1].to_bits()));
                reference.push(sky);
            }
        }

        skycheck::sync::thread::scope(|scope| {
            for worker in 0..4 {
                let mut ex = service.session();
                let queries = &queries;
                let reference = &reference;
                scope.spawn(move || {
                    for _round in 0..3 {
                        for (c, want) in queries.iter().zip(reference) {
                            let mut got = run(&mut ex, c).skyline;
                            got.sort_by_key(|p| (p[0].to_bits(), p[1].to_bits()));
                            assert_eq!(&got, want, "worker {worker}");
                        }
                    }
                });
            }
        });
        assert!(shared.len() >= queries.len());
    }
}
