//! Shim synchronization primitives.
//!
//! Outside a model run these compile down to the plain `std::sync` types
//! (non-poisoning, `parking_lot`-style APIs: `lock()`/`read()`/`write()`
//! return guards, not `Result`s). Inside an [`crate::Explorer`] run, every
//! acquire/release/load/store/spawn/join first passes through the
//! cooperative scheduler as a schedule point, so the explorer can enumerate
//! interleavings. The real operation is then performed by the token holder,
//! which makes it trivially race-free and guarantees the `try_*` variants
//! succeed whenever the model granted the operation.
//!
//! Atomics are modelled under sequential consistency (interleaving
//! exploration, not weak memory); `Ordering` arguments are honoured verbatim
//! on the passthrough path and ignored by the scheduler. Statics are
//! supported: object identity is re-registered per run via an
//! epoch-tagged cell.

pub use std::sync::atomic::Ordering;
pub use std::sync::Arc;

#[cfg(debug_assertions)]
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::{PoisonError, TryLockError};

use crate::sched::{self, ObjCell, Op, ThreadCtx};

#[cfg(debug_assertions)]
thread_local! {
    static HELD: Cell<usize> = const { Cell::new(0) };
}

/// How many shim lock guards the calling thread holds right now.
///
/// Counted only in builds with debug assertions (0 otherwise), for
/// `debug_assert!`s such as "no guard is live across planning" and "the
/// second lock is taken only under the first".
pub fn held_guards() -> usize {
    #[cfg(debug_assertions)]
    return HELD.with(Cell::get);
    #[cfg(not(debug_assertions))]
    0
}

/// A guard's entry in its thread's [`held_guards`] count; a no-op type
/// without debug assertions.
struct Held;

impl Held {
    fn take() -> Held {
        #[cfg(debug_assertions)]
        HELD.with(|n| n.set(n.get() + 1));
        Held
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|n| n.set(n.get() - 1));
    }
}

fn strip<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

fn strip_try<G>(r: Result<G, TryLockError<G>>, what: &str) -> G {
    match r {
        Ok(g) => g,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            panic!("skycheck: real {what} contended despite model grant")
        }
    }
}

/// Mutual-exclusion lock; `std::sync::Mutex` with a `parking_lot`-style
/// non-poisoning API, schedulable under a model run.
pub struct Mutex<T: ?Sized> {
    cell: ObjCell,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// New unlocked mutex (usable in `static` position).
    pub const fn new(value: T) -> Self {
        Mutex { cell: ObjCell::new(), inner: std::sync::Mutex::new(value) }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        strip(self.inner.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire exclusively, blocking (or yielding to the scheduler).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match sched::current_ctx() {
            Some(ctx) => {
                let id = self.cell.resolve(&ctx);
                sched::schedule_point(&ctx, Op::AcqExcl(id));
                MutexGuard {
                    inner: Some(strip_try(self.inner.try_lock(), "Mutex")),
                    model: Some((ctx, id)),
                    _held: Held::take(),
                }
            }
            None => MutexGuard {
                inner: Some(strip(self.inner.lock())),
                model: None,
                _held: Held::take(),
            },
        }
    }

    /// Exclusive access through `&mut self` — no locking needed.
    pub fn get_mut(&mut self) -> &mut T {
        strip(self.inner.get_mut())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    model: Option<(ThreadCtx, u32)>,
    _held: Held,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard live")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard live")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Drop the real guard first so the model release finds reality free.
        self.inner.take();
        if let Some((ctx, id)) = self.model.take() {
            if !std::thread::panicking() {
                sched::schedule_point(&ctx, Op::RelExcl(id));
            }
        }
    }
}

/// Reader-writer lock; `std::sync::RwLock` with a `parking_lot`-style
/// non-poisoning API, schedulable under a model run.
///
/// Under the model, shared acquisition is granted whenever no writer holds
/// the lock — including recursively from the thread itself — so nested
/// `read()` calls are safe by construction; a read→write upgrade on the
/// other hand is never enabled and surfaces as a detected deadlock.
pub struct RwLock<T: ?Sized> {
    cell: ObjCell,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// New unlocked lock (usable in `static` position).
    pub const fn new(value: T) -> Self {
        RwLock { cell: ObjCell::new(), inner: std::sync::RwLock::new(value) }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        strip(self.inner.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared, blocking (or yielding to the scheduler).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match sched::current_ctx() {
            Some(ctx) => {
                let id = self.cell.resolve(&ctx);
                sched::schedule_point(&ctx, Op::AcqShared(id));
                RwLockReadGuard {
                    inner: Some(strip_try(self.inner.try_read(), "RwLock (read)")),
                    model: Some((ctx, id)),
                    _held: Held::take(),
                }
            }
            None => RwLockReadGuard {
                inner: Some(strip(self.inner.read())),
                model: None,
                _held: Held::take(),
            },
        }
    }

    /// Acquire exclusive, blocking (or yielding to the scheduler).
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match sched::current_ctx() {
            Some(ctx) => {
                let id = self.cell.resolve(&ctx);
                sched::schedule_point(&ctx, Op::AcqExcl(id));
                RwLockWriteGuard {
                    inner: Some(strip_try(self.inner.try_write(), "RwLock (write)")),
                    model: Some((ctx, id)),
                    _held: Held::take(),
                }
            }
            None => RwLockWriteGuard {
                inner: Some(strip(self.inner.write())),
                model: None,
                _held: Held::take(),
            },
        }
    }

    /// Exclusive access through `&mut self` — no locking needed.
    pub fn get_mut(&mut self) -> &mut T {
        strip(self.inner.get_mut())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    model: Option<(ThreadCtx, u32)>,
    _held: Held,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard live")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        if let Some((ctx, id)) = self.model.take() {
            if !std::thread::panicking() {
                sched::schedule_point(&ctx, Op::RelShared(id));
            }
        }
    }
}

/// RAII exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    model: Option<(ThreadCtx, u32)>,
    _held: Held,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard live")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard live")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        if let Some((ctx, id)) = self.model.take() {
            if !std::thread::panicking() {
                sched::schedule_point(&ctx, Op::RelExcl(id));
            }
        }
    }
}

macro_rules! shim_atomic {
    ($name:ident, $real:path, $prim:ty) => {
        /// Schedulable atomic. Under a model run, loads and stores (and
        /// read-modify-writes) are schedule points explored under sequential
        /// consistency; the `Ordering` argument is applied verbatim on the
        /// passthrough path.
        pub struct $name {
            cell: ObjCell,
            real: $real,
        }

        impl $name {
            /// New atomic (usable in `static` position).
            pub const fn new(value: $prim) -> Self {
                Self { cell: ObjCell::new(), real: <$real>::new(value) }
            }

            /// Atomic load.
            pub fn load(&self, order: Ordering) -> $prim {
                match sched::current_ctx() {
                    Some(ctx) => {
                        let id = self.cell.resolve(&ctx);
                        sched::schedule_point(&ctx, Op::AtLoad(id));
                        self.real.load(Ordering::SeqCst)
                    }
                    None => self.real.load(order),
                }
            }

            /// Atomic store.
            pub fn store(&self, value: $prim, order: Ordering) {
                match sched::current_ctx() {
                    Some(ctx) => {
                        let id = self.cell.resolve(&ctx);
                        sched::schedule_point(&ctx, Op::AtStore(id));
                        self.real.store(value, Ordering::SeqCst);
                    }
                    None => self.real.store(value, order),
                }
            }

            /// Atomic fetch-add, returning the previous value.
            pub fn fetch_add(&self, value: $prim, order: Ordering) -> $prim {
                match sched::current_ctx() {
                    Some(ctx) => {
                        let id = self.cell.resolve(&ctx);
                        sched::schedule_point(&ctx, Op::AtStore(id));
                        self.real.fetch_add(value, Ordering::SeqCst)
                    }
                    None => self.real.fetch_add(value, order),
                }
            }

            /// Atomic swap, returning the previous value.
            pub fn swap(&self, value: $prim, order: Ordering) -> $prim {
                match sched::current_ctx() {
                    Some(ctx) => {
                        let id = self.cell.resolve(&ctx);
                        sched::schedule_point(&ctx, Op::AtStore(id));
                        self.real.swap(value, Ordering::SeqCst)
                    }
                    None => self.real.swap(value, order),
                }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(<$prim>::default())
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.real.fmt(f)
            }
        }
    };
}

shim_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);

/// Schedulable subset of `std::thread`: `spawn`, `scope`, and the
/// `available_parallelism` passthrough.
pub mod thread {
    pub use std::thread::available_parallelism;

    use std::panic;
    use std::sync::Arc;

    use crate::sched::{self, Op, Shared, ThreadCtx};

    fn finish_join<T>(r: std::thread::Result<Option<T>>, modelled: bool) -> std::thread::Result<T> {
        match r {
            Ok(Some(v)) => Ok(v),
            // The child unwound from a run abort; propagate the abort so the
            // joiner unwinds too (it is parked in an aborting run anyway).
            Ok(None) => {
                debug_assert!(modelled);
                panic::resume_unwind(Box::new(crate::sched::AbortPayload))
            }
            Err(e) => Err(e),
        }
    }

    /// Handle for a detached spawned thread.
    pub struct JoinHandle<T> {
        inner: std::thread::JoinHandle<Option<T>>,
        tid: Option<usize>,
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread to finish, returning its value (or the panic
        /// payload, as with `std::thread::JoinHandle::join`).
        pub fn join(self) -> std::thread::Result<T> {
            if let Some(tid) = self.tid {
                let ctx = sched::current_ctx()
                    .expect("skycheck: joining a modelled thread outside its run");
                sched::schedule_point(&ctx, Op::Join(tid));
            }
            finish_join(self.inner.join(), self.tid.is_some())
        }
    }

    /// Spawn a thread; a schedulable drop-in for `std::thread::spawn`.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match sched::current_ctx() {
            Some(ctx) => {
                let tid = ctx.shared.register_thread();
                let shared: Arc<Shared> = ctx.shared.clone();
                JoinHandle {
                    inner: std::thread::spawn(move || sched::run_thread(shared, tid, f)),
                    tid: Some(tid),
                }
            }
            None => JoinHandle { inner: std::thread::spawn(move || Some(f())), tid: None },
        }
    }

    /// Scope for spawning threads that borrow non-`'static` data; a
    /// schedulable drop-in for `std::thread::scope`.
    ///
    /// The closure receives `&Scope<'scope, 'env>` (the receiver borrow is
    /// decoupled from `'scope`, unlike `std`, to wrap the inner scope
    /// without unsafe code) — call sites are source-compatible.
    pub fn scope<'env, F, T>(f: F) -> T
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
    {
        std::thread::scope(|real| {
            let scope = Scope {
                real,
                ctx: sched::current_ctx(),
                pending: Arc::new(std::sync::Mutex::new(Vec::new())),
            };
            let out = f(&scope);
            // Model-join children the closure never joined explicitly, in
            // spawn order, before the real scope's implicit join.
            if let Some(ctx) = &scope.ctx {
                let kids: Vec<usize> = std::mem::take(
                    &mut *scope.pending.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
                );
                for tid in kids {
                    sched::schedule_point(ctx, Op::Join(tid));
                }
            }
            out
        })
    }

    /// Schedulable wrapper around `std::thread::Scope`.
    pub struct Scope<'scope, 'env> {
        real: &'scope std::thread::Scope<'scope, 'env>,
        ctx: Option<ThreadCtx>,
        /// Children spawned but not yet explicitly joined (model tids).
        pending: Arc<std::sync::Mutex<Vec<usize>>>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a scoped thread; a schedulable drop-in for
        /// `std::thread::Scope::spawn`.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            match &self.ctx {
                Some(ctx) => {
                    let tid = ctx.shared.register_thread();
                    let shared: Arc<Shared> = ctx.shared.clone();
                    self.pending
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(tid);
                    ScopedJoinHandle {
                        inner: self.real.spawn(move || sched::run_thread(shared, tid, f)),
                        tid: Some(tid),
                        pending: Some(self.pending.clone()),
                    }
                }
                None => ScopedJoinHandle {
                    inner: self.real.spawn(move || Some(f())),
                    tid: None,
                    pending: None,
                },
            }
        }
    }

    /// Handle for a scoped spawned thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, Option<T>>,
        tid: Option<usize>,
        pending: Option<Arc<std::sync::Mutex<Vec<usize>>>>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Wait for the thread to finish, returning its value (or the panic
        /// payload, as with `std::thread::ScopedJoinHandle::join`).
        pub fn join(self) -> std::thread::Result<T> {
            if let (Some(tid), Some(pending)) = (self.tid, &self.pending) {
                pending
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .retain(|&t| t != tid);
                let ctx = sched::current_ctx()
                    .expect("skycheck: joining a modelled thread outside its run");
                sched::schedule_point(&ctx, Op::Join(tid));
            }
            finish_join(self.inner.join(), self.tid.is_some())
        }
    }
}
