//! Cooperative token-passing scheduler and DFS schedule explorer.
//!
//! Execution model: every modelled thread is a real OS thread, but only the
//! thread holding the *token* runs at any instant. At each schedule point the
//! running thread declares its pending [`Op`] and calls [`advance`], which
//! picks the next thread to run (replaying a decision prefix, or applying the
//! default pick-the-caller policy), applies the chosen op's effect on the
//! model state, and hands the token over. Everything else parks on a condvar.
//!
//! Exploration is a depth-first search over the decision points of repeated
//! runs, with two reductions:
//!
//! * a **bounded-preemption budget** — schedules needing more than `bound`
//!   involuntary context switches are pruned;
//! * **DPOR-lite sleep sets** (Godefroid) — after a branch is explored, the
//!   chosen thread is put to sleep for sibling branches and woken only by a
//!   dependent operation, pruning interleavings that commute.
//!
//! A failing run yields a [`Failure`] carrying a replayable decision trace
//! (thread ids joined by `.`), reproducible via [`Explorer::replay`] or the
//! `SKYCHECK_REPLAY` environment variable.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Default cap on the number of runs per [`Explorer::explore`] call.
pub(crate) const DEFAULT_MAX_SCHEDULES: u64 = 100_000;

/// Default involuntary-context-switch budget.
pub(crate) const DEFAULT_PREEMPTION_BOUND: usize = 2;

/// Count of model runs currently active anywhere in the process. A relaxed
/// zero check lets the shims skip the thread-local lookup entirely when no
/// explorer is running (the common production path).
static MODEL_RUNS: AtomicUsize = AtomicUsize::new(0);

/// Globally unique epoch per run; lets `ObjCell`-registered statics detect a
/// stale registration from an earlier run and re-register.
static NEXT_EPOCH: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// Per-thread handle into the active model run.
#[derive(Clone)]
pub(crate) struct ThreadCtx {
    pub(crate) shared: Arc<Shared>,
    pub(crate) tid: usize,
}

/// The calling thread's model context, or `None` outside a model run.
pub(crate) fn current_ctx() -> Option<ThreadCtx> {
    if MODEL_RUNS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CTX.with(|c| c.borrow().clone())
}

fn install_ctx(ctx: ThreadCtx) {
    CTX.with(|c| *c.borrow_mut() = Some(ctx));
}

fn clear_ctx() {
    CTX.with(|c| *c.borrow_mut() = None);
}

/// Panic payload used to unwind parked threads when a run aborts. Raised via
/// `resume_unwind` so the panic hook stays silent for routine prunes.
pub(crate) struct AbortPayload;

fn abort_unwind() -> ! {
    panic::resume_unwind(Box::new(AbortPayload));
}

/// A schedulable operation, declared by a thread at its schedule point and
/// applied to the model state when that thread is granted the token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Op {
    /// First step of a freshly spawned thread.
    Start,
    /// Acquire object `.0` shared (read lock).
    AcqShared(u32),
    /// Acquire object `.0` exclusive (write lock / mutex).
    AcqExcl(u32),
    /// Release a shared hold on object `.0`.
    RelShared(u32),
    /// Release an exclusive hold on object `.0`.
    RelExcl(u32),
    /// Atomic load from object `.0`.
    AtLoad(u32),
    /// Atomic store / read-modify-write on object `.0`.
    AtStore(u32),
    /// Join thread `.0`; enabled once it has finished.
    Join(usize),
}

impl Op {
    fn object(self) -> Option<u32> {
        match self {
            Op::AcqShared(l)
            | Op::AcqExcl(l)
            | Op::RelShared(l)
            | Op::RelExcl(l)
            | Op::AtLoad(l)
            | Op::AtStore(l) => Some(l),
            Op::Start | Op::Join(_) => None,
        }
    }

    fn is_shared_class(self) -> bool {
        matches!(self, Op::AcqShared(_) | Op::AtLoad(_))
    }

    /// Two ops are independent iff they commute: they touch different
    /// objects, or both only observe (shared acquire / atomic load) the same
    /// object. Objectless ops are conservatively dependent with everything.
    fn independent(self, other: Op) -> bool {
        match (self.object(), other.object()) {
            (Some(a), Some(b)) if a != b => true,
            (Some(_), Some(_)) => self.is_shared_class() && other.is_shared_class(),
            _ => false,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TState {
    Live,
    Finished,
}

struct ThreadSlot {
    state: TState,
    pending: Option<Op>,
    granted: bool,
}

#[derive(Default)]
struct LockState {
    /// Reader tids; may contain duplicates for recursive shared holds.
    readers: Vec<usize>,
    writer: Option<usize>,
}

/// Why a run was cut short without being a bug.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum PruneKind {
    /// Every enabled thread was in the sleep set.
    Sleep,
    /// The only progress required exceeding the preemption budget.
    Preempt,
}

/// A fresh (beyond-prefix) decision point recorded during a run; becomes a
/// DFS stack entry in the explorer.
#[derive(Clone)]
pub(crate) struct PointRecord {
    /// Enabled threads and their pending ops at this point.
    enabled: Vec<(usize, Op)>,
    caller: usize,
    caller_enabled: bool,
    /// Preemptions spent strictly before this point.
    preemptions_before: usize,
    /// Sleep set (Godefroid `Z`) on arrival; grows as children are explored.
    sleep: Vec<usize>,
    /// Child currently/last explored from this point.
    choice: usize,
}

struct Inner {
    threads: Vec<ThreadSlot>,
    locks: Vec<LockState>,
    current: usize,
    decisions: Vec<usize>,
    prefix: Vec<usize>,
    seed_sleep: Vec<usize>,
    sleep: Vec<usize>,
    points: Vec<PointRecord>,
    preemptions: usize,
    bound: usize,
    failure: Option<Failure>,
    prune: Option<PruneKind>,
    aborting: bool,
    /// Threads whose wrapper has not yet returned (model-finished or not).
    live_wrappers: usize,
}

/// Per-run state shared by every modelled thread.
pub(crate) struct Shared {
    pub(crate) epoch: u32,
    inner: Mutex<Inner>,
    cv: Condvar,
}

fn lock(shared: &Shared) -> MutexGuard<'_, Inner> {
    shared.inner.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn new(prefix: Vec<usize>, seed_sleep: Vec<usize>, bound: usize) -> Self {
        Shared {
            epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
            inner: Mutex::new(Inner {
                threads: Vec::new(),
                locks: Vec::new(),
                current: 0,
                decisions: Vec::new(),
                prefix,
                seed_sleep,
                sleep: Vec::new(),
                points: Vec::new(),
                preemptions: 0,
                bound,
                failure: None,
                prune: None,
                aborting: false,
                live_wrappers: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Register a lock/atomic object; returns its model id. Deterministic
    /// because only the token holder can reach a first-use site.
    pub(crate) fn register_object(&self) -> u32 {
        let mut g = lock(self);
        let id = g.locks.len() as u32;
        g.locks.push(LockState::default());
        id
    }

    /// Register a new thread slot (at spawn time, before the OS thread runs).
    pub(crate) fn register_thread(&self) -> usize {
        let mut g = lock(self);
        let tid = g.threads.len();
        g.threads.push(ThreadSlot {
            state: TState::Live,
            pending: Some(Op::Start),
            granted: false,
        });
        g.live_wrappers += 1;
        tid
    }
}

fn op_enabled(g: &Inner, op: Op) -> bool {
    match op {
        Op::Start | Op::RelShared(_) | Op::RelExcl(_) | Op::AtLoad(_) | Op::AtStore(_) => true,
        // Shared acquires are granted whenever no writer holds the object,
        // even recursively from the same thread — the recursive-read
        // semantics `SharedCache::with_read` re-entrancy relies on.
        Op::AcqShared(l) => g.locks[l as usize].writer.is_none(),
        Op::AcqExcl(l) => {
            let ls = &g.locks[l as usize];
            ls.writer.is_none() && ls.readers.is_empty()
        }
        Op::Join(t) => g.threads[t].state == TState::Finished,
    }
}

fn apply_effect(g: &mut Inner, tid: usize, op: Op) {
    match op {
        Op::AcqShared(l) => g.locks[l as usize].readers.push(tid),
        Op::AcqExcl(l) => g.locks[l as usize].writer = Some(tid),
        Op::RelShared(l) => {
            let readers = &mut g.locks[l as usize].readers;
            if let Some(pos) = readers.iter().position(|&t| t == tid) {
                readers.remove(pos);
            }
        }
        Op::RelExcl(l) => g.locks[l as usize].writer = None,
        Op::Start | Op::AtLoad(_) | Op::AtStore(_) | Op::Join(_) => {}
    }
}

fn encode_trace(decisions: &[usize]) -> String {
    decisions.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(".")
}

fn decode_trace(trace: &str) -> Vec<usize> {
    if trace.is_empty() {
        return Vec::new();
    }
    trace
        .split('.')
        .map(|tok| {
            tok.parse::<usize>().unwrap_or_else(|_| panic!("skycheck: invalid trace token {tok:?}"))
        })
        .collect()
}

fn begin_prune(g: &mut Inner, cv: &Condvar, kind: PruneKind) {
    g.prune = Some(kind);
    g.aborting = true;
    cv.notify_all();
}

fn begin_failure(g: &mut Inner, cv: &Condvar, kind: FailureKind, message: String) {
    if g.failure.is_none() {
        g.failure = Some(Failure { kind, message, trace: encode_trace(&g.decisions) });
    }
    g.aborting = true;
    cv.notify_all();
}

/// Pick and grant the next thread. Must be called by the token holder (or by
/// a finishing thread handing the token off). Sets `aborting` on deadlock or
/// prune instead of granting.
fn advance(g: &mut Inner, cv: &Condvar, caller: usize, caller_live: bool) {
    let mut enabled: Vec<(usize, Op)> = Vec::new();
    let mut any_live = false;
    for (t, slot) in g.threads.iter().enumerate() {
        if slot.state == TState::Live {
            any_live = true;
            if let Some(op) = slot.pending {
                if op_enabled(g, op) {
                    enabled.push((t, op));
                }
            }
        }
    }
    if !any_live {
        // Last thread finished; nothing to grant.
        return;
    }
    if enabled.is_empty() {
        let mut msg = String::from("deadlock: no enabled thread; pending ");
        for (t, slot) in g.threads.iter().enumerate() {
            if slot.state == TState::Live {
                msg.push_str(&format!("t{t}={:?} ", slot.pending));
            }
        }
        begin_failure(g, cv, FailureKind::Deadlock, msg.trim_end().to_string());
        return;
    }

    let idx = g.decisions.len();
    let caller_enabled = caller_live && enabled.iter().any(|&(t, _)| t == caller);
    let chosen: usize;
    if idx < g.prefix.len() {
        chosen = g.prefix[idx];
        if !enabled.iter().any(|&(t, _)| t == chosen) {
            begin_failure(
                g,
                cv,
                FailureKind::Panic,
                format!("replay diverged: t{chosen} not enabled at decision {idx}"),
            );
            return;
        }
        if caller_enabled && chosen != caller {
            g.preemptions += 1;
        }
    } else {
        if idx == g.prefix.len() {
            g.sleep = g.seed_sleep.clone();
        }
        // Drop finished threads from the sleep set.
        let threads = &g.threads;
        let mut sleep = std::mem::take(&mut g.sleep);
        sleep.retain(|&t| threads[t].state == TState::Live && threads[t].pending.is_some());
        g.sleep = sleep;

        let awake: Vec<usize> =
            enabled.iter().map(|&(t, _)| t).filter(|t| !g.sleep.contains(t)).collect();
        if awake.is_empty() {
            begin_prune(g, cv, PruneKind::Sleep);
            return;
        }
        if caller_enabled && awake.contains(&caller) {
            chosen = caller;
        } else {
            // Forced switch past an enabled caller: a preemption.
            if caller_enabled && g.preemptions >= g.bound {
                begin_prune(g, cv, PruneKind::Preempt);
                return;
            }
            chosen = awake[0];
        }
        let chosen_op = enabled
            .iter()
            .find(|&&(t, _)| t == chosen)
            .map(|&(_, op)| op)
            .expect("chosen is enabled");
        g.points.push(PointRecord {
            enabled: enabled.clone(),
            caller,
            caller_enabled,
            preemptions_before: g.preemptions,
            sleep: g.sleep.clone(),
            choice: chosen,
        });
        if caller_enabled && chosen != caller {
            g.preemptions += 1;
        }
        // In-run sleep propagation: a sleeper stays asleep only while the
        // executed ops remain independent of its own.
        let threads = &g.threads;
        let mut sleep = std::mem::take(&mut g.sleep);
        sleep.retain(|&t| match threads[t].pending {
            Some(op_t) => op_t.independent(chosen_op),
            None => false,
        });
        g.sleep = sleep;
    }

    g.decisions.push(chosen);
    let op = g.threads[chosen].pending.take().expect("chosen has pending");
    apply_effect(g, chosen, op);
    g.threads[chosen].granted = true;
    g.current = chosen;
    cv.notify_all();
}

fn wait_for_grant(mut g: MutexGuard<'_, Inner>, ctx: &ThreadCtx) {
    loop {
        if g.aborting {
            drop(g);
            abort_unwind();
        }
        if g.threads[ctx.tid].granted {
            g.threads[ctx.tid].granted = false;
            return;
        }
        g = ctx.shared.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Declare `op` and yield the token until this thread is granted to execute
/// it. The op's model effect is applied at grant time; the caller performs
/// the real operation immediately after this returns.
pub(crate) fn schedule_point(ctx: &ThreadCtx, op: Op) {
    let mut g = lock(&ctx.shared);
    if g.aborting {
        drop(g);
        abort_unwind();
    }
    g.threads[ctx.tid].pending = Some(op);
    if g.current == ctx.tid {
        advance(&mut g, &ctx.shared.cv, ctx.tid, true);
    }
    wait_for_grant(g, ctx);
}

/// First park of a freshly spawned thread: its `Start` op was registered at
/// spawn time; wait until some schedule point grants it.
fn initial_wait(ctx: &ThreadCtx) {
    let g = lock(&ctx.shared);
    wait_for_grant(g, ctx);
}

/// Mark the thread model-finished and hand the token off.
fn thread_finish(ctx: &ThreadCtx) {
    let mut g = lock(&ctx.shared);
    g.threads[ctx.tid].state = TState::Finished;
    g.threads[ctx.tid].pending = None;
    if !g.aborting && g.current == ctx.tid {
        advance(&mut g, &ctx.shared.cv, ctx.tid, false);
    }
}

/// Wrapper bookkeeping after the user closure ended (normally or by panic).
/// Returns the closure's value, or `None` if the run aborted under us.
pub(crate) fn handle_thread_end<T>(
    ctx: &ThreadCtx,
    result: Result<T, Box<dyn std::any::Any + Send>>,
) -> Option<T> {
    match result {
        Ok(v) => {
            thread_finish(ctx);
            Some(v)
        }
        Err(payload) => {
            let mut g = lock(&ctx.shared);
            g.threads[ctx.tid].state = TState::Finished;
            g.threads[ctx.tid].pending = None;
            if payload.downcast_ref::<AbortPayload>().is_none() {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                begin_failure(
                    &mut g,
                    &ctx.shared.cv,
                    FailureKind::Panic,
                    format!("thread t{} panicked: {msg}", ctx.tid),
                );
            }
            None
        }
    }
}

fn thread_exit(ctx: &ThreadCtx) {
    let mut g = lock(&ctx.shared);
    g.live_wrappers -= 1;
    ctx.shared.cv.notify_all();
}

/// Run the body of a modelled thread: install the context, park for the
/// first grant, run `f`, then do finish/exit bookkeeping.
pub(crate) fn run_thread<T>(shared: Arc<Shared>, tid: usize, f: impl FnOnce() -> T) -> Option<T> {
    let ctx = ThreadCtx { shared, tid };
    install_ctx(ctx.clone());
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        initial_wait(&ctx);
        f()
    }));
    let out = handle_thread_end(&ctx, result);
    thread_exit(&ctx);
    clear_ctx();
    out
}

enum RunEnd {
    Completed,
    Pruned(PruneKind),
    Failed(Failure),
}

struct RunResult {
    end: RunEnd,
    points: Vec<PointRecord>,
    depth: usize,
}

fn run_once<F: Fn() + Send + Sync>(
    f: &F,
    prefix: Vec<usize>,
    seed_sleep: Vec<usize>,
    bound: usize,
) -> RunResult {
    let shared = Arc::new(Shared::new(prefix, seed_sleep, bound));
    MODEL_RUNS.fetch_add(1, Ordering::SeqCst);
    let root = shared.register_thread();
    {
        // Bootstrap: the root starts granted, its Start op pre-consumed.
        let mut g = lock(&shared);
        g.threads[root].pending = None;
        g.threads[root].granted = true;
        g.current = root;
    }
    std::thread::scope(|s| {
        let shared_root = shared.clone();
        s.spawn(move || run_thread(shared_root, root, f));
    });
    // Non-scoped shim spawns outlive the root scope briefly; wait for every
    // wrapper to fully exit so the next run sees a quiescent world.
    {
        let mut g = lock(&shared);
        while g.live_wrappers > 0 {
            g = shared.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
    MODEL_RUNS.fetch_sub(1, Ordering::SeqCst);
    let mut g = lock(&shared);
    let end = if let Some(failure) = g.failure.take() {
        RunEnd::Failed(failure)
    } else if let Some(kind) = g.prune.take() {
        RunEnd::Pruned(kind)
    } else {
        RunEnd::Completed
    };
    RunResult { end, points: std::mem::take(&mut g.points), depth: g.decisions.len() }
}

/// What kind of bug a failing schedule exhibited.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// Live threads exist but none is enabled.
    Deadlock,
    /// A modelled thread panicked (assertion failure, lost update, …).
    Panic,
}

/// A failing schedule: what went wrong and how to replay it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Bug class.
    pub kind: FailureKind,
    /// Human-readable description (panic message or deadlock pending set).
    pub message: String,
    /// Decision trace (thread ids joined by `.`) for [`Explorer::replay`].
    pub trace: String,
}

/// Exploration counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Completed (non-pruned) schedules executed.
    pub schedules: u64,
    /// Runs cut short because every enabled thread was asleep (DPOR).
    pub pruned_sleep: u64,
    /// Runs cut short by the preemption budget.
    pub pruned_preempt: u64,
    /// Longest decision sequence seen.
    pub max_depth: usize,
    /// Wall-clock time of the whole exploration, in milliseconds.
    pub wall_ms: u64,
}

/// Result of an exploration.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Exploration counters (the model tests gate on `schedules`).
    pub stats: Stats,
    /// First failing schedule, if any.
    pub failure: Option<Failure>,
    /// True iff the schedule space was exhausted under the configured bounds.
    pub exhausted: bool,
}

impl Outcome {
    /// Panic with the failure message and replay trace if a bug was found.
    pub fn assert_ok(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "skycheck found a failing schedule ({:?}): {}\n  replay trace: {}",
                f.kind, f.message, f.trace
            );
        }
    }
}

/// Configurable DFS schedule explorer.
///
/// ```
/// use skycheck::sync::{Arc, Mutex};
/// let outcome = skycheck::Explorer::new().explore(|| {
///     let m = Arc::new(Mutex::new(0u32));
///     let m2 = m.clone();
///     let h = skycheck::sync::thread::spawn(move || *m2.lock() += 1);
///     *m.lock() += 1;
///     h.join().unwrap();
///     assert_eq!(*m.lock(), 2);
/// });
/// outcome.assert_ok();
/// assert!(outcome.exhausted);
/// ```
pub struct Explorer {
    preemption_bound: usize,
    max_schedules: u64,
}

impl Default for Explorer {
    fn default() -> Self {
        Self::new()
    }
}

impl Explorer {
    /// Explorer with preemption bound 2 and the schedule cap from
    /// `SKYCHECK_MAX_SCHEDULES` (default 100 000).
    pub fn new() -> Self {
        let max_schedules = std::env::var("SKYCHECK_MAX_SCHEDULES")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(DEFAULT_MAX_SCHEDULES);
        Explorer { preemption_bound: DEFAULT_PREEMPTION_BOUND, max_schedules }
    }

    /// Set the involuntary-context-switch budget per schedule.
    pub fn with_preemption_bound(mut self, bound: usize) -> Self {
        self.preemption_bound = bound;
        self
    }

    /// Exhaustively explore the interleavings of `f` under the configured
    /// bounds. If `SKYCHECK_REPLAY` is set, runs that single trace instead.
    pub fn explore<F: Fn() + Send + Sync>(&self, f: F) -> Outcome {
        if let Ok(trace) = std::env::var("SKYCHECK_REPLAY") {
            if !trace.is_empty() {
                return self.replay(&trace, f);
            }
        }
        let start = Instant::now();
        let mut stats = Stats::default();
        let mut stack: Vec<PointRecord> = Vec::new();
        let mut prefix: Vec<usize> = Vec::new();
        let mut seed_sleep: Vec<usize> = Vec::new();
        let mut failure = None;
        let mut exhausted = true;
        loop {
            if stats.schedules + stats.pruned_sleep + stats.pruned_preempt >= self.max_schedules {
                exhausted = false;
                break;
            }
            let run = run_once(&f, prefix.clone(), seed_sleep.clone(), self.preemption_bound);
            stats.max_depth = stats.max_depth.max(run.depth);
            match run.end {
                RunEnd::Completed => stats.schedules += 1,
                RunEnd::Pruned(PruneKind::Sleep) => stats.pruned_sleep += 1,
                RunEnd::Pruned(PruneKind::Preempt) => stats.pruned_preempt += 1,
                RunEnd::Failed(f) => {
                    stats.schedules += 1;
                    failure = Some(f);
                    break;
                }
            }
            stack.extend(run.points);
            // Backtrack: find the deepest point with an unexplored,
            // budget-respecting, awake sibling.
            let mut next_prefix = None;
            while let Some(entry) = stack.last_mut() {
                if !entry.sleep.contains(&entry.choice) {
                    entry.sleep.push(entry.choice);
                }
                let mut candidate = None;
                for &(t, _) in &entry.enabled {
                    if entry.sleep.contains(&t) {
                        continue;
                    }
                    let cost = usize::from(entry.caller_enabled && t != entry.caller);
                    if entry.preemptions_before + cost > self.preemption_bound {
                        continue;
                    }
                    candidate = Some(t);
                    break;
                }
                match candidate {
                    Some(c) => {
                        let op_c = entry
                            .enabled
                            .iter()
                            .find(|&&(t, _)| t == c)
                            .map(|&(_, op)| op)
                            .expect("candidate is enabled");
                        // Godefroid: child sleep keeps only sleepers whose
                        // op is independent of the branch being taken.
                        let ops = &entry.enabled;
                        let child_sleep = entry
                            .sleep
                            .iter()
                            .copied()
                            .filter(|&t| {
                                ops.iter()
                                    .find(|&&(u, _)| u == t)
                                    .is_some_and(|&(_, op_t)| op_t.independent(op_c))
                            })
                            .collect::<Vec<_>>();
                        entry.choice = c;
                        next_prefix =
                            Some((stack.iter().map(|e| e.choice).collect::<Vec<_>>(), child_sleep));
                        break;
                    }
                    None => {
                        stack.pop();
                    }
                }
            }
            match next_prefix {
                Some((p, s)) => {
                    prefix = p;
                    seed_sleep = s;
                }
                None => break, // space exhausted
            }
        }
        stats.wall_ms = start.elapsed().as_millis() as u64;
        Outcome { stats, failure, exhausted }
    }

    /// Re-execute the single schedule described by `trace` (as printed in a
    /// [`Failure`]); decisions beyond the trace fall back to the default
    /// deterministic policy.
    pub fn replay<F: Fn() + Send + Sync>(&self, trace: &str, f: F) -> Outcome {
        let start = Instant::now();
        let run = run_once(&f, decode_trace(trace), Vec::new(), usize::MAX);
        let failure = match run.end {
            RunEnd::Failed(fl) => Some(fl),
            _ => None,
        };
        Outcome {
            stats: Stats {
                schedules: 1,
                pruned_sleep: 0,
                pruned_preempt: 0,
                max_depth: run.depth,
                wall_ms: start.elapsed().as_millis() as u64,
            },
            failure,
            exhausted: false,
        }
    }
}

/// Epoch-tagged object-id cell; lets `const`-initialised statics re-register
/// with whichever run is touching them. Packs `epoch << 32 | id`.
pub(crate) struct ObjCell(std::sync::atomic::AtomicU64);

impl ObjCell {
    pub(crate) const fn new() -> Self {
        ObjCell(std::sync::atomic::AtomicU64::new(0))
    }

    /// The object's id in `ctx`'s run, registering it on first use.
    pub(crate) fn resolve(&self, ctx: &ThreadCtx) -> u32 {
        let v = self.0.load(Ordering::Relaxed);
        if (v >> 32) as u32 == ctx.shared.epoch {
            return v as u32;
        }
        let id = ctx.shared.register_object();
        self.0.store((u64::from(ctx.shared.epoch) << 32) | u64::from(id), Ordering::Relaxed);
        id
    }
}
