//! skycheck — a zero-dependency, loom-style deterministic concurrency model
//! checker for the skycache workspace.
//!
//! The crate has two halves:
//!
//! * [`sync`] — shim primitives (`Mutex`, `RwLock`, `AtomicU64`, `Arc`,
//!   `thread`) that behave exactly like their `std`/`parking_lot`
//!   counterparts in production, and become schedulable under a model run;
//! * [`Explorer`] — a DFS schedule explorer with a bounded-preemption budget
//!   and DPOR-lite sleep-set reduction that exhaustively interleaves code
//!   written against the shims, detecting deadlocks, lost updates and
//!   assertion failures, and printing a replayable decision trace on
//!   failure.
//!
//! Replay a printed trace with [`Explorer::replay`] or by exporting
//! `SKYCHECK_REPLAY=<trace>` around the same harness; bound the exploration
//! with `SKYCHECK_MAX_SCHEDULES=<n>`. See DESIGN.md §15 for the scheduler
//! architecture and the soundness argument.

mod sched;
pub mod sync;

pub use sched::{Explorer, Failure, FailureKind, Outcome, Stats};
