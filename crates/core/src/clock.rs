//! The audited wall-clock site.
//!
//! `clippy.toml` bans `std::time::Instant` anywhere else in the library
//! crates: the executors' *results* (skylines, cached plans, fetch
//! counters) must be a pure function of inputs, and stray wall-clock
//! reads are how accidental time-dependence creeps in. Timing still has a
//! legitimate consumer — the Figure-10 stage breakdown reported in
//! `QueryStats` — so it is concentrated here, behind a type whose values
//! can only flow into `Duration`s, never into query planning.
//!
//! If a new timing need appears, extend this module rather than importing
//! `Instant` elsewhere; the lint will hold you to it.

#[expect(clippy::disallowed_types, reason = "the import this module exists to confine")]
use std::time::{Duration, Instant};

/// A started timer; the only way library code reads the clock.
///
/// ```
/// use skycache_core::clock::Stopwatch;
/// let sw = Stopwatch::start();
/// let elapsed: std::time::Duration = sw.elapsed();
/// assert!(elapsed >= std::time::Duration::ZERO);
/// ```
#[derive(Debug)]
#[expect(clippy::disallowed_types, reason = "confined here by design; see module docs")]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a timer.
    #[inline]
    pub fn start() -> Self {
        #[expect(clippy::disallowed_types, reason = "the one sanctioned clock read")]
        let start = Instant::now();
        Stopwatch { start }
    }

    /// Time since [`Stopwatch::start`].
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }
}
