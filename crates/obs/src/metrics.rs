//! Deterministic metric storage: named counters.
//!
//! Everything is keyed by `&'static str` names (see [`crate::names`]) in
//! `BTreeMap`s, so iteration order — and therefore every serialized
//! report — is independent of hasher seeds (`clippy.toml` bans the hash
//! collections in library code).

use std::collections::BTreeMap;

/// Counters under their canonical names.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds to a monotone counter (created at 0 on first use).
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// A counter's value (0 when never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_adds_counters_in_name_order() {
        let mut r = Registry::new();
        r.add("cache.hits", 1);
        r.add("cache.hits", 2);
        assert_eq!(r.counter("cache.hits"), 3);
        assert_eq!(r.counter("cache.misses"), 0);
        assert_eq!(r.counters().collect::<Vec<_>>(), [("cache.hits", 3)]);
    }
}
