//! Deterministic metric storage: counters, gauges, log-bucket histograms.
//!
//! Everything is keyed by `&'static str` names (see [`crate::names`]) in
//! `BTreeMap`s, so iteration order — and therefore every serialized
//! report — is independent of hasher seeds (the workspace determinism
//! policy).

use std::collections::BTreeMap;

/// A histogram over non-negative samples with power-of-two buckets.
///
/// Bucket `i` covers `(2^i, 2^(i+1)]` (bucket 0 also takes everything
/// `<= 1`), which spans the full `u64` nanosecond range in 64 fixed
/// slots — no allocation per sample, no configuration. Quantiles are
/// bucket-upper-bound approximations, clamped to the observed min/max.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; 64],
        }
    }
}

impl Histogram {
    /// Bucket index of one sample.
    fn bucket_of(value: f64) -> usize {
        let v = if value.is_finite() && value > 1.0 { value as u64 } else { 1 };
        // floor(log2(v)), capped at the last bucket.
        (63 - v.leading_zeros() as usize).min(63)
    }

    /// Adds one sample. Negative and non-finite samples clamp into
    /// bucket 0 but still count toward `count`/`sum` bookkeeping
    /// (min/max ignore non-finite values).
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of finite samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest finite sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 || !self.min.is_finite() {
            0.0
        } else {
            self.min
        }
    }

    /// Largest finite sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 || !self.max.is_finite() {
            0.0
        } else {
            self.max
        }
    }

    /// Mean of finite samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket holding the `ceil(q·count)`-th sample, clamped to
    /// `[min, max]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let upper = if i >= 63 { f64::INFINITY } else { (1u64 << (i + 1)) as f64 };
                return upper.clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// Counters, gauges and histograms under their canonical names.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds to a monotone counter (created at 0 on first use).
    pub fn add_counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets a gauge to a point-in-time value (last write wins).
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Adds one sample to a histogram (created empty on first use).
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    /// A counter's value (0 when never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram, if any sample was recorded under `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds another registry into this one: counters add, gauges take
    /// the other's value (last write wins), histograms merge.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in other.counters() {
            self.add_counter(name, v);
        }
        for (name, v) in other.gauges() {
            self.set_gauge(name, v);
        }
        for (name, h) in other.histograms() {
            self.histograms.entry(name).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [1.0, 2.0, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 100.0);
        assert_eq!(h.mean(), 26.5);
        // p50 lands in the (2,4] bucket, upper bound 4.
        assert_eq!(h.quantile(0.5), 4.0);
        // p100 clamps to the observed max.
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn histogram_empty_and_degenerate() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);

        let mut weird = Histogram::default();
        weird.observe(f64::NAN);
        weird.observe(-5.0);
        assert_eq!(weird.count(), 2);
        assert_eq!(weird.max(), -5.0); // the only finite sample
    }

    #[test]
    fn histogram_merge_matches_sequential_observation() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for v in [1.0, 7.0, 9.0] {
            a.observe(v);
            all.observe(v);
        }
        for v in [2.0, 1000.0] {
            b.observe(v);
            all.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = Registry::new();
        r.add_counter("cache.hits", 1);
        r.add_counter("cache.hits", 2);
        r.set_gauge("alloc.per_query", 2.0);
        r.set_gauge("alloc.per_query", 4.0);
        r.observe("fetch.latency_ns", 10.0);
        assert_eq!(r.counter("cache.hits"), 3);
        assert_eq!(r.counter("cache.misses"), 0);
        assert_eq!(r.gauge("alloc.per_query"), Some(4.0));
        assert_eq!(r.histogram("fetch.latency_ns").unwrap().count(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn registry_merge_adds_counters_and_merges_histograms() {
        let mut a = Registry::new();
        a.add_counter("cache.hits", 1);
        a.observe("fetch.latency_ns", 8.0);
        let mut b = Registry::new();
        b.add_counter("cache.hits", 4);
        b.observe("fetch.latency_ns", 16.0);
        b.set_gauge("alloc.per_query", 2.0);
        a.merge(&b);
        assert_eq!(a.counter("cache.hits"), 5);
        assert_eq!(a.histogram("fetch.latency_ns").unwrap().count(), 2);
        assert_eq!(a.gauge("alloc.per_query"), Some(2.0));
    }
}
