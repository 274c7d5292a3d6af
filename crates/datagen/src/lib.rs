//! Synthetic datasets and query workloads for constrained skyline
//! experiments.
//!
//! This crate reproduces the data side of the paper's evaluation
//! (Section 7):
//!
//! * [`SyntheticGen`] — the standard skyline benchmark generator of
//!   Börzsönyi et al. (independent, correlated and anti-correlated
//!   distributions over `[0,1]^|D|`);
//! * [`real_estate`] — a seeded substitute for the non-public Danish
//!   property dataset (4 dimensions: construction year, size, tax
//!   valuation, sales price);
//! * [`workload`] — the paper's two query workloads (Section 7.1): chains
//!   of incrementally refined *interactive exploratory search* queries,
//!   and *independent* single queries of a multi-user system.
//!
//! All generators are deterministic given a seed.
//!
//! ```
//! use skycache_datagen::{DimStats, Distribution, InteractiveWorkload, SyntheticGen};
//!
//! let data = SyntheticGen::new(Distribution::AntiCorrelated, 3, 7).generate(1_000);
//! let stats = DimStats::compute(&data);
//! let workload = InteractiveWorkload::new(stats).generate(25, 42);
//! assert_eq!(workload.len(), 25);
//! // Chains refine one bound at a time, exactly as in the paper's §7.1.
//! assert_eq!(workload.queries()[0].step, 0);
//! ```

pub mod real_estate;
mod synthetic;
pub mod workload;

pub use real_estate::RealEstateGen;
pub use synthetic::{Distribution, SyntheticGen};
pub use workload::{
    DimStats, IndependentWorkload, InteractiveWorkload, QuerySpec, Workload, ZipfWorkload,
};

pub(crate) mod util {
    use rand::Rng;

    /// Standard-normal sample via the Box–Muller transform; `rand` 0.8
    /// ships no distributions beyond uniform, so we roll our own.
    pub fn normal<R: Rng>(rng: &mut R, mean: f64, std: f64) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std * z
    }

    /// Log-normal sample.
    pub fn log_normal<R: Rng>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
        normal(rng, mu, sigma).exp()
    }
}
