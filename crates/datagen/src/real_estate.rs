//! Synthetic stand-in for the Danish real-estate dataset of Section 7.5.
//!
//! The paper evaluates on ~4.2M Danish property records (1.28M after
//! cleaning) with four skyline-suitable dimensions: construction year,
//! size in m², property-tax valuation, and actual sales price. That 2005
//! snapshot is not publicly available, so this module generates a seeded
//! dataset with the same schema and the characteristics that matter to the
//! experiment:
//!
//! * realistic, non-uniform marginals — construction years follow a
//!   mixture of building booms, sizes and prices are log-normal;
//! * strong correlation between size, valuation and price (bigger houses
//!   cost more) with anti-correlated pockets (old central-city properties
//!   are small but expensive), giving the mixed correlation structure real
//!   estate exhibits;
//! * dimensions are emitted in *minimization orientation* (the skyline
//!   convention of this workspace): year and size are negated, so the
//!   skyline prefers new, large, cheap, low-valuation properties.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skycache_geom::Point;

use crate::util::{log_normal, normal};

/// Seeded generator for property-like 4-D records, in the dimension order
/// negated year, negated m², valuation, price.
#[derive(Clone, Debug)]
pub struct RealEstateGen {
    seed: u64,
}

impl RealEstateGen {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        RealEstateGen { seed }
    }

    /// Generates `n` records.
    ///
    /// Each record is `(-year, -sqm, valuation_kDKK, price_kDKK)` so that
    /// *smaller is better* in every dimension.
    pub fn generate(&self, n: usize) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.gen_one(&mut rng));
        }
        out
    }

    fn gen_one<R: Rng>(&self, rng: &mut R) -> Point {
        // Construction year: mixture of building booms.
        let year = match rng.gen_range(0..100u32) {
            0..=14 => normal(rng, 1915.0, 12.0), // pre-war urban stock
            15..=39 => normal(rng, 1955.0, 8.0), // post-war expansion
            40..=74 => normal(rng, 1972.0, 6.0), // the 70s boom
            75..=89 => normal(rng, 1990.0, 7.0),
            _ => normal(rng, 2002.0, 2.5), // recent builds
        }
        .clamp(1850.0, 2005.0);

        // Central-city flag: older properties are more likely central.
        let central_p = ((1980.0 - year) / 130.0).clamp(0.05, 0.8);
        let central = rng.gen_bool(central_p);

        // Size: log-normal; central properties skew smaller.
        let sqm_mu = if central { 4.45 } else { 4.90 };
        let sqm = log_normal(rng, sqm_mu, 0.35).clamp(18.0, 900.0);

        // Valuation (thousand DKK): driven by size, recency, and a strong
        // location premium — this premium is what creates the
        // anti-correlated pocket (small+old but expensive).
        let recency = ((year - 1850.0) / 155.0).clamp(0.0, 1.0);
        let location_mult = if central {
            log_normal(rng, 0.55, 0.25) // central premium
        } else {
            log_normal(rng, 0.0, 0.30)
        };
        let base = 6.5 * sqm * (0.6 + 0.8 * recency);
        let valuation = (base * location_mult).clamp(50.0, 30_000.0);

        // Sales price tracks valuation with market noise.
        let price = (valuation * rng.gen_range(0.75..1.35) * log_normal(rng, 0.0, 0.08))
            .clamp(40.0, 40_000.0);

        Point::new_unchecked(vec![-year, -sqm, valuation, price])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pearson(points: &[Point], a: usize, b: usize) -> f64 {
        let n = points.len() as f64;
        let ma = points.iter().map(|p| p[a]).sum::<f64>() / n;
        let mb = points.iter().map(|p| p[b]).sum::<f64>() / n;
        let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
        for p in points {
            cov += (p[a] - ma) * (p[b] - mb);
            va += (p[a] - ma).powi(2);
            vb += (p[b] - mb).powi(2);
        }
        cov / (va.sqrt() * vb.sqrt())
    }

    #[test]
    fn deterministic_and_4d() {
        let g = RealEstateGen::new(11);
        let a = g.generate(500);
        assert_eq!(a, g.generate(500));
        assert!(a.iter().all(|p| p.dims() == 4));
    }

    #[test]
    fn ranges_plausible() {
        let pts = RealEstateGen::new(1).generate(5_000);
        for p in &pts {
            let year = -p[0];
            let sqm = -p[1];
            assert!((1850.0..=2005.0).contains(&year), "year {year}");
            assert!((18.0..=900.0).contains(&sqm), "sqm {sqm}");
            assert!(p[2] > 0.0 && p[3] > 0.0);
        }
    }

    #[test]
    fn price_tracks_valuation() {
        let pts = RealEstateGen::new(2).generate(10_000);
        let r = pearson(&pts, 2, 3);
        assert!(r > 0.9, "price/valuation correlation {r}");
    }

    #[test]
    fn bigger_houses_cost_more() {
        let pts = RealEstateGen::new(3).generate(10_000);
        // neg_sqm vs price: bigger house (more negative dim 1) → higher
        // price, so the correlation on the stored values is negative.
        let r = pearson(&pts, 1, 3);
        assert!(r < -0.4, "size/price correlation {r}");
    }

    #[test]
    fn anti_correlated_pocket_exists() {
        // Among small old houses, a meaningful share is still expensive:
        // the central-premium pocket the experiment needs.
        let pts = RealEstateGen::new(4).generate(20_000);
        let mut small_old = 0usize;
        let mut small_old_expensive = 0usize;
        for p in &pts {
            let (year, sqm, price) = (-p[0], -p[1], p[3]);
            if year < 1940.0 && sqm < 90.0 {
                small_old += 1;
                if price > 600.0 {
                    small_old_expensive += 1;
                }
            }
        }
        assert!(small_old > 200, "sample too small: {small_old}");
        let frac = small_old_expensive as f64 / small_old as f64;
        assert!(frac > 0.15, "expensive fraction among small+old: {frac}");
    }
}
