use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skycache_geom::{Point, PointBlock};

use crate::util::normal;

/// The three standard skyline benchmark distributions of Börzsönyi,
/// Kossmann & Stocker (ICDE 2001).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// Attribute values drawn independently and uniformly from `[0,1]`.
    Independent,
    /// Points clustered around the main diagonal: a point good in one
    /// dimension tends to be good in the others (small skylines).
    Correlated,
    /// Points clustered around the anti-diagonal plane `Σ x_i ≈ |D|/2`:
    /// a point good in one dimension tends to be bad in the others
    /// (large skylines — the hard case).
    AntiCorrelated,
}

impl Distribution {
    /// Short lowercase label used in benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            Distribution::Independent => "independent",
            Distribution::Correlated => "correlated",
            Distribution::AntiCorrelated => "anti-correlated",
        }
    }
}

/// Seeded generator for the standard synthetic skyline benchmarks.
///
/// The construction follows the original `randdataset` generator:
/// correlated points are sampled on the diagonal with small normal
/// perpendicular spread, anti-correlated points on a hyperplane of
/// constant coordinate sum with uniform redistribution between pairs of
/// dimensions. All coordinates fall in `[0,1]`.
#[derive(Clone, Debug)]
pub struct SyntheticGen {
    dist: Distribution,
    dims: usize,
    seed: u64,
}

impl SyntheticGen {
    /// Creates a generator for `dims`-dimensional data.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    pub fn new(dist: Distribution, dims: usize, seed: u64) -> Self {
        assert!(dims > 0, "zero-dimensional data is not meaningful");
        SyntheticGen { dist, dims, seed }
    }

    /// Distribution produced by the generator.
    pub fn distribution(&self) -> Distribution {
        self.dist
    }

    /// Dimensionality of generated points.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Generates `n` points deterministically.
    pub fn generate(&self, n: usize) -> Vec<Point> {
        self.generate_block(n).rows().map(|row| Point::new_unchecked(row.to_vec())).collect()
    }

    /// Generates `n` points deterministically into one flat
    /// [`PointBlock`]: a single coordinate allocation plus a reused
    /// scratch row, instead of one heap allocation per point. Consumes
    /// the RNG identically to [`SyntheticGen::generate`], so the two
    /// produce the same coordinates for the same seed.
    pub fn generate_block(&self, n: usize) -> PointBlock {
        let mut rng = StdRng::seed_from_u64(self.seed);
        #[expect(clippy::expect_used, reason = "SyntheticGen::new asserts dims >= 1")]
        let mut block = PointBlock::with_capacity(self.dims, n).expect("dims > 0");
        let mut row = Vec::with_capacity(self.dims);
        for _ in 0..n {
            match self.dist {
                Distribution::Independent => self.fill_independent(&mut rng, &mut row),
                Distribution::Correlated => self.fill_correlated(&mut rng, &mut row),
                Distribution::AntiCorrelated => self.fill_anti_correlated(&mut rng, &mut row),
            }
            block.push_row(&row);
        }
        block
    }

    fn fill_independent<R: Rng>(&self, rng: &mut R, row: &mut Vec<f64>) {
        row.clear();
        row.extend((0..self.dims).map(|_| rng.gen_range(0.0..1.0)));
    }

    fn fill_correlated<R: Rng>(&self, rng: &mut R, row: &mut Vec<f64>) {
        // A peaked position on the diagonal plus small perpendicular noise.
        loop {
            row.clear();
            // Sum of two uniforms: triangular distribution peaked at 0.5.
            let v = 0.5 * (rng.gen_range(0.0..1.0) + rng.gen_range(0.0..1.0));
            row.extend((0..self.dims).map(|_| v + normal(rng, 0.0, 0.05)));
            if row.iter().all(|c| (0.0..=1.0).contains(c)) {
                return;
            }
        }
    }

    fn fill_anti_correlated<R: Rng>(&self, rng: &mut R, row: &mut Vec<f64>) {
        // Points near the plane Σ x_i = |D|/2: start all dimensions at a
        // normally distributed v, then shift mass between random pairs of
        // dimensions, keeping the coordinate sum constant.
        loop {
            let v = normal(rng, 0.5, 0.1);
            if !(0.0..=1.0).contains(&v) {
                continue;
            }
            row.clear();
            row.resize(self.dims, v);
            if self.dims == 1 {
                return;
            }
            for _ in 0..self.dims {
                let i = rng.gen_range(0..self.dims);
                let mut j = rng.gen_range(0..self.dims);
                while j == i {
                    j = rng.gen_range(0..self.dims);
                }
                // Transferable mass keeping both coordinates in [0,1].
                let max_shift = (1.0 - row[j]).min(row[i]);
                if max_shift <= 0.0 {
                    continue;
                }
                let shift = rng.gen_range(0.0..max_shift);
                row[i] -= shift;
                row[j] += shift;
            }
            if row.iter().all(|c| (0.0..=1.0).contains(c)) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_per_dim(points: &[Point], dims: usize) -> Vec<f64> {
        let mut m = vec![0.0; dims];
        for p in points {
            for (i, &c) in p.coords().iter().enumerate() {
                m[i] += c;
            }
        }
        for v in &mut m {
            *v /= points.len() as f64;
        }
        m
    }

    fn pearson(points: &[Point], a: usize, b: usize) -> f64 {
        let n = points.len() as f64;
        let ma = points.iter().map(|p| p[a]).sum::<f64>() / n;
        let mb = points.iter().map(|p| p[b]).sum::<f64>() / n;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for p in points {
            cov += (p[a] - ma) * (p[b] - mb);
            va += (p[a] - ma).powi(2);
            vb += (p[b] - mb).powi(2);
        }
        cov / (va.sqrt() * vb.sqrt())
    }

    #[test]
    fn block_generation_matches_point_generation() {
        for dist in
            [Distribution::Independent, Distribution::Correlated, Distribution::AntiCorrelated]
        {
            let g = SyntheticGen::new(dist, 4, 11);
            let block = g.generate_block(500);
            assert_eq!(block.len(), 500);
            assert_eq!(block.dims(), 4);
            assert_eq!(block.to_points(), g.generate(500), "{dist:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = SyntheticGen::new(Distribution::Independent, 4, 7);
        assert_eq!(g.generate(100), g.generate(100));
        let g2 = SyntheticGen::new(Distribution::Independent, 4, 8);
        assert_ne!(g.generate(100), g2.generate(100));
    }

    #[test]
    fn all_coords_in_unit_cube() {
        for dist in
            [Distribution::Independent, Distribution::Correlated, Distribution::AntiCorrelated]
        {
            let pts = SyntheticGen::new(dist, 5, 1).generate(2_000);
            assert_eq!(pts.len(), 2_000);
            for p in &pts {
                assert!(p.coords().iter().all(|c| (0.0..=1.0).contains(c)), "{dist:?}: {p:?}");
            }
        }
    }

    #[test]
    fn independent_is_roughly_uniform() {
        let pts = SyntheticGen::new(Distribution::Independent, 3, 2).generate(20_000);
        for m in mean_per_dim(&pts, 3) {
            assert!((m - 0.5).abs() < 0.02, "mean {m}");
        }
        let r = pearson(&pts, 0, 1);
        assert!(r.abs() < 0.05, "correlation {r}");
    }

    #[test]
    fn correlated_has_positive_correlation() {
        let pts = SyntheticGen::new(Distribution::Correlated, 3, 3).generate(10_000);
        let r = pearson(&pts, 0, 2);
        assert!(r > 0.7, "correlation {r}");
    }

    #[test]
    fn anti_correlated_has_negative_correlation() {
        let pts = SyntheticGen::new(Distribution::AntiCorrelated, 2, 4).generate(10_000);
        let r = pearson(&pts, 0, 1);
        assert!(r < -0.5, "correlation {r}");
    }

    #[test]
    fn anti_correlated_sum_concentrated() {
        let pts = SyntheticGen::new(Distribution::AntiCorrelated, 4, 5).generate(5_000);
        let mean_sum = pts.iter().map(Point::coord_sum).sum::<f64>() / pts.len() as f64;
        assert!((mean_sum - 2.0).abs() < 0.1, "mean coord sum {mean_sum}");
    }

    #[test]
    #[should_panic(expected = "zero-dimensional")]
    fn zero_dims_panics() {
        let _ = SyntheticGen::new(Distribution::Independent, 0, 0);
    }

    #[test]
    fn labels() {
        assert_eq!(Distribution::Independent.label(), "independent");
        assert_eq!(Distribution::Correlated.label(), "correlated");
        assert_eq!(Distribution::AntiCorrelated.label(), "anti-correlated");
    }
}
