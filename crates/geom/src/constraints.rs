use std::fmt;

use crate::{Aabb, GeomError, HyperRect, Point, Result};

/// Orthogonal range constraints `C = ⟨C̲, C̄⟩` (Section 3 of the paper).
///
/// A constraints object is a closed box: a point `s` satisfies `C` iff
/// `C̲[i] ≤ s[i] ≤ C̄[i]` for every dimension `i`. The *constraint region*
/// `R_C` is the set of all such (potential) points and the *constrained
/// data* `S_C` the subset of the dataset inside it.
#[derive(Clone, PartialEq)]
pub struct Constraints {
    bounds: Aabb,
}

impl Constraints {
    /// Creates constraints from lower and upper corner vectors.
    pub fn new(lo: impl Into<Box<[f64]>>, hi: impl Into<Box<[f64]>>) -> Result<Self> {
        Ok(Constraints { bounds: Aabb::new(lo, hi)? })
    }

    /// Creates constraints from per-dimension `(lo, hi)` pairs.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> Result<Self> {
        let lo: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let hi: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        Constraints::new(lo, hi)
    }

    /// Completely unconstrained box over `dims` dimensions.
    pub fn unbounded(dims: usize) -> Result<Self> {
        if dims == 0 {
            return Err(GeomError::ZeroDimensions);
        }
        Ok(Constraints {
            bounds: Aabb::new_unchecked(vec![f64::NEG_INFINITY; dims], vec![f64::INFINITY; dims]),
        })
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.bounds.dims()
    }

    /// Lower constraint vector `C̲`.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        self.bounds.lo()
    }

    /// Upper constraint vector `C̄`.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        self.bounds.hi()
    }

    /// The underlying closed box.
    #[inline]
    pub fn aabb(&self) -> &Aabb {
        &self.bounds
    }

    /// The constraint region `R_C` as a closed [`HyperRect`].
    pub fn region(&self) -> HyperRect {
        self.bounds.to_rect()
    }

    /// Whether point `s` satisfies the constraints (`s ∈ S_C` membership).
    #[inline]
    pub fn satisfies(&self, s: &Point) -> bool {
        self.bounds.contains_point(s)
    }

    /// Bare-row membership: the zero-copy twin of
    /// [`Constraints::satisfies`] for coordinate slices coming out of a
    /// [`crate::PointBlock`].
    #[inline]
    pub fn satisfies_coords(&self, row: &[f64]) -> bool {
        self.bounds.contains_coords(row)
    }

    /// Whether the two constraint regions overlap (`R_C ∩ R_C′ ≠ ∅`).
    pub fn overlaps(&self, other: &Constraints) -> bool {
        self.bounds.intersects(&other.bounds)
    }

    /// The overlap region `R_C ∩ R_C′`, if any.
    pub fn overlap_region(&self, other: &Constraints) -> Option<Aabb> {
        self.bounds.intersection(&other.bounds)
    }

    /// Whether `other`'s region is fully contained in `self`'s.
    pub fn contains(&self, other: &Constraints) -> bool {
        self.bounds.contains_box(&other.bounds)
    }

    /// Returns a copy with dimension `dim`'s bounds replaced.
    ///
    /// This is the "incremental change" operation of Section 4: the paper's
    /// cases (a)–(d) each modify exactly one bound of one dimension.
    pub fn with_dim(&self, dim: usize, lo: f64, hi: f64) -> Result<Self> {
        if lo > hi {
            return Err(GeomError::InvertedBounds { dim });
        }
        let mut new_lo = self.lo().to_vec();
        let mut new_hi = self.hi().to_vec();
        new_lo[dim] = lo;
        new_hi[dim] = hi;
        Constraints::new(new_lo, new_hi)
    }
}

impl fmt::Debug for Constraints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C⟨{:?}, {:?}⟩", self.lo(), self.hi())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(lo: &[f64], hi: &[f64]) -> Constraints {
        Constraints::new(lo.to_vec(), hi.to_vec()).unwrap()
    }

    #[test]
    fn satisfies_is_closed() {
        let cc = c(&[0.0, 0.0], &[1.0, 1.0]);
        assert!(cc.satisfies(&Point::from(vec![0.0, 1.0])));
        assert!(!cc.satisfies(&Point::from(vec![-0.1, 0.5])));
    }

    #[test]
    fn unbounded_satisfies_everything() {
        let cc = Constraints::unbounded(3).unwrap();
        assert!(cc.satisfies(&Point::from(vec![1e300, -1e300, 0.0])));
        assert!(Constraints::unbounded(0).is_err());
    }

    #[test]
    fn with_dim_changes_one_dimension() {
        let cc = c(&[0.0, 0.0], &[1.0, 1.0]);
        let cc2 = cc.with_dim(1, 0.25, 0.75).unwrap();
        assert_eq!(cc2.lo(), &[0.0, 0.25]);
        assert_eq!(cc2.hi(), &[1.0, 0.75]);
        assert!(cc.with_dim(0, 2.0, 1.0).is_err());
    }

    #[test]
    fn overlap_math() {
        let a = c(&[0.0, 0.0], &[2.0, 2.0]);
        let b = c(&[1.0, 1.0], &[3.0, 3.0]);
        assert!(a.overlaps(&b));
        let o = a.overlap_region(&b).unwrap();
        assert_eq!(o.lo(), &[1.0, 1.0]);
        assert_eq!(o.hi(), &[2.0, 2.0]);
        assert!(a.contains(&c(&[0.5, 0.5], &[1.5, 1.5])));
    }
}
