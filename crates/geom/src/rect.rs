use std::ops::Index;

use crate::Interval;

/// Whether the region `r` contains the row `row`. Exits on the first
/// failing dimension: the fetch post-filter that calls this per row
/// rejects most rows within a coordinate or two.
#[inline]
pub fn contains(r: &[Interval], row: &[f64]) -> bool {
    debug_assert_eq!(r.len(), row.len());
    r.iter().zip(row).all(|(iv, &c)| iv.contains(c))
}

/// A region is empty when any of its intervals is.
#[inline]
pub fn is_empty(r: &[Interval]) -> bool {
    r.iter().any(Interval::is_empty)
}

/// Hyper-volume of the region `r` (zero when it is empty).
pub fn volume(r: &[Interval]) -> f64 {
    if is_empty(r) {
        return 0.0;
    }
    r.iter().map(Interval::width).product()
}

/// A list of regions, stored flat: each region is one [`Interval`] per
/// dimension, and the regions lie back to back in one buffer.
///
/// This is the currency of the MPR computation: Algorithm 1 works on a
/// set of these, and each surviving region is issued to storage as one
/// range query. Openness matters there: two regions produced by a split
/// at a coordinate `v` share the value `v` on the boundary, and exactly
/// one of them may include it. A list grows and is cleared without an
/// allocation per region, so scratch lists reach their high-water mark
/// once.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Regions {
    /// Intervals per region; zero while the list is empty.
    dims: usize,
    ivs: Vec<Interval>,
}

impl Regions {
    /// Number of regions.
    #[inline]
    pub fn len(&self) -> usize {
        self.ivs.len() / self.dims.max(1)
    }

    /// Whether the list holds no region.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// The regions in order, one interval slice each.
    #[inline]
    pub fn iter(&self) -> std::slice::ChunksExact<'_, Interval> {
        self.ivs.chunks_exact(self.dims.max(1))
    }

    /// Appends a copy of `region` and returns it for editing. The first
    /// region of an empty list sets the list's dimensionality.
    pub fn push(&mut self, region: &[Interval]) -> &mut [Interval] {
        debug_assert!(self.is_empty() || region.len() == self.dims, "dimensionality mismatch");
        self.dims = region.len();
        let at = self.ivs.len();
        self.ivs.extend_from_slice(region);
        &mut self.ivs[at..]
    }

    /// Appends the closed box `[lo, hi]`.
    pub fn push_closed(&mut self, lo: &[f64], hi: &[f64]) {
        debug_assert!(self.is_empty() || lo.len() == self.dims, "dimensionality mismatch");
        self.dims = lo.len();
        self.ivs.extend(lo.iter().zip(hi).map(|(&l, &h)| Interval::closed(l, h)));
    }

    /// Removes every region, keeping the buffer.
    pub fn clear(&mut self) {
        self.ivs.clear();
        self.dims = 0;
    }
}

impl Index<usize> for Regions {
    type Output = [Interval];

    /// Region `i`.
    #[inline]
    fn index(&self, i: usize) -> &[Interval] {
        &self.ivs[i * self.dims..(i + 1) * self.dims]
    }
}

/// A single region as a one-region list, without a copy.
impl From<Box<[Interval]>> for Regions {
    fn from(region: Box<[Interval]>) -> Self {
        Regions { dims: region.len(), ivs: region.into_vec() }
    }
}

impl<R: AsRef<[Interval]>> Extend<R> for Regions {
    fn extend<I: IntoIterator<Item = R>>(&mut self, regions: I) {
        for region in regions {
            self.push(region.as_ref());
        }
    }
}

impl<R: AsRef<[Interval]>> FromIterator<R> for Regions {
    fn from_iter<I: IntoIterator<Item = R>>(regions: I) -> Self {
        let mut list = Regions::default();
        list.extend(regions);
        list
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact expectations on exactly computed values")]
mod tests {
    use super::*;

    fn closed(lo: &[f64], hi: &[f64]) -> Vec<Interval> {
        lo.iter().zip(hi).map(|(&l, &h)| Interval::closed(l, h)).collect()
    }

    #[test]
    fn closed_rect_contains_boundary() {
        let r = closed(&[0.0, 0.0], &[1.0, 1.0]);
        assert!(contains(&r, &[0.0, 1.0]));
        assert!(!contains(&r, &[1.1, 0.5]));
        assert!(!is_empty(&r));
    }

    #[test]
    fn open_face_excludes_boundary() {
        let mut r = closed(&[0.0, 0.0], &[1.0, 1.0]);
        r[0] = Interval::new(0.0, 1.0, false, true);
        assert!(!contains(&r, &[1.0, 0.5]));
        assert!(contains(&r, &[0.999, 0.5]));
    }

    /// The intersection of two regions is the intersection of their
    /// intervals, dimension by dimension.
    #[test]
    fn intersection_and_containment() {
        let (a, b) = (closed(&[0.0, 0.0], &[2.0, 2.0]), closed(&[1.0, 1.0], &[3.0, 3.0]));
        let i: Vec<Interval> = a.iter().zip(&b).map(|(x, y)| x.intersect(y)).collect();
        assert_eq!(i, closed(&[1.0, 1.0], &[2.0, 2.0]));
        for probe in [[1.0, 2.0], [0.5, 1.5], [2.5, 1.5]] {
            assert_eq!(contains(&i, &probe), contains(&a, &probe) && contains(&b, &probe));
        }
        let far = closed(&[5.0, 5.0], &[6.0, 6.0]);
        assert!(is_empty(&a.iter().zip(&far).map(|(x, y)| x.intersect(y)).collect::<Vec<_>>()));
    }

    #[test]
    fn volume_of_empty_is_zero() {
        let mut r = closed(&[0.0, 0.0], &[2.0, 3.0]);
        assert_eq!(volume(&r), 6.0);
        r[0] = Interval::new(1.0, 1.0, true, false);
        assert!(is_empty(&r));
        assert_eq!(volume(&r), 0.0);
    }

    #[test]
    fn regions_lie_back_to_back() {
        let mut list = Regions::from(closed(&[0.0, 0.0], &[1.0, 1.0]).into_boxed_slice());
        list.push_closed(&[2.0, 2.0], &[3.0, 3.0]);
        list.push(&closed(&[4.0, 4.0], &[5.0, 5.0]))[1] = Interval::new(4.0, 5.0, true, false);
        assert_eq!(list.len(), 3);
        assert_eq!(&list[1], &closed(&[2.0, 2.0], &[3.0, 3.0])[..]);
        assert!(!contains(&list[2], &[4.5, 4.0]) && contains(&list[2], &[4.5, 4.5]));
        assert_eq!(list.iter().collect::<Regions>(), list);
        list.clear();
        assert_eq!((list.len(), list.iter().count()), (0, 0));
        assert_eq!(list, Regions::default());
    }
}
