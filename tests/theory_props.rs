//! Property tests for the paper's theory (Section 4): stability
//! (Definition 4 / Theorem 1), its corollaries, and the four incremental
//! case solutions (Theorems 2–5), checked semantically on random data —
//! i.e., we test the *theorems*, not just our code paths.

use proptest::prelude::*;

use skycache::algos::Sfs;
use skycache::core::{classify, is_stable, Overlap};
use skycache::geom::{dominates, Constraints, Point};

const DIMS: usize = 3;

fn coord() -> impl Strategy<Value = f64> {
    (0..=12u8).prop_map(|v| f64::from(v) / 12.0)
}

fn point() -> impl Strategy<Value = Point> {
    prop::collection::vec(coord(), DIMS).prop_map(Point::from)
}

fn dataset() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(point(), 1..150)
}

fn constraints() -> impl Strategy<Value = Constraints> {
    (prop::collection::vec(coord(), DIMS), prop::collection::vec(coord(), DIMS)).prop_map(
        |(a, b)| {
            let lo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect();
            let hi: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
            Constraints::new(lo, hi).expect("ordered")
        },
    )
}

fn sky(points: &[Point], c: &Constraints) -> Vec<Point> {
    Sfs.compute(points.iter().filter(|p| c.satisfies(p)).cloned().collect()).skyline
}

fn contains(haystack: &[Point], needle: &Point) -> bool {
    haystack.iter().any(|p| p == needle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Definition 4 via Theorem 1: when `is_stable(C, C′)` holds, every
    /// point of `Sky(S, C′)` either failed the old constraints or was in
    /// the old skyline — no previously-dominated point resurfaces.
    #[test]
    fn theorem1_stability_is_semantically_sound(
        points in dataset(),
        c_old in constraints(),
        c_new in constraints(),
    ) {
        prop_assume!(is_stable(&c_old, &c_new));
        let old_sky = sky(&points, &c_old);
        let new_sky = sky(&points, &c_new);
        for s in &new_sky {
            let in_old_data = c_old.satisfies(s);
            prop_assert!(
                !in_old_data || contains(&old_sky, s),
                "stable case resurrected {s:?}"
            );
        }
    }

    /// Theorem 1 converse direction on single-bound changes: only raising
    /// a lower bound can make a previously-dominated point enter the new
    /// skyline; for cases (a)-(c) it never happens (checked by
    /// construction of the cases rather than assumed from classify).
    #[test]
    fn cases_abc_never_resurrect(
        points in dataset(),
        c_old in constraints(),
        dim in 0..DIMS,
        delta in (1..=4u8).prop_map(|v| f64::from(v) / 12.0),
        kind in 0..3usize,
    ) {
        let (lo, hi) = (c_old.lo()[dim], c_old.hi()[dim]);
        let c_new = match kind {
            0 => c_old.with_dim(dim, lo - delta, hi),          // case (a)
            1 if hi - delta >= lo => c_old.with_dim(dim, lo, hi - delta), // case (b)
            _ => c_old.with_dim(dim, lo, hi + delta),          // case (c)
        }.expect("valid bounds");
        prop_assume!(c_old != c_new);
        prop_assert!(is_stable(&c_old, &c_new));

        let old_sky = sky(&points, &c_old);
        for s in sky(&points, &c_new) {
            prop_assert!(!c_old.satisfies(&s) || contains(&old_sky, &s));
        }
    }

    /// Theorem 2, case (a): `Sky(S,C′) = Sky(Sky(S,C) ∪ S_ΔC, C′)`.
    #[test]
    fn theorem2_case_a_formula(
        points in dataset(),
        c_old in constraints(),
        dim in 0..DIMS,
        delta in (1..=4u8).prop_map(|v| f64::from(v) / 12.0),
    ) {
        let c_new = c_old
            .with_dim(dim, c_old.lo()[dim] - delta, c_old.hi()[dim])
            .expect("valid");
        let old_sky = sky(&points, &c_old);
        // S_ΔC: satisfies new but not old constraints.
        let delta_points: Vec<Point> = points
            .iter()
            .filter(|p| c_new.satisfies(p) && !c_old.satisfies(p))
            .cloned()
            .collect();
        let input: Vec<Point> = old_sky.into_iter().chain(delta_points).collect();
        let via_theorem = sorted(Sfs.compute(input).skyline);
        let direct = sorted(sky(&points, &c_new));
        prop_assert_eq!(via_theorem, direct);
    }

    /// Theorem 3, case (b): `Sky(S,C′) = Sky(S,C) ∩ S_C′` — as coordinate
    /// sets (multiplicity of duplicates can differ; see DESIGN.md).
    #[test]
    fn theorem3_case_b_formula(
        points in dataset(),
        c_old in constraints(),
        dim in 0..DIMS,
        frac in (1..=10u8).prop_map(|v| f64::from(v) / 10.0),
    ) {
        let (lo, hi) = (c_old.lo()[dim], c_old.hi()[dim]);
        let new_hi = lo + (hi - lo) * frac;
        prop_assume!(new_hi < hi);
        let c_new = c_old.with_dim(dim, lo, new_hi).expect("valid");

        let filtered: Vec<Point> = sky(&points, &c_old)
            .into_iter()
            .filter(|p| c_new.satisfies(p))
            .collect();
        prop_assert_eq!(sorted(filtered), sorted(sky(&points, &c_new)));
    }

    /// Theorem 4, case (c): points of `ΔC` dominated by old skyline points
    /// can be discarded before merging.
    #[test]
    fn theorem4_case_c_formula(
        points in dataset(),
        c_old in constraints(),
        dim in 0..DIMS,
        delta in (1..=4u8).prop_map(|v| f64::from(v) / 12.0),
    ) {
        let c_new = c_old
            .with_dim(dim, c_old.lo()[dim], c_old.hi()[dim] + delta)
            .expect("valid");
        let old_sky = sky(&points, &c_old);
        let pruned_delta: Vec<Point> = points
            .iter()
            .filter(|p| c_new.satisfies(p) && !c_old.satisfies(p))
            .filter(|p| !old_sky.iter().any(|t| dominates(t, p)))
            .cloned()
            .collect();
        let input: Vec<Point> = old_sky.into_iter().chain(pruned_delta).collect();
        prop_assert_eq!(
            sorted(Sfs.compute(input).skyline),
            sorted(sky(&points, &c_new))
        );
    }

    /// Theorem 5, case (d): the retained old skyline plus the re-fetched
    /// invalidated points reconstruct the new skyline. The fetch set is
    /// the theorem's: points of `S_C ∩ S_C′` dominated by some *removed*
    /// skyline point and by no *retained* one — plus everything the old
    /// skyline never covered is unnecessary (R_C′ ⊂ R_C here).
    #[test]
    fn theorem5_case_d_formula(
        points in dataset(),
        c_old in constraints(),
        dim in 0..DIMS,
        frac in (1..=9u8).prop_map(|v| f64::from(v) / 10.0),
    ) {
        let (lo, hi) = (c_old.lo()[dim], c_old.hi()[dim]);
        let new_lo = lo + (hi - lo) * frac;
        prop_assume!(new_lo > lo && new_lo <= hi);
        let c_new = c_old.with_dim(dim, new_lo, hi).expect("valid");

        let old_sky = sky(&points, &c_old);
        let (retained, removed): (Vec<Point>, Vec<Point>) =
            old_sky.into_iter().partition(|p| c_new.satisfies(p));
        let refetched: Vec<Point> = points
            .iter()
            .filter(|p| c_new.satisfies(p))
            .filter(|p| removed.iter().any(|t| dominates(t, p)))
            .filter(|p| !retained.iter().any(|u| dominates(u, p)))
            .cloned()
            .collect();
        let input: Vec<Point> = retained.into_iter().chain(refetched).collect();
        // Set-level equality (duplicate multiplicities may differ).
        prop_assert_eq!(
            dedup(Sfs.compute(input).skyline),
            dedup(sky(&points, &c_new))
        );
    }

    /// `classify` is consistent with `is_stable` on arbitrary pairs.
    #[test]
    fn classify_agrees_with_is_stable(c_old in constraints(), c_new in constraints()) {
        let class = classify(&c_old, &c_new);
        prop_assert_eq!(class.is_stable(), is_stable(&c_old, &c_new));
        if class == Overlap::Exact {
            prop_assert_eq!(&c_old, &c_new);
        }
        if class == Overlap::Disjoint {
            prop_assert!(!c_old.overlaps(&c_new));
        }
    }
}

fn sorted(mut v: Vec<Point>) -> Vec<Point> {
    v.sort_by_key(|p| p.coords().iter().map(|c| c.to_bits()).collect::<Vec<_>>());
    v
}

fn dedup(v: Vec<Point>) -> Vec<Point> {
    let mut v = sorted(v);
    v.dedup();
    v
}
