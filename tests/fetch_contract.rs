//! Pins what `Table::fetch_plan_into` emits, not just which row set: the
//! row ids *in emission order* (SFS input order, hence `dominance_tests`,
//! depends on it), every `FetchStats` field and the simulated latency in
//! nanoseconds, for coalescing and non-coalescing runs of the same region
//! list. `tests/prop_coalescing.rs` compares sorted row sets only, so a
//! reordering would pass there and fail here. Every case is also held to
//! `sim_ns(coalesce=true) <= sim_ns(coalesce=false)`, and `Table::predict`
//! to what each run was charged (`check_prediction`).
//!
//! The expected lines live in `tests/golden/fetch_contract.txt` (d = 4)
//! and `tests/golden/fetch_contract_wide.txt` (d = 6 and d = 10: ties,
//! signed zeros, duplicate rows and bounds placed on data values);
//! regenerate with `UPDATE_GOLDEN=1 cargo test --test fetch_contract`
//! only for a deliberate change of the fetch contract.

use std::fmt::Write as _;

use skycache::algos::Sfs;
use skycache::core::{cases, MprMode};
use skycache::datagen::{DimStats, Distribution, InteractiveWorkload, SyntheticGen, Workload};
use skycache::geom::{Constraints, HyperRect, Interval, Point, PointBlock};
use skycache::storage::{FetchPlan, FetchScratch, FetchStats, Table, TableConfig};

const DIMS: usize = 4;

/// FNV-1a over the emitted ids: order-sensitive, dependency-free.
fn ids_fingerprint(ids: &[u32]) -> u64 {
    ids.iter().flat_map(|id| id.to_le_bytes()).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One golden line per (plan, coalesce) run. Coalescing buys range
/// queries only where they pay: its plan is never charged more than the
/// same regions fetched one by one.
fn run_line(
    table: &Table,
    scratch: &mut FetchScratch,
    name: &str,
    regions: &[HyperRect],
    out: &mut String,
) {
    let mut separate = std::time::Duration::MAX;
    for coalesce in [false, true] {
        let plan = FetchPlan::new(regions.to_vec());
        let plan = if coalesce { plan.coalesced() } else { plan };
        let outcome = table.fetch_plan_into(&plan, scratch);
        if !coalesce {
            separate = outcome.simulated_latency;
        }
        assert!(
            outcome.simulated_latency <= separate,
            "{name}: coalesced {:?} > separate {separate:?}",
            outcome.simulated_latency
        );
        let s = outcome.stats;
        check_prediction(table, &plan, &s, name);
        let ids = scratch.rows().ids();
        writeln!(
            out,
            "{name} coalesce={coalesce} regions={} rows={} ids={:016x} issued={} executed={} \
             empty={} points_read={} heap_fetches={} rows_matched={} index_probes={} \
             index_entries={} coalesced={} sim_ns={}",
            regions.len(),
            ids.len(),
            ids_fingerprint(ids),
            s.range_queries_issued,
            s.range_queries_executed,
            s.range_queries_empty,
            s.points_read,
            s.heap_fetches,
            s.rows_matched,
            s.index_probes,
            s.index_entries_scanned,
            s.regions_coalesced,
            outcome.simulated_latency.as_nanos(),
        )
        .expect("writing to a String cannot fail");
    }
}

/// Pins [`Table::predict`] against what the fetch charged. It predicts
/// one range query per region the indexes do not prove empty — coalescing
/// can only charge fewer — and heap rows within a factor 2 of the charged
/// ones, give or take 2 rows for regions that hold next to none; a range
/// query coalescing saves may buy up to one seek's worth of rows on top
/// (DESIGN.md §12), and is allowed for.
fn check_prediction(table: &Table, plan: &FetchPlan, s: &FetchStats, name: &str) {
    let p = table.predict(plan);
    let ready = s.range_queries_issued - s.range_queries_empty;
    assert_eq!(p.range_queries, ready, "{name}: predicted range queries");
    assert!(p.range_queries >= s.range_queries_executed, "{name}: more executed than predicted");
    let (rows, charged) = (p.heap_fetches, s.heap_fetches as f64);
    let bought = table.config().cost_model.seek_rows() * s.regions_coalesced as f64;
    assert!(
        rows <= 2.0 * charged + 2.0 && charged <= 2.0 * rows + 2.0 + bought,
        "{name}: predicted {rows:.1} heap rows, charged {charged} (coalesced {})",
        s.regions_coalesced
    );
}

fn closed(pairs: [(f64, f64); DIMS]) -> HyperRect {
    HyperRect::from_intervals(pairs.map(|(lo, hi)| Interval::closed(lo, hi)).to_vec())
}

fn rect(ivs: [Interval; DIMS]) -> HyperRect {
    HyperRect::from_intervals(ivs.to_vec())
}

const ALL: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);

/// Overlapping, abutting, nested, degenerate, empty and unbounded region
/// sets: the shapes the coalescing planner groups, splits and dedups.
fn hand_built() -> Vec<(&'static str, Vec<HyperRect>)> {
    let any = Interval::closed(ALL.0, ALL.1);
    let slab = |lo: f64, hi: f64| closed([(lo, hi), ALL, ALL, ALL]);
    vec![
        ("no-regions", vec![]),
        ("unbounded", vec![closed([ALL; DIMS])]),
        ("unbounded-twice", vec![closed([ALL; DIMS]), closed([ALL; DIMS])]),
        ("degenerate", vec![rect([Interval::new(0.3, 0.3, true, false), any, any, any])]),
        ("probed-empty", vec![closed([(2.0, 3.0), (0.0, 1.0), ALL, ALL])]),
        ("overlap-pair", vec![slab(0.10, 0.30), slab(0.25, 0.40)]),
        (
            "abut-half-open",
            vec![
                rect([Interval::new(0.10, 0.20, false, true), any, any, any]),
                rect([Interval::new(0.20, 0.30, false, false), any, any, any]),
            ],
        ),
        ("abut-closed-shared-key", vec![slab(0.10, 0.20), slab(0.20, 0.30)]),
        ("nested", vec![slab(0.10, 0.60), slab(0.30, 0.40)]),
        ("nested-inner-first", vec![slab(0.30, 0.40), slab(0.10, 0.60)]),
        ("identical-twice", vec![slab(0.45, 0.55), slab(0.45, 0.55)]),
        ("disjoint-gap", vec![slab(0.05, 0.10), slab(0.80, 0.85)]),
        ("disjoint-gap-reversed", vec![slab(0.80, 0.85), slab(0.05, 0.10)]),
        ("chain-of-three", vec![slab(0.10, 0.30), slab(0.28, 0.50), slab(0.48, 0.70)]),
        (
            "slabs-descending",
            (0..10).rev().map(|i| slab(f64::from(i) * 0.05, f64::from(i + 1) * 0.05)).collect(),
        ),
        (
            "mixed-states",
            vec![
                slab(0.60, 0.70),
                rect([Interval::new(0.5, 0.5, true, true), any, any, any]),
                closed([(5.0, 6.0), ALL, ALL, ALL]),
                closed([ALL; DIMS]),
                slab(0.65, 0.75),
            ],
        ),
        (
            "different-chosen-dims",
            vec![
                closed([(0.40, 0.45), ALL, ALL, ALL]),
                closed([ALL, (0.40, 0.45), ALL, ALL]),
                closed([ALL, ALL, (0.40, 0.45), ALL]),
                closed([ALL, ALL, ALL, (0.40, 0.45)]),
            ],
        ),
        (
            "same-rows-two-dims",
            vec![
                closed([(0.20, 0.25), (0.00, 1.00), ALL, ALL]),
                closed([(0.00, 1.00), (0.20, 0.25), ALL, ALL]),
            ],
        ),
        (
            "bitmap-beside-single-index",
            vec![
                closed([(0.30, 0.50), (0.30, 0.50), (0.30, 0.50), (0.30, 0.50)]),
                closed([(0.45, 0.47), ALL, ALL, ALL]),
            ],
        ),
        ("point-region", vec![closed([(0.5, 0.5), (0.5, 0.5), ALL, ALL])]),
        (
            "open-both-ends",
            vec![
                rect([Interval::new(0.10, 0.30, true, true), any, any, any]),
                rect([Interval::new(0.30, 0.50, true, true), any, any, any]),
            ],
        ),
        (
            "cells-2x2",
            vec![
                closed([(0.2, 0.4), (0.2, 0.4), ALL, ALL]),
                closed([(0.2, 0.4), (0.4, 0.6), ALL, ALL]),
                closed([(0.4, 0.6), (0.2, 0.4), ALL, ALL]),
                closed([(0.4, 0.6), (0.4, 0.6), ALL, ALL]),
            ],
        ),
        (
            "big-then-contained-other-dim",
            vec![
                closed([(0.0, 0.9), (0.0, 0.9), (0.0, 0.9), (0.0, 0.9)]),
                closed([ALL, ALL, ALL, (0.10, 0.12)]),
            ],
        ),
    ]
}

/// Remainder plans the engine really issues: each refinement of an
/// interactive chain planned against its predecessor's skyline. Returns
/// how many non-trivial plans ran.
fn chain_lines(
    points: &[Point],
    table: &Table,
    scratch: &mut FetchScratch,
    prefix: &str,
    workload: &Workload,
    modes: [(&str, MprMode); 2],
    out: &mut String,
) -> usize {
    let mut chain_plans = 0usize;
    for (i, pair) in workload.queries().windows(2).enumerate() {
        let (old, new) = (&pair[0], &pair[1]);
        if new.step == 0 {
            continue;
        }
        let cached = cached_skyline(points, &old.constraints);
        for (label, mode) in modes {
            let plan = cases::plan(&old.constraints, &cached, &new.constraints, mode);
            if plan.regions.is_empty() {
                continue;
            }
            chain_plans += 1;
            run_line(table, scratch, &format!("{prefix}chain-{i}-{label}"), &plan.regions, out);
        }
    }
    chain_plans
}

#[test]
fn fetch_rows_order_stats_and_latency_match_golden_file() {
    let points = SyntheticGen::new(Distribution::Independent, DIMS, 0x5EED).generate(4_000);
    let table = Table::build(points.clone(), TableConfig::default()).expect("valid points");
    let mut scratch = FetchScratch::new();
    let mut got = String::new();

    let workload = InteractiveWorkload::new(DimStats::compute(&points)).generate(160, 7);
    let modes = [("ampr1", MprMode::Approximate { k: 1 }), ("exact", MprMode::Exact)];
    let chain_plans = chain_lines(&points, &table, &mut scratch, "", &workload, modes, &mut got);
    assert!(chain_plans >= 100, "only {chain_plans} non-trivial remainder plans");

    let sets = hand_built();
    assert!(sets.len() >= 20);
    for (name, regions) in &sets {
        run_line(&table, &mut scratch, name, regions, &mut got);
    }

    check_golden("fetch_contract.txt", &got);
}

/// A generated dataset bent into what the d = 4 golden's continuous
/// coordinates never produce: runs of repeated coordinates (every 7th
/// row snapped to a 1/16 grid), exact duplicate rows, `0.0` / `-0.0`
/// keys in the first, a middle and the last dimension, and a few
/// negative coordinates so the zero run is not the column minimum.
fn wide_points(dist: Distribution, dims: usize, n: usize, seed: u64) -> Vec<Point> {
    let mut rows: Vec<Vec<f64>> = SyntheticGen::new(dist, dims, seed)
        .generate(n)
        .iter()
        .map(|p| p.coords().to_vec())
        .collect();
    for (i, row) in rows.iter_mut().enumerate() {
        if i % 7 == 0 {
            for c in row.iter_mut() {
                *c = (*c * 16.0).round() / 16.0;
            }
        }
        if i % 13 == 0 {
            let zero = if i % 2 == 0 { 0.0 } else { -0.0 };
            row[[0, dims / 2, dims - 1][i % 3]] = zero;
        }
        if i % 97 == 0 {
            row[i % dims] = -0.25;
        }
    }
    for i in 0..40 {
        rows[n - 1 - i] = rows[3 * i + 1].clone();
    }
    rows.into_iter().map(Point::from).collect()
}

/// Region sets whose bounds sit *on* data values — the equi-depth
/// quantiles of each column (where any bucketing of the keys splits),
/// the 1/16 grid, both zeros and whole stored rows — with every mix of
/// open, closed, half-infinite and degenerate ends. Most sets pair the
/// dimension under test with a quantile band on its neighbour, so the
/// shaped bound is decided by the post-filter, not by the index walk.
fn wide_regions(points: &[Point]) -> Vec<(String, Vec<HyperRect>)> {
    let dims = points[0].dims();
    let n = points.len();
    let any = Interval::closed(ALL.0, ALL.1);
    // `boxed(&[(dim, interval), …])`: unbounded everywhere else.
    let boxed = |bounds: &[(usize, Interval)]| {
        let mut ivs = vec![any; dims];
        for &(dim, iv) in bounds {
            ivs[dim] = iv;
        }
        HyperRect::from_intervals(ivs)
    };
    let columns: Vec<Vec<f64>> = (0..dims)
        .map(|dim| {
            let mut col: Vec<f64> = points.iter().map(|p| p[dim]).collect();
            col.sort_unstable_by(f64::total_cmp);
            col
        })
        .collect();
    // The key at equi-depth rank `k`/128 of column `dim`.
    let q = |dim: usize, k: usize| columns[dim][(k * n / 128).min(n - 1)];
    let mut sets: Vec<(String, Vec<HyperRect>)> = Vec::new();

    let mut probe_dims = vec![0, dims / 2, dims - 1];
    if dims > 8 {
        probe_dims.push(8); // first unsketched lane
    }
    for &dim in &probe_dims {
        let next = (dim + 1) % dims;
        let band = (next, Interval::closed(q(next, 40), q(next, 56)));
        // Two keys of this dimension held by rows inside the band, so an
        // open end really excludes a candidate.
        let mut in_band: Vec<f64> =
            points.iter().filter(|p| band.1.contains(p[next])).map(|p| p[dim]).collect();
        in_band.sort_unstable_by(f64::total_cmp);
        let (a, b) = (in_band[in_band.len() / 4], in_band[3 * in_band.len() / 4]);
        let mut shapes: Vec<(String, Interval)> = Vec::new();
        for (lo_open, hi_open) in [(false, false), (true, true), (true, false), (false, true)] {
            let ends = format!("lo_open={lo_open}-hi_open={hi_open}");
            shapes.push((format!("keys-{ends}"), Interval::new(a, b, lo_open, hi_open)));
            shapes.push((format!("grid-{ends}"), Interval::new(0.25, 0.75, lo_open, hi_open)));
        }
        for open in [false, true] {
            shapes.push((format!("below-key-open={open}"), Interval::new(ALL.0, a, false, open)));
            shapes.push((format!("above-key-open={open}"), Interval::new(b, ALL.1, open, false)));
            shapes
                .push((format!("below-grid-open={open}"), Interval::new(ALL.0, 0.5, false, open)));
            shapes
                .push((format!("above-grid-open={open}"), Interval::new(0.5, ALL.1, open, false)));
        }
        shapes.push(("point-key".into(), Interval::closed(a, a)));
        shapes.push(("point-grid".into(), Interval::closed(0.5, 0.5)));
        shapes.push(("degenerate-grid".into(), Interval::new(0.5, 0.5, true, false)));
        // Both zeros are one key value, whichever sign the bound has.
        shapes.push(("zero-point".into(), Interval::closed(0.0, 0.0)));
        shapes.push(("neg-zero-point".into(), Interval::closed(-0.0, -0.0)));
        shapes.push(("above-zero-open".into(), Interval::new(0.0, 0.25, true, false)));
        shapes.push(("from-neg-zero".into(), Interval::new(-0.0, 0.25, false, true)));
        shapes.push(("below-neg-zero-open".into(), Interval::new(-0.25, -0.0, false, true)));
        shapes.push(("through-zero".into(), Interval::closed(-0.25, 0.0)));
        for (name, iv) in shapes {
            sets.push((format!("dim{dim}-{name}"), vec![boxed(&[band, (dim, iv)])]));
        }
        // The same shapes with the tested dimension driving the walk.
        sets.push((
            format!("dim{dim}-alone-ends"),
            vec![
                boxed(&[(dim, Interval::new(q(dim, 10), q(dim, 14), true, false))]),
                boxed(&[(dim, Interval::new(q(dim, 13), q(dim, 17), true, true))]),
                boxed(&[(dim, Interval::new(q(dim, 17), q(dim, 19), false, true))]),
                boxed(&[(dim, Interval::new(0.0, 0.0625, true, false))]),
                boxed(&[(dim, Interval::closed(-0.25, -0.0))]),
            ],
        ));
        // Split at a data value: exactly one side may own it.
        sets.push((
            format!("dim{dim}-split-at-grid"),
            vec![
                boxed(&[band, (dim, Interval::new(0.25, 0.5, false, true))]),
                boxed(&[band, (dim, Interval::new(0.5, 0.75, false, false))]),
            ],
        ));
        sets.push((
            format!("dim{dim}-split-at-key"),
            vec![
                boxed(&[band, (dim, Interval::new(ALL.0, a, false, true))]),
                boxed(&[band, (dim, Interval::new(a, b, false, false))]),
                boxed(&[band, (dim, Interval::new(b, ALL.1, true, false))]),
            ],
        ));
    }

    // Every dimension bounded on grid values (ties on all lanes).
    for (lo_open, hi_open) in [(false, false), (true, true), (false, true)] {
        let iv = Interval::new(0.25, 0.75, lo_open, hi_open);
        sets.push((
            format!("grid-box-lo_open={lo_open}-hi_open={hi_open}"),
            vec![HyperRect::from_intervals(vec![iv; dims])],
        ));
    }
    // Every dimension bounded on its own quantile keys, ends alternating.
    sets.push((
        "quantile-box-all-dims".into(),
        vec![HyperRect::from_intervals(
            (0..dims)
                .map(|dim| Interval::new(q(dim, 8), q(dim, 120), dim % 2 == 0, dim % 3 == 0))
                .collect::<Vec<_>>(),
        )],
    ));
    // Grid cells sharing faces: abutting ranges in the chosen dimension.
    sets.push((
        "grid-cells".into(),
        [(0.25, 0.5), (0.5, 0.75)]
            .iter()
            .flat_map(|&(a, b)| {
                [(0.25, 0.5), (0.5, 0.75)].map(|(c, d)| {
                    boxed(&[
                        (0, Interval::new(a, b, false, true)),
                        (dims - 1, Interval::new(c, d, true, false)),
                    ])
                })
            })
            .collect(),
    ));
    // A stored (duplicated) row as a point region, and as the excluded
    // corner of an open box.
    let dup = points[n - 1].coords();
    let around = |f: &dyn Fn(f64) -> Interval| {
        HyperRect::from_intervals(dup.iter().map(|&c| f(c)).collect::<Vec<_>>())
    };
    sets.push(("duplicate-row-point".into(), vec![around(&|c| Interval::closed(c, c))]));
    sets.push((
        "duplicate-row-open-corner".into(),
        vec![around(&|c| Interval::new(c, c + 0.25, true, false))],
    ));
    sets.push((
        "duplicate-row-closed-corner".into(),
        vec![around(&|c| Interval::new(c, c + 0.25, false, true))],
    ));
    // Quantile boxes over the first two, the last two and a split pair of
    // dimensions: at d = 10 the second set is decided by lanes 8–9 alone.
    for (name, a, b) in [("head", 0, 1), ("tail", dims - 2, dims - 1), ("head-tail", 1, dims - 1)] {
        sets.push((
            format!("{name}-quantile-boxes"),
            vec![
                boxed(&[
                    (a, Interval::closed(q(a, 20), q(a, 50))),
                    (b, Interval::new(q(b, 30), q(b, 70), true, false)),
                ]),
                boxed(&[
                    (a, Interval::new(q(a, 50), q(a, 80), true, false)),
                    (b, Interval::closed(q(b, 30), q(b, 70))),
                ]),
                boxed(&[
                    (a, Interval::new(q(a, 20), q(a, 80), false, true)),
                    (b, Interval::new(q(b, 70), ALL.1, true, false)),
                ]),
            ],
        ));
    }
    sets
}

#[test]
fn wide_tables_match_golden_file() {
    let mut scratch = FetchScratch::new();
    let mut got = String::new();
    for (tag, dist, dims, n, seed) in [
        ("d6-", Distribution::AntiCorrelated, 6, 5_000, 0x5EED6),
        ("d10-", Distribution::Independent, 10, 2_000, 0x5EED10),
    ] {
        let points = wide_points(dist, dims, n, seed);
        let table = Table::build(points.clone(), TableConfig::default()).expect("valid points");
        // Interactive chains only where they return rows: a 3-sigma box
        // in ten dimensions over 2 000 points is almost always empty.
        if dims == 6 {
            let workload = InteractiveWorkload::new(DimStats::compute(&points)).generate(60, 7);
            let modes = [
                ("ampr1", MprMode::Approximate { k: 1 }),
                ("ampr4", MprMode::Approximate { k: 4 }),
            ];
            let chain_plans =
                chain_lines(&points, &table, &mut scratch, tag, &workload, modes, &mut got);
            assert!(chain_plans >= 30, "only {chain_plans} non-trivial remainder plans");
        }
        for (name, regions) in &wide_regions(&points) {
            run_line(&table, &mut scratch, &format!("{tag}{name}"), regions, &mut got);
        }
    }
    check_golden("fetch_contract_wide.txt", &got);
}

/// Compares `got` with `tests/golden/<file>` line by line.
fn check_golden(file: &str, got: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("golden file is writable");
    }
    let want = std::fs::read_to_string(&path).expect("golden file exists");
    for (line, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "fetch contract changed at {file} line {}", line + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "plan count changed in {file}");
}

fn cached_skyline(points: &[Point], c: &Constraints) -> PointBlock {
    let constrained: Vec<Point> = points.iter().filter(|p| c.satisfies(p)).cloned().collect();
    let mut block = PointBlock::new(points[0].dims()).expect("dims > 0");
    for p in &Sfs.compute(constrained).skyline {
        block.push(p);
    }
    block
}
