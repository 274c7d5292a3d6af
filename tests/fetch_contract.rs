//! Pins what `Table::fetch_plan_into` emits, not just which row set: the
//! row ids *in emission order* (SFS input order, hence `dominance_tests`,
//! depends on it), every `FetchStats` field and the simulated latency in
//! nanoseconds, for coalescing and non-coalescing runs of the same region
//! list. `tests/prop_coalescing.rs` compares sorted row sets only, so a
//! reordering would pass there and fail here.
//!
//! The expected lines live in `tests/golden/fetch_contract.txt`;
//! regenerate with `UPDATE_GOLDEN=1 cargo test --test fetch_contract`
//! only for a deliberate change of the fetch contract.

use std::fmt::Write as _;

use skycache::algos::{Sfs, SkylineAlgorithm};
use skycache::core::{cases, MprMode};
use skycache::datagen::{DimStats, Distribution, InteractiveWorkload, SyntheticGen};
use skycache::geom::{Constraints, HyperRect, Interval, Point, PointBlock};
use skycache::storage::{FetchPlan, FetchScratch, Table, TableConfig};

const DIMS: usize = 4;

/// FNV-1a over the emitted ids: order-sensitive, dependency-free.
fn ids_fingerprint(ids: &[u32]) -> u64 {
    ids.iter().flat_map(|id| id.to_le_bytes()).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One golden line per (plan, coalesce) run.
fn run_line(
    table: &Table,
    scratch: &mut FetchScratch,
    name: &str,
    regions: &[HyperRect],
    out: &mut String,
) {
    for coalesce in [false, true] {
        let plan = FetchPlan::new(regions.to_vec());
        let plan = if coalesce { plan.coalesced() } else { plan };
        let outcome = table.fetch_plan_into(&plan, scratch);
        let s = outcome.stats;
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

#[test]
fn fetch_rows_order_stats_and_latency_match_golden_file() {
    let points = SyntheticGen::new(Distribution::Independent, DIMS, 0x5EED).generate(4_000);
    let table = Table::build(points.clone(), TableConfig::default()).expect("valid points");
    let mut scratch = FetchScratch::new();
    let mut got = String::new();

    // Remainder plans the engine really issues: each refinement of an
    // interactive chain planned against its predecessor's skyline.
    let workload = InteractiveWorkload::new(DimStats::compute(&points)).generate(160, 7);
    let queries = workload.queries();
    let mut chain_plans = 0usize;
    for (i, pair) in queries.windows(2).enumerate() {
        let (old, new) = (&pair[0], &pair[1]);
        if new.step == 0 {
            continue;
        }
        let cached = cached_skyline(&points, &old.constraints);
        for (label, mode) in [("ampr1", MprMode::Approximate { k: 1 }), ("exact", MprMode::Exact)] {
            let plan = cases::plan(&old.constraints, &cached, &new.constraints, mode);
            if plan.regions.is_empty() {
                continue;
            }
            chain_plans += 1;
            run_line(&table, &mut scratch, &format!("chain-{i}-{label}"), &plan.regions, &mut got);
        }
    }
    assert!(chain_plans >= 100, "only {chain_plans} non-trivial remainder plans");

    let sets = hand_built();
    assert!(sets.len() >= 20);
    for (name, regions) in &sets {
        run_line(&table, &mut scratch, name, regions, &mut got);
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fetch_contract.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("golden file is writable");
    }
    let want = std::fs::read_to_string(path).expect("golden file exists");
    for (line, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "fetch contract changed at golden line {}", line + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "plan count changed");
}

fn cached_skyline(points: &[Point], c: &Constraints) -> PointBlock {
    let constrained: Vec<Point> = points.iter().filter(|p| c.satisfies(p)).cloned().collect();
    let mut block = PointBlock::new(DIMS).expect("DIMS > 0");
    for p in &Sfs.compute(constrained).skyline {
        block.push(p);
    }
    block
}
