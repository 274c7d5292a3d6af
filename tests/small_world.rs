//! A small world, checked exhaustively: at d = 2 with coordinates in
//! {0, 1, 2}, every table of one to three rows (repeats included), every
//! cached query and every new query whose bounds come from
//! {−∞, 0, 1, 2, +∞}. Each new query is answered by a fresh service that
//! has answered — and cached — the cached query first, and must equal a
//! from-scratch SFS over the rows it constrains, compared as sorted bit
//! patterns. Every triple runs under aMPR(0), aMPR(1) and exact MPR, each
//! under two cost models: the default one, under which a table this
//! small never pays for the corner-first step (DESIGN.md §18), and one
//! whose seek costs a quarter of a row, under which the step is taken.
//!
//! Tier-1 runs a fixed-stride slice of the world; the whole world is
//! `#[ignore]`d and runs in release:
//! `cargo test --release --test small_world -- --ignored`.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test code: a failed expectation fails the test"
)]

use skycache::algos::Sfs;
use skycache::core::{CbcsConfig, MprMode, QueryRequest, QueryStats, Service, ServiceConfig};
use skycache::geom::{Constraints, Point};
use skycache::storage::{CostModel, Table, TableConfig};

const COORDS: [f64; 3] = [0.0, 1.0, 2.0];
const BOUNDS: [f64; 5] = [f64::NEG_INFINITY, 0.0, 1.0, 2.0, f64::INFINITY];

/// The cost models every triple runs under: the default, and one whose
/// `seek_rows()` is a quarter. A corner is cut at the key `⌈f · n⌉`
/// positions into each index with `f = (seek_rows / n)^(1/2)`
/// ([`Table::corner_cut`]): over n = 3 rows it stops short of the top
/// key only for `seek_rows ≤ 1/3` — at one half it is the whole region.
fn cost_models() -> [CostModel; 2] {
    let default = CostModel::default();
    [default, CostModel { seek_ns: default.per_point_ns / 4, ..default }]
}

const MODES: [MprMode; 3] =
    [MprMode::Approximate { k: 0 }, MprMode::Approximate { k: 1 }, MprMode::Exact];

/// Every multiset of one to three grid points.
fn row_sets() -> Vec<Vec<Point>> {
    let grid: Vec<Point> =
        COORDS.iter().flat_map(|&x| COORDS.iter().map(move |&y| Point::from(vec![x, y]))).collect();
    let mut sets: Vec<Vec<usize>> = (0..grid.len()).map(|i| vec![i]).collect();
    for size in 2..=3 {
        let longer: Vec<Vec<usize>> = sets
            .iter()
            .filter(|s| s.len() == size - 1)
            .flat_map(|s| (s[s.len() - 1]..grid.len()).map(move |i| [s.as_slice(), &[i]].concat()))
            .collect();
        sets.extend(longer);
    }
    sets.iter().map(|s| s.iter().map(|&i| grid[i].clone()).collect()).collect()
}

/// Every constraint box with each side's bounds `lo ≤ hi` from [`BOUNDS`].
fn boxes() -> Vec<Constraints> {
    let sides: Vec<(f64, f64)> = BOUNDS
        .iter()
        .enumerate()
        .flat_map(|(i, &lo)| BOUNDS[i..].iter().map(move |&hi| (lo, hi)))
        .collect();
    sides
        .iter()
        .flat_map(|&x| sides.iter().map(move |&y| Constraints::from_pairs(&[x, y]).unwrap()))
        .collect()
}

/// The rows' bit patterns, sorted: `-0.0` and `0.0` differ.
fn bits(points: &[Point]) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> =
        points.iter().map(|p| p.coords().iter().map(|c| c.to_bits()).collect()).collect();
    rows.sort();
    rows
}

/// What one pass over (a slice of) the world saw.
#[derive(Debug, Default)]
struct Tally {
    /// Triples checked, each under every mode and cost model.
    triples: u64,
    /// Answers compared with the from-scratch skyline.
    answers: u64,
    /// Misses that issued more than one range query ([`split_miss`]),
    /// per cost model.
    split_misses: [u64; 2],
}

/// Checks every `stride`-th (table, cached query, new query) triple.
/// A cached query whose region the table's indexes prove empty leaves no
/// item behind, so all of them stand for one triple: the empty cache.
fn check_world(stride: usize) -> Tally {
    let boxes = boxes();
    let mut tally = Tally::default();
    let mut k = 0usize;
    for rows in row_sets() {
        let tables = cost_models()
            .map(|cost_model| Table::build(rows.clone(), TableConfig { cost_model }).unwrap());
        let want: Vec<Vec<Vec<u64>>> = boxes
            .iter()
            .map(|c| {
                let inside = rows.iter().filter(|p| c.satisfies(p)).cloned().collect();
                bits(&Sfs.compute(inside).skyline)
            })
            .collect();
        let cached: Vec<Option<usize>> = std::iter::once(None)
            .chain(
                (0..boxes.len())
                    .filter(|&i| !tables[0].probe_region_empty(&boxes[i].region()))
                    .map(Some),
            )
            .collect();
        for &old in &cached {
            for (new, expected) in boxes.iter().zip(&want) {
                k += 1;
                if !k.is_multiple_of(stride) {
                    continue;
                }
                tally.triples += 1;
                for (model, table) in tables.iter().enumerate() {
                    for mpr in MODES {
                        let config = CbcsConfig { mpr, ..CbcsConfig::default() };
                        let service = Service::open(table, ServiceConfig::with_cbcs(config));
                        let mut session = service.session();
                        let mut ask = |c: &Constraints| {
                            let outcome = session.execute(&QueryRequest::new(c.clone())).unwrap();
                            tally.split_misses[model] += u64::from(split_miss(&outcome.stats));
                            tally.answers += 1;
                            bits(&outcome.skyline)
                        };
                        if let Some(old) = old {
                            let got = ask(&boxes[old]);
                            assert_eq!(got, want[old], "{rows:?}: cached {:?}", boxes[old]);
                        }
                        assert_eq!(
                            &ask(new),
                            expected,
                            "{rows:?}: {new:?} after {:?} under {mpr:?}, cost model {model}",
                            old.map(|i| &boxes[i]),
                        );
                    }
                }
            }
        }
    }
    tally
}

/// A miss that issued more than one range query: only the corner-first
/// step splits a miss's one region.
fn split_miss(stats: &QueryStats) -> bool {
    stats.cache_miss && stats.negative_hits == 0 && stats.range_queries_issued > 1
}

/// Every 199th triple: the tier-1 slice, a few seconds in debug.
#[test]
fn a_slice_of_the_small_world_matches_sfs() {
    let tally = check_world(199);
    assert!(tally.triples > 1_000, "{tally:?}");
    assert_eq!(tally.split_misses[0], 0, "the default model never splits a miss: {tally:?}");
    assert!(tally.split_misses[1] > 0, "the corner step must be taken: {tally:?}");
}

/// The whole world, in release.
#[test]
#[ignore = "the whole world: run in release with --ignored"]
fn the_whole_small_world_matches_sfs() {
    let tally = check_world(1);
    println!("{tally:?}");
    assert_eq!(tally.split_misses[0], 0, "the default model never splits a miss: {tally:?}");
    assert!(tally.split_misses[1] > 0, "the corner step must be taken: {tally:?}");
}
