//! Input generation: the table and the query lines, from the seed alone.
//!
//! The parent writes three files per (workload, seed) and the measuring
//! child processes read only those, so the program under test never sees
//! the seed or a generator.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use skycache_datagen::{
    DimStats, IndependentWorkload, InteractiveWorkload, QuerySpec, SyntheticGen, ZipfWorkload,
};
use skycache_geom::Constraints;
use skycache_storage::{Table, TableConfig};

use crate::spec::{Queries, Workload};

/// The generated files of one (workload, seed).
pub struct Inputs {
    pub dir: PathBuf,
}

impl Inputs {
    pub fn table(&self) -> PathBuf {
        self.dir.join("table.skyc")
    }

    pub fn warmup(&self) -> PathBuf {
        self.dir.join("warmup.txt")
    }

    pub fn timed(&self) -> PathBuf {
        self.dir.join("timed.txt")
    }
}

/// Serializes a query request line: `Q lo hi lo hi ...`, `*` for an
/// unbounded side. `f64` Display round-trips, so the server parses the
/// exact bounds back.
pub fn query_line(c: &Constraints) -> String {
    let mut line = String::from("Q");
    for (lo, hi) in c.lo().iter().zip(c.hi()) {
        for bound in [lo, hi] {
            if bound.is_finite() {
                line.push_str(&format!(" {bound}"));
            } else {
                line.push_str(" *");
            }
        }
    }
    line
}

/// Sub-seeds for the table and the query streams, so no two generators
/// share a stream (SplitMix64 finalizer over `seed + lane`).
fn sub_seed(seed: u64, lane: u64) -> u64 {
    let mut z = seed.wrapping_add(lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the one draw of queries every run replays.
///
/// A query's cost follows its region, and what the cache can do for it
/// follows the queries before it. The paper's generators draw regions
/// from a sliver to most of the data space, so when each seed drew its
/// own queries the few huge regions it happened to get decided the run
/// (points read per query spread 10 % over ten seeds), and when each seed
/// drew only their order, simulated I/O on `explore` still spread 12 %.
/// The benchmark is to hold the traffic mix fixed: the queries, regions
/// and order, are drawn once, from this seed, and `--seed` draws the
/// table they are asked of (simulated I/O then spreads 2.5 %).
const QUERIES_SEED: u64 = 0x5EED_0F5C;

/// Points of the master sample the generators are anchored on (their
/// per-dimension mean and deviation), so the regions do not move with
/// the table either.
const ANCHOR_POINTS: usize = 10_000;

/// The (warm-up, timed) query lines of a workload in canonical order.
pub fn query_lines(w: &Workload) -> (Vec<String>, Vec<String>) {
    let anchor = SyntheticGen::new(w.dist, w.dims, QUERIES_SEED).generate(ANCHOR_POINTS);
    let stats = DimStats::compute(&anchor);
    let lines = |specs: &[QuerySpec]| -> Vec<String> {
        specs.iter().map(|q| query_line(&q.constraints)).collect()
    };
    match w.queries {
        // The warm-up and the timed stream are separate draws.
        Queries::Explore => {
            // Positions alternate a0 b0 a1 b1 ..: client 0 walks chain
            // stream `a`, client 1 walks `b`.
            let chains = |need: usize, lane: u64| {
                let drawn = InteractiveWorkload::new(stats.clone())
                    .generate(need, sub_seed(QUERIES_SEED, lane));
                lines(drawn.queries()).into_iter()
            };
            let interleaved = |need: usize, lane: u64| -> Vec<String> {
                let (mut a, mut b) = (chains(need.div_ceil(2), lane), chains(need / 2, lane + 1));
                (0..need).filter_map(|pos| if pos % 2 == 0 { a.next() } else { b.next() }).collect()
            };
            (interleaved(w.warmup, 1), interleaved(w.timed, 3))
        }
        Queries::Independent => {
            let drawn = |need: usize, lane: u64| -> Vec<String> {
                let drawn = IndependentWorkload::new(stats.clone())
                    .generate(need, sub_seed(QUERIES_SEED, lane));
                lines(drawn.queries())
            };
            (drawn(w.warmup, 1), drawn(w.timed, 2))
        }
        Queries::Zipf { pool, exponent } => {
            let drawn = ZipfWorkload::new(stats)
                .pool(pool)
                .exponent(exponent)
                .refine_prob(0.0)
                .generate(w.timed, sub_seed(QUERIES_SEED, 1));
            // Warm-up: every pool query the stream draws, once, in pool
            // order — the timed section then never misses.
            let mut distinct: Vec<&QuerySpec> = drawn.queries().iter().collect();
            distinct.sort_by_key(|q| q.chain);
            distinct.dedup_by_key(|q| q.chain);
            let warm = distinct.iter().map(|q| query_line(&q.constraints)).collect();
            (warm, lines(drawn.queries()))
        }
    }
}

/// Generates the inputs of `(w, seed)` under `dir` (created if needed).
pub fn generate(w: &Workload, seed: u64, dir: &Path) -> io::Result<Inputs> {
    fs::create_dir_all(dir)?;
    let inputs = Inputs { dir: dir.to_owned() };
    let points = SyntheticGen::new(w.dist, w.dims, sub_seed(seed, 0)).generate(w.points);
    let table = Table::build(points, TableConfig::default()).map_err(io::Error::other)?;
    table.save(inputs.table()).map_err(io::Error::other)?;
    let (warm, timed) = query_lines(w);
    let text = |lines: &[String]| lines.iter().map(|l| format!("{l}\n")).collect::<String>();
    fs::write(inputs.warmup(), text(&warm))?;
    fs::write(inputs.timed(), text(&timed))?;
    Ok(inputs)
}

/// Reads a query file back into lines.
pub fn read_lines(path: &Path) -> io::Result<Vec<String>> {
    Ok(fs::read_to_string(path)?.lines().filter(|l| !l.is_empty()).map(str::to_owned).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{small, WORKLOADS};
    use skycache_serve::proto::{parse_request, Request};

    fn files(w: &Workload, seed: u64, tag: &str) -> Vec<Vec<u8>> {
        let dir = std::env::temp_dir().join(format!("skybench-gen-{}-{tag}-{seed}", w.name));
        let inputs = generate(w, seed, &dir).unwrap();
        let bytes = [inputs.table(), inputs.warmup(), inputs.timed()]
            .iter()
            .map(|p| fs::read(p).unwrap())
            .collect();
        fs::remove_dir_all(&dir).unwrap();
        bytes
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_table() {
        for w in WORKLOADS.iter().map(small) {
            let first = files(&w, 7, "a");
            assert_eq!(first, files(&w, 7, "b"), "{}: same seed must repeat", w.name);
            let other = files(&w, 8, "c");
            // The seed draws the table; the queries are one fixed draw.
            assert_ne!(first[0], other[0], "{}: another seed, another table", w.name);
            assert_eq!(first[1..], other[1..], "{}: every seed asks the same queries", w.name);
        }
    }

    #[test]
    fn lines_parse_back_to_the_constraints() {
        let c = Constraints::from_pairs(&[(0.25, 0.75), (f64::NEG_INFINITY, 1e-7)]).unwrap();
        assert_eq!(query_line(&c), "Q 0.25 0.75 * 0.0000001");
        match parse_request(&query_line(&c)).unwrap() {
            Request::Query { constraints, record } => {
                assert_eq!(constraints, c);
                assert!(!record);
            }
            other => panic!("expected a query, got {other:?}"),
        }
    }

    #[test]
    fn streams_have_the_declared_shape() {
        for w in WORKLOADS.iter().map(small) {
            let (warm, timed) = query_lines(&w);
            assert_eq!(timed.len(), w.timed, "{}", w.name);
            match w.queries {
                Queries::Zipf { pool, .. } => {
                    assert!(warm.len() <= pool);
                    let set: std::collections::BTreeSet<&String> = warm.iter().collect();
                    assert_eq!(set.len(), warm.len(), "warm-up queries are distinct");
                    assert!(timed.iter().all(|q| set.contains(q)), "warm-up covers the stream");
                }
                _ => assert_eq!(warm.len(), w.warmup, "{}", w.name),
            }
        }
    }
}
