//! Shared experiment harness for reproducing the paper's evaluation
//! (Section 7).
//!
//! The `repro` binary regenerates every table/figure series. This library
//! holds the common pieces: dataset/workload construction, executor
//! runners, per-query record collection, and aggregation into the series
//! the paper plots. Performance numbers come from skybench
//! (`benchmark/run.sh`), not from here.

pub mod figures;
pub mod serve;

use skycache_core::{Executor, Overlap, QueryRequest, QueryStats};
use skycache_datagen::{
    DimStats, Distribution, IndependentWorkload, InteractiveWorkload, RealEstateGen, SyntheticGen,
    ZipfWorkload,
};
use skycache_geom::Constraints;
use skycache_storage::{Table, TableConfig};

/// Builds a synthetic table.
pub fn synthetic_table(dist: Distribution, dims: usize, n: usize, seed: u64) -> Table {
    let points = SyntheticGen::new(dist, dims, seed).generate(n);
    Table::build(points, TableConfig::default()).expect("generated data is valid")
}

/// Builds the real-estate table (Section 7.5 substitute).
pub fn real_estate_table(n: usize, seed: u64) -> Table {
    let points = RealEstateGen::new(seed).generate(n);
    Table::build(points, TableConfig::default()).expect("generated data is valid")
}

/// Interactive exploratory search queries over a table (Section 7.1,
/// workload 1). `constrained_dims = None` constrains every dimension.
pub fn interactive_queries(
    table: &Table,
    total: usize,
    seed: u64,
    constrained_dims: Option<usize>,
) -> Vec<Constraints> {
    let stats = DimStats::compute(table.all_points());
    let mut generator = InteractiveWorkload::new(stats);
    if let Some(k) = constrained_dims {
        generator = generator.constrained_dims(k);
    }
    generator.generate(total, seed).queries().iter().map(|q| q.constraints.clone()).collect()
}

/// Independent multi-user queries (Section 7.1, workload 2).
pub fn independent_queries(
    table: &Table,
    total: usize,
    seed: u64,
    constrained_dims: Option<usize>,
) -> Vec<Constraints> {
    let stats = DimStats::compute(table.all_points());
    let mut generator = IndependentWorkload::new(stats);
    if let Some(k) = constrained_dims {
        generator = generator.constrained_dims(k);
    }
    generator.generate(total, seed).queries().iter().map(|q| q.constraints.clone()).collect()
}

/// Zipf-skewed multi-user queries (DESIGN.md §17.4): a fixed pool of base
/// queries re-issued with popularity ∝ 1/rank^`exponent`, plus occasional
/// one-step refinement drift. `rotate_every > 0` shifts the hot set by a
/// quarter of the pool every that many queries (trending traffic).
/// Discriminates frequency-aware replacement policies from recency-based
/// ones at `capacity < pool`.
pub fn zipf_queries(
    table: &Table,
    total: usize,
    seed: u64,
    pool: usize,
    exponent: f64,
    rotate_every: usize,
) -> Vec<Constraints> {
    let stats = DimStats::compute(table.all_points());
    let generator =
        ZipfWorkload::new(stats).pool(pool).exponent(exponent).rotate_every(rotate_every);
    generator.generate(total, seed).queries().iter().map(|q| q.constraints.clone()).collect()
}

/// Runs every query through the executor, collecting its statistics.
///
/// # Panics
/// Panics if a query fails (benchmark configurations are known-valid).
pub fn run_queries(ex: &mut dyn Executor, queries: &[Constraints]) -> Vec<QueryStats> {
    queries
        .iter()
        .map(|c| ex.execute(&QueryRequest::new(c.clone())).expect("benchmark query succeeds").stats)
        .collect()
}

/// Aggregate over a slice of records.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Number of queries aggregated.
    pub n: usize,
    /// Mean total latency in seconds.
    pub avg_time_s: f64,
    /// Mean points read from disk.
    pub avg_points: f64,
    /// Mean range queries issued.
    pub avg_rq: f64,
    /// Mean range queries that actually read data.
    pub avg_rq_executed: f64,
    /// Mean per-stage seconds: processing, fetching, skyline.
    pub stages_s: [f64; 3],
}

/// Summarizes records, optionally filtered.
pub fn summarize<'a>(records: impl IntoIterator<Item = &'a QueryStats>) -> Summary {
    let mut s = Summary::default();
    for r in records {
        let stages = r.stages();
        s.n += 1;
        s.avg_time_s += stages.total().as_secs_f64();
        s.avg_points += r.points_read as f64;
        s.avg_rq += r.range_queries_issued as f64;
        s.avg_rq_executed += r.range_queries_executed as f64;
        s.stages_s[0] += stages.processing.as_secs_f64();
        s.stages_s[1] += stages.fetching.as_secs_f64();
        s.stages_s[2] += stages.skyline.as_secs_f64();
    }
    if s.n > 0 {
        let n = s.n as f64;
        s.avg_time_s /= n;
        s.avg_points /= n;
        s.avg_rq /= n;
        s.avg_rq_executed /= n;
        for v in &mut s.stages_s {
            *v /= n;
        }
    }
    s
}

/// Slices records by stability of the used cache item.
pub fn split_by_stability(records: &[QueryStats]) -> (Vec<&QueryStats>, Vec<&QueryStats>) {
    let stable = records.iter().filter(|r| r.stable() == Some(true)).collect();
    let unstable = records.iter().filter(|r| r.stable() == Some(false)).collect();
    (stable, unstable)
}

/// Records whose used-cache-item classification matches `pred`.
pub fn filter_by_case<'a>(
    records: &'a [QueryStats],
    pred: impl Fn(Overlap) -> bool + 'a,
) -> Vec<&'a QueryStats> {
    records.iter().filter(|r| r.case.is_some_and(&pred)).collect()
}

/// Formats a dataset size like the paper's axis labels (`2M`, `500k`).
pub fn fmt_size(n: usize) -> String {
    if n >= 1_000_000 && n.is_multiple_of(1_000_000) {
        format!("{}M", n / 1_000_000)
    } else if n >= 1_000 {
        format!("{}k", n / 1_000)
    } else {
        n.to_string()
    }
}

/// Prints one table row: a label plus per-column values.
pub fn print_row(label: &str, values: &[String]) {
    print!("{label:<24}");
    for v in values {
        print!(" {v:>12}");
    }
    println!();
}

/// Prints a section header plus a column-header row.
pub fn print_header(title: &str, columns: &[String]) {
    println!("\n== {title} ==");
    print_row("", columns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycache_core::{BaselineExecutor, Service, ServiceConfig};

    #[test]
    fn harness_runs_and_summarizes() {
        let table = synthetic_table(Distribution::Independent, 3, 2_000, 1);
        let queries = interactive_queries(&table, 20, 2, None);
        assert_eq!(queries.len(), 20);

        let mut baseline = BaselineExecutor::new(&table);
        let records = run_queries(&mut baseline, &queries);
        let s = summarize(&records);
        assert_eq!(s.n, 20);
        assert!(s.avg_points > 0.0);
        assert!(s.avg_time_s > 0.0);

        let service = Service::open(&table, ServiceConfig::default());
        let records = run_queries(&mut service.session(), &queries);
        let (stable, unstable) = split_by_stability(&records);
        assert!(stable.len() + unstable.len() <= records.len());
        let hits = filter_by_case(&records, |_| true);
        assert_eq!(hits.len(), stable.len() + unstable.len());
    }

    #[test]
    fn independent_workload_builds() {
        let table = synthetic_table(Distribution::Correlated, 2, 500, 3);
        let queries = independent_queries(&table, 10, 4, Some(2));
        assert_eq!(queries.len(), 10);
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(2_000_000), "2M");
        assert_eq!(fmt_size(500_000), "500k");
        assert_eq!(fmt_size(999), "999");
    }
}
