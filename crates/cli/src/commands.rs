//! The CLI subcommands.

use std::error::Error;
use std::time::Instant;

use skycache_core::{
    BaselineExecutor, BbsExecutor, CbcsConfig, Executor, MprMode, QueryRequest, SearchStrategy,
    Service, ServiceConfig,
};
use skycache_datagen::{
    DimStats, Distribution, IndependentWorkload, InteractiveWorkload, RealEstateGen, SyntheticGen,
};
use skycache_geom::{Constraints, Point};
use skycache_storage::{Table, TableConfig};

use crate::args::{parse_ranges, Args};

type CmdResult = Result<(), Box<dyn Error>>;

fn load_table(args: &Args) -> Result<Table, Box<dyn Error>> {
    let path = args
        .positional()
        .first()
        .ok_or("expected a dataset file (created with `skycache generate`)")?;
    Ok(Table::load(path)?)
}

/// Per-dimension statistics of the table's live rows: a loaded table
/// keeps its deleted rows' slots, and they are not data. A table without
/// tombstones gives its every slot, in row order, as before.
fn live_stats(table: &Table) -> Result<Vec<DimStats>, Box<dyn Error>> {
    if table.is_empty() {
        return Err("the table holds no live row".into());
    }
    let live: Vec<Point> = table.live_points().map(|(_, p)| p.clone()).collect();
    Ok(DimStats::compute(&live))
}

/// `skycache generate`
pub fn generate(args: &Args) -> CmdResult {
    let n: usize = args.get_or("n", 100_000)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let out = args.require("out")?;

    let points: Vec<Point> = if args.has("real-estate") {
        println!("generating {n} real-estate records (seed {seed})...");
        RealEstateGen::new(seed).generate(n)
    } else {
        let dims: usize = args.get_or("dims", 3)?;
        let dist = match args.get("dist").as_deref() {
            None | Some("independent") => Distribution::Independent,
            Some("correlated") => Distribution::Correlated,
            Some("anti") | Some("anti-correlated") => Distribution::AntiCorrelated,
            Some(other) => return Err(format!("unknown distribution: {other}").into()),
        };
        println!("generating {n} {} points, {dims} dimensions (seed {seed})...", dist.label());
        SyntheticGen::new(dist, dims, seed).generate(n)
    };
    args.finish()?;

    let table = Table::build(points, TableConfig::default())?;
    table.save(&out)?;
    println!("wrote {} points to {out}", table.len());
    Ok(())
}

/// `skycache info`
pub fn info(args: &Args) -> CmdResult {
    let table = load_table(args)?;
    args.finish()?;
    println!("points:     {}", table.len());
    println!("dimensions: {}", table.dims());
    let stats = live_stats(&table)?;
    println!("{:<6} {:>14} {:>14}", "dim", "mean", "std");
    for (i, s) in stats.iter().enumerate() {
        println!("{i:<6} {:>14.4} {:>14.4}", s.mean, s.std);
    }
    Ok(())
}

fn constraints_from_flag(args: &Args, dims: usize) -> Result<Constraints, Box<dyn Error>> {
    let spec = args.require("range")?;
    let ranges = parse_ranges(&spec)?;
    if ranges.len() != dims {
        return Err(
            format!("--range has {} dimensions but the dataset has {dims}", ranges.len()).into()
        );
    }
    Ok(Constraints::from_pairs(&ranges)?)
}

/// `skycache query`
pub fn query(args: &Args) -> CmdResult {
    let table = load_table(args)?;
    let c = constraints_from_flag(args, table.dims())?;
    let method = args.get("method").unwrap_or_else(|| "baseline".into());
    let limit: usize = args.get_or("limit", 20)?;
    args.finish()?;

    let t0 = Instant::now();
    let req = QueryRequest::new(c.clone());
    let result = match method.as_str() {
        "baseline" => BaselineExecutor::new(&table).execute(&req)?,
        "bbs" => {
            println!("building BBS R-tree...");
            BbsExecutor::new(&table).execute(&req)?
        }
        "cbcs" => Service::open(&table, ServiceConfig::default()).session().execute(&req)?,
        other => return Err(format!("unknown method: {other}").into()),
    };
    let wall = t0.elapsed();

    println!(
        "skyline: {} points   (points read: {}, dominance tests: {}, \
         simulated+measured: {:.1?}, wall: {wall:.1?})",
        result.skyline.len(),
        result.stats.points_read,
        result.stats.dominance_tests,
        result.stats.stages().total(),
    );
    let mut sky = result.skyline;
    sky.sort_by(|a, b| a.coord_sum().partial_cmp(&b.coord_sum()).expect("NaN-free"));
    for p in sky.iter().take(limit) {
        let coords: Vec<String> = p.coords().iter().map(|c| format!("{c:.4}")).collect();
        println!("  ({})", coords.join(", "));
    }
    if sky.len() > limit {
        println!("  ... and {} more (raise --limit to see them)", sky.len() - limit);
    }
    Ok(())
}

fn strategy_from_flag(args: &Args) -> Result<SearchStrategy, Box<dyn Error>> {
    Ok(match args.get("strategy").as_deref() {
        None | Some("maxoverlapsp") => SearchStrategy::MaxOverlapSP,
        Some("random") => SearchStrategy::Random,
        Some("maxoverlap") => SearchStrategy::MaxOverlap,
        Some("prioritized1d") => SearchStrategy::Prioritized1D,
        Some("prioritizednd-std") => SearchStrategy::prioritized_nd_std(),
        Some("prioritizednd-bad") => SearchStrategy::prioritized_nd_bad(),
        Some("optimumdistance") => SearchStrategy::OptimumDistance,
        Some(other) => return Err(format!("unknown strategy: {other}").into()),
    })
}

fn cbcs_config(args: &Args) -> Result<CbcsConfig, Box<dyn Error>> {
    Ok(CbcsConfig {
        mpr: MprMode::Approximate { k: args.get_or("k", 1usize)? },
        strategy: strategy_from_flag(args)?,
        seed: args.get_or("seed", 0xC0FFEE)?,
        ..Default::default()
    })
}

fn build_workload(args: &Args, table: &Table) -> Result<Vec<Constraints>, Box<dyn Error>> {
    let seed: u64 = args.get_or("seed", 17)?;
    let stats = live_stats(table)?;
    let queries = if let Some(n) = args.get("independent") {
        let n: usize = n.parse().map_err(|_| "--independent expects a count")?;
        IndependentWorkload::new(stats).generate(n, seed)
    } else {
        let n: usize = args.get_or("interactive", 100usize)?;
        InteractiveWorkload::new(stats).generate(n, seed)
    };
    Ok(queries.queries().iter().map(|q| q.constraints.clone()).collect())
}

/// `skycache workload`
pub fn workload(args: &Args) -> CmdResult {
    let table = load_table(args)?;
    let queries = build_workload(args, &table)?;
    let config = cbcs_config(args)?;
    args.finish()?;

    let service = Service::open(&table, ServiceConfig::with_cbcs(config));
    let mut ex = service.session();
    let mut total_pts = 0u64;
    let mut total_time = 0.0f64;
    let mut hits = 0usize;
    println!("{:<6} {:>10} {:>10} {:>8} {:>18}", "query", "|skyline|", "pts read", "rq", "case");
    for (i, c) in queries.iter().enumerate() {
        let r = ex.execute(&QueryRequest::new(c.clone()))?;
        total_pts += r.stats.points_read;
        total_time += r.stats.stages().total().as_secs_f64();
        hits += usize::from(r.stats.cache_hit);
        println!(
            "{i:<6} {:>10} {:>10} {:>8} {:>18}",
            r.skyline.len(),
            r.stats.points_read,
            r.stats.range_queries_issued,
            r.stats.case.map_or("miss", |c| c.label()),
        );
    }
    let n = queries.len() as f64;
    println!(
        "\n{} queries: avg time {:.1}ms, avg points read {:.0}, hit rate {:.0}%",
        queries.len(),
        total_time / n * 1e3,
        total_pts as f64 / n,
        hits as f64 / n * 100.0,
    );
    Ok(())
}

/// `skycache compare`
pub fn compare(args: &Args) -> CmdResult {
    let table = load_table(args)?;
    let n: usize = args.get_or("queries", 50usize)?;
    let seed: u64 = args.get_or("seed", 17)?;
    let stats = live_stats(&table)?;
    let queries: Vec<Constraints> = InteractiveWorkload::new(stats)
        .generate(n, seed)
        .queries()
        .iter()
        .map(|q| q.constraints.clone())
        .collect();
    let config = cbcs_config(args)?;
    args.finish()?;

    println!("building BBS R-tree...");
    let service = Service::open(&table, ServiceConfig::with_cbcs(config));
    let mut methods: Vec<(&str, Box<dyn Executor>)> = vec![
        ("Baseline", Box::new(BaselineExecutor::new(&table))),
        ("BBS", Box::new(BbsExecutor::new(&table))),
        ("CBCS (aMPR)", Box::new(service.session())),
    ];

    println!("\n{:<14} {:>12} {:>12} {:>14}", "method", "avg time", "pts read", "dom. tests");
    let mut reference = None;
    for (name, ex) in &mut methods {
        let (mut time, mut pts, mut dom, mut answers) = (0.0f64, 0u64, 0u64, Vec::new());
        for c in &queries {
            let r = ex.execute(&QueryRequest::new(c.clone()))?;
            time += r.stats.stages().total().as_secs_f64();
            pts += r.stats.points_read;
            dom += r.stats.dominance_tests;
            let mut answer: Vec<Vec<u64>> = r
                .skyline
                .iter()
                .map(|p| p.coords().iter().map(|x| x.to_bits()).collect())
                .collect();
            answer.sort_unstable();
            answers.push(answer);
        }
        // Every method must return Baseline's answer to every query: the
        // same multiset of points, compared as coordinate bit patterns.
        if *reference.get_or_insert_with(|| answers.clone()) != answers {
            return Err(format!("{name} disagrees with Baseline").into());
        }
        println!(
            "{name:<14} {:>10.1}ms {:>12.0} {:>14.0}",
            time / queries.len() as f64 * 1e3,
            pts as f64 / queries.len() as f64,
            dom as f64 / queries.len() as f64,
        );
    }
    println!("\n(all methods returned identical skylines on all {n} queries)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(stats: &[DimStats]) -> Vec<(u64, u64)> {
        stats.iter().map(|s| (s.mean.to_bits(), s.std.to_bits())).collect()
    }

    /// A saved table keeps its deleted rows' slots; loaded back, its
    /// statistics are those of a table built from its live rows alone,
    /// and a table without tombstones keeps its every slot's, bit for bit.
    #[test]
    fn statistics_cover_the_live_rows_of_a_loaded_table() {
        let points = SyntheticGen::new(Distribution::AntiCorrelated, 3, 5).generate(200);
        let mut table = Table::build(points.clone(), TableConfig::default()).unwrap();
        assert_eq!(bits(&live_stats(&table).unwrap()), bits(&DimStats::compute(&points)));

        let far = table.insert(Point::from(vec![1e6, -1e6, 1e6])).unwrap();
        for row in [far, 0, 17, 199] {
            table.delete(row).unwrap();
        }
        let path = std::env::temp_dir().join(format!("skycache-cli-{}.skyc", std::process::id()));
        table.save(&path).unwrap();
        let loaded = Table::load(&path);
        std::fs::remove_file(&path).unwrap();
        let loaded = loaded.unwrap();
        assert_eq!((loaded.len(), loaded.slot_count()), (197, 201));

        let live: Vec<Point> = loaded.live_points().map(|(_, p)| p.clone()).collect();
        let rebuilt = Table::build(live, TableConfig::default()).unwrap();
        let want = DimStats::compute(rebuilt.all_points());
        assert_eq!(bits(&live_stats(&loaded).unwrap()), bits(&want));
        assert_ne!(bits(&DimStats::compute(loaded.all_points())), bits(&want), "tombstones count");
    }

    #[test]
    fn a_table_without_live_rows_has_no_statistics() {
        let mut table =
            Table::build(vec![Point::from(vec![1.0, 2.0])], TableConfig::default()).unwrap();
        table.delete(0).unwrap();
        assert!(live_stats(&table).is_err());
    }
}
