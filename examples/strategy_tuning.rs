//! Compare the seven cache search strategies of Section 6.1 on the same
//! workload — the scenario behind the paper's Figure 11.
//!
//! Run with: `cargo run --release --example strategy_tuning`

use skycache::core::{CbcsConfig, MprMode, QueryRequest, SearchStrategy, Service, ServiceConfig};
use skycache::datagen::{DimStats, Distribution, InteractiveWorkload, SyntheticGen};
use skycache::storage::{Table, TableConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("building table (150k independent points, 5 dimensions)...");
    let points = SyntheticGen::new(Distribution::Independent, 5, 3).generate(150_000);
    let table = Table::build(points, TableConfig::default())?;
    let stats = DimStats::compute(table.all_points());
    let workload = InteractiveWorkload::new(stats).generate(150, 17);

    let strategies = [
        SearchStrategy::Random,
        SearchStrategy::MaxOverlap,
        SearchStrategy::MaxOverlapSP,
        SearchStrategy::Prioritized1D,
        SearchStrategy::prioritized_nd_std(),
        SearchStrategy::prioritized_nd_bad(),
        SearchStrategy::OptimumDistance,
    ];

    println!(
        "\n{:<20} {:>10} {:>12} {:>12} {:>10}",
        "strategy", "avg time", "avg pts read", "avg queries", "unstable%"
    );
    for strategy in strategies {
        let label = strategy.label();
        let config =
            CbcsConfig { mpr: MprMode::Approximate { k: 1 }, strategy, ..Default::default() };
        let service = Service::open(&table, ServiceConfig::with_cbcs(config));
        let mut engine = service.session();
        let (mut time, mut pts, mut rq, mut unstable, mut hits) = (0.0, 0u64, 0u64, 0u64, 0u64);
        for q in workload.queries() {
            let r = engine.execute(&QueryRequest::new(q.constraints.clone()))?;
            time += r.stats.stages().total().as_secs_f64();
            pts += r.stats.points_read;
            rq += r.stats.range_queries_issued;
            if r.stats.stable() == Some(false) {
                unstable += 1;
            }
            if r.stats.cache_hit {
                hits += 1;
            }
        }
        let n = workload.len() as f64;
        println!(
            "{:<20} {:>8.1}ms {:>12.0} {:>12.1} {:>9.0}%",
            label,
            time / n * 1e3,
            pts as f64 / n,
            rq as f64 / n,
            unstable as f64 / hits.max(1) as f64 * 100.0,
        );
    }
    println!("\n(lower time and fewer points read are better; compare PrioritizednD Std vs Bad)");
    Ok(())
}
