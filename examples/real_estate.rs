//! Multi-user property search over the synthetic Danish-style real-estate
//! dataset (the paper's Section 7.5 scenario): a preloaded cache answers
//! independent queries from many users.
//!
//! Run with: `cargo run --release --example real_estate`

use skycache::core::{
    BaselineExecutor, BbsExecutor, CbcsConfig, Executor, MprMode, QueryRequest, SearchStrategy,
    Service, ServiceConfig,
};
use skycache::datagen::{DimStats, IndependentWorkload, RealEstateGen};
use skycache::storage::{Table, TableConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 200k properties: (-year, -sqm, valuation, price), all minimized —
    // i.e. the skyline prefers new, large, cheap, low-valuation homes.
    println!("generating properties (200k records, 4 dimensions)...");
    let records = RealEstateGen::new(2005).generate(200_000);
    let table = Table::build(records, TableConfig::default())?;
    let stats = DimStats::compute(table.all_points());

    // Preload the cache with earlier users' queries.
    let preload = IndependentWorkload::new(stats.clone()).generate(300, 1);
    let config = CbcsConfig {
        mpr: MprMode::Approximate { k: 5 },
        strategy: SearchStrategy::prioritized_nd_std(),
        ..Default::default()
    };
    let service = Service::open(&table, ServiceConfig::with_cbcs(config));
    let mut cbcs = service.session();
    println!("preloading cache with {} queries...", preload.len());
    for q in preload.queries() {
        cbcs.execute(&QueryRequest::new(q.constraints.clone()))?;
    }

    // Fresh users arrive.
    let incoming = IndependentWorkload::new(stats).generate(25, 99);
    let mut baseline = BaselineExecutor::new(&table);
    println!("building BBS R-tree...");
    let mut bbs = BbsExecutor::new(&table);

    let mut totals = [0.0f64; 3];
    println!(
        "\n{:<5} {:>10} {:>12} {:>12} {:>12} {:>8}",
        "user", "|skyline|", "CBCS", "Baseline", "BBS", "hit"
    );
    for (i, q) in incoming.queries().iter().enumerate() {
        let r_c = cbcs.execute(&QueryRequest::new(q.constraints.clone()))?;
        let r_b = baseline.execute(&QueryRequest::new(q.constraints.clone()))?;
        let r_s = bbs.execute(&QueryRequest::new(q.constraints.clone()))?;
        assert_eq!(r_c.skyline.len(), r_b.skyline.len(), "executors must agree");
        assert_eq!(r_s.skyline.len(), r_b.skyline.len(), "executors must agree");
        let t = [
            r_c.stats.stages().total().as_secs_f64(),
            r_b.stats.stages().total().as_secs_f64(),
            r_s.stats.stages().total().as_secs_f64(),
        ];
        for (acc, v) in totals.iter_mut().zip(t) {
            *acc += v;
        }
        println!(
            "{:<5} {:>10} {:>10.0}ms {:>10.0}ms {:>10.0}ms {:>8}",
            i,
            r_c.skyline.len(),
            t[0] * 1e3,
            t[1] * 1e3,
            t[2] * 1e3,
            if r_c.stats.cache_hit { "yes" } else { "no" },
        );
    }
    println!(
        "\naverages over {} users:  CBCS {:.0}ms   Baseline {:.0}ms   BBS {:.0}ms",
        incoming.len(),
        totals[0] / incoming.len() as f64 * 1e3,
        totals[1] / incoming.len() as f64 * 1e3,
        totals[2] / incoming.len() as f64 * 1e3,
    );
    println!("(times include the deterministic simulated I/O latency — see DESIGN.md)");
    Ok(())
}
