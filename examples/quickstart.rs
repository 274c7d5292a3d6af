//! Quickstart: load a dataset, pose a string of refined constrained
//! skyline queries, and compare the points CBCS reads with Baseline's.
//!
//! Run with: `cargo run --release --example quickstart`

use skycache::core::{BaselineExecutor, Executor, QueryRequest, Service, ServiceConfig};
use skycache::datagen::{Distribution, SyntheticGen};
use skycache::geom::Constraints;
use skycache::storage::{Table, TableConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 100k independent 3-D points in [0,1]^3, stored in a table of rows
    // with one index per dimension (the paper's PostgreSQL stand-in).
    println!("building table (100k points, 3 dimensions)...");
    let points = SyntheticGen::new(Distribution::Independent, 3, 42).generate(100_000);
    let table = Table::build(points, TableConfig::default())?;

    // One session of a CBCS service: the cache-backed executor.
    let service = Service::open(&table, ServiceConfig::default());
    let mut cbcs = service.session();
    let mut baseline = BaselineExecutor::new(&table);

    // An exploratory session: a user refines one bound at a time.
    let session = [
        [(0.20, 0.60), (0.20, 0.60), (0.20, 0.60)], // initial query
        [(0.20, 0.66), (0.20, 0.60), (0.20, 0.60)], // widen dim 0 (case 3)
        [(0.20, 0.66), (0.15, 0.60), (0.20, 0.60)], // extend dim 1 down (case 1)
        [(0.20, 0.66), (0.15, 0.55), (0.20, 0.60)], // shrink dim 1 (case 2)
        [(0.20, 0.66), (0.15, 0.55), (0.26, 0.60)], // raise dim 2 lower (case 4)
    ];

    println!(
        "\n{:<4} {:>9} {:>14} {:>14} {:>10} {:>16}",
        "#", "|skyline|", "CBCS pts read", "Base pts read", "case", "CBCS total"
    );
    for (i, pairs) in session.iter().enumerate() {
        let c = Constraints::from_pairs(pairs)?;
        let r = cbcs.execute(&QueryRequest::new(c.clone()))?;
        let b = baseline.execute(&QueryRequest::new(c.clone()))?;
        assert_eq!(r.skyline.len(), b.skyline.len(), "executors must agree");
        println!(
            "{:<4} {:>9} {:>14} {:>14} {:>10} {:>13.2?}",
            i,
            r.skyline.len(),
            r.stats.points_read,
            b.stats.points_read,
            r.stats.case.map_or("miss", |c| c.label()),
            r.stats.stages().total(),
        );
    }

    println!("\ncache now holds {} items", service.cache().len());
    println!(
        "(CBCS reads a fraction of Baseline's points: refinements are answered from the \
         cache, and the first query reads its lower corner first to prune the rest)"
    );
    Ok(())
}
