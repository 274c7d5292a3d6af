//! Dynamic data and multi-user caching — the paper's Section 6.2
//! deployment scenarios, implemented by this library as extensions.
//!
//! Part 1: a [`Service`] owns its table and takes inserts and deletes on
//! `&mut self` (no session is alive during a write); inserting and
//! deleting listings maintains cached skylines incrementally ("each cache
//! item as a separate dataset with a continuous skyline query").
//!
//! Part 2: several user sessions share one [`Service`] — the second
//! user's query hits the first user's cached result.
//!
//! Run with: `cargo run --release --example live_updates`

use skycache::core::{QueryRequest, Service, ServiceConfig};
use skycache::datagen::{Distribution, SyntheticGen};
use skycache::geom::{Constraints, Point};
use skycache::storage::{Table, TableConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // -------- Part 1: live updates ------------------------------------
    println!("== dynamic data (Section 6.2) ==");
    let points = SyntheticGen::new(Distribution::Independent, 2, 11).generate(50_000);
    let table = Table::build(points, TableConfig::default())?;
    let mut service = Service::open(table, ServiceConfig::default());

    let c = Constraints::from_pairs(&[(0.2, 0.7), (0.2, 0.7)])?;
    let r1 = service.session().execute(&QueryRequest::new(c.clone()))?;
    println!("initial skyline: {} points (cache miss)", r1.skyline.len());

    // A hot new listing lands at the cached region's best corner — it
    // dominates everything there and must take over the cached skyline.
    let hot = Point::from(vec![0.2, 0.2]);
    service.insert(hot.clone())?;
    let r2 = service.session().execute(&QueryRequest::new(c.clone()))?;
    println!(
        "after insert:    {} points (cache hit: {}, includes new listing: {})",
        r2.skyline.len(),
        r2.stats.cache_hit,
        r2.skyline.contains(&hot),
    );

    // The listing is sold (deleted): its cached items are invalidated and
    // the next query recomputes, then re-caches.
    let row = service
        .table()
        .live_points()
        .find(|(_, p)| **p == hot)
        .map(|(row, _)| row)
        .ok_or("the listing was just inserted")?;
    service.delete(row).ok_or("the listing is live")?;
    let r3 = service.session().execute(&QueryRequest::new(c.clone()))?;
    println!(
        "after delete:    {} points (gone again: {})\n",
        r3.skyline.len(),
        !r3.skyline.contains(&hot),
    );

    // -------- Part 2: multi-user shared cache --------------------------
    println!("== multi-user shared cache ==");
    let points = SyntheticGen::new(Distribution::Independent, 3, 13).generate(100_000);
    let table = Table::build(points, TableConfig::default())?;
    let service = Service::open(&table, ServiceConfig::default());

    let mut alice = service.session();
    let mut bob = service.session();

    let c = Constraints::from_pairs(&[(0.1, 0.6); 3])?;
    let ra = alice.execute(&QueryRequest::new(c.clone()))?;
    println!(
        "alice: {:>6} points read ({})",
        ra.stats.points_read,
        if ra.stats.cache_hit { "hit" } else { "miss" }
    );

    // Bob refines Alice's query and benefits from her cached result.
    let c2 = Constraints::from_pairs(&[(0.1, 0.65), (0.1, 0.6), (0.1, 0.6)])?;
    let rb = bob.execute(&QueryRequest::new(c2.clone()))?;
    println!(
        "bob:   {:>6} points read ({}, case {})",
        rb.stats.points_read,
        if rb.stats.cache_hit { "hit" } else { "miss" },
        rb.stats.case.map_or("-", |c| c.label()),
    );
    println!("shared cache now holds {} items", service.cache().len());
    assert!(rb.stats.points_read < ra.stats.points_read / 4);
    Ok(())
}
