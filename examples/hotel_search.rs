//! The paper's running example: searching for hotels that are cheap *and*
//! near the conference venue, refining constraints interactively.
//!
//! Demonstrates the four incremental overlap cases of Section 4 on a 2-D
//! dataset where the skylines are small enough to print.
//!
//! Run with: `cargo run --release --example hotel_search`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skycache::core::{CbcsConfig, MprMode, QueryRequest, SearchStrategy, Service, ServiceConfig};
use skycache::geom::{Constraints, Point};
use skycache::storage::{Table, TableConfig};

/// Generates hotels: (distance to venue in km, price per night in EUR).
/// Price loosely falls with distance, with plenty of noise — so the
/// skyline contains genuine trade-offs.
fn hotels(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let dist: f64 = rng.gen_range(0.1..15.0);
            let base = 260.0 - 11.0 * dist;
            let price = (base * rng.gen_range(0.55..1.65)).clamp(35.0, 420.0);
            Point::from(vec![dist, price])
        })
        .collect()
}

fn show(skyline: &[Point]) -> String {
    let mut sky: Vec<&Point> = skyline.iter().collect();
    sky.sort_by(|a, b| a[0].total_cmp(&b[0]));
    let head: Vec<String> =
        sky.iter().take(10).map(|p| format!("({:.1}km, {:.0}€)", p[0], p[1])).collect();
    if sky.len() > 10 {
        format!("{} … and {} more", head.join(" "), sky.len() - 10)
    } else {
        head.join(" ")
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let table = Table::build(hotels(50_000, 7), TableConfig::default())?;
    // Prioritized1D favours the simple single-bound cases, so the
    // session below exercises exactly the four cases of Section 4.
    let config = CbcsConfig {
        mpr: MprMode::Exact,
        strategy: SearchStrategy::Prioritized1D,
        ..Default::default()
    };
    let service = Service::open(&table, ServiceConfig::with_cbcs(config));
    let mut engine = service.session();

    // A conference attendee's refinement session. Dimensions:
    // 0 = distance (km), 1 = price (EUR). Both minimized.
    let steps: [(&str, [(f64, f64); 2]); 5] = [
        ("initial search: ≤8km, 60–200€", [(0.0, 8.0), (60.0, 200.0)]),
        ("price cap up to 240€ (case c: upper increased)", [(0.0, 8.0), (60.0, 240.0)]),
        ("budget floor removed (case a: lower decreased)", [(0.0, 8.0), (0.0, 240.0)]),
        ("closer hotels only, ≤5km (case b: upper decreased)", [(0.0, 5.0), (0.0, 240.0)]),
        ("skip the hostel strip <1km (case d: lower increased)", [(1.0, 5.0), (0.0, 240.0)]),
    ];

    for (label, pairs) in steps {
        let c = Constraints::from_pairs(&pairs)?;
        let r = engine.execute(&QueryRequest::new(c.clone()))?;
        println!("» {label}");
        println!(
            "  case={:<16} points read={:<6} range queries={:<3} skyline size={}",
            r.stats.case.map_or("miss (first query)".into(), |c| c.label().to_string()),
            r.stats.points_read,
            r.stats.range_queries_issued,
            r.skyline.len(),
        );
        println!("  skyline: {}\n", show(&r.skyline));
    }
    Ok(())
}
