//! # skycache — cache-based constrained skyline queries
//!
//! A from-scratch Rust reproduction of *Efficient caching for constrained
//! skyline queries* (Mortensen, Chester, Assent, Magnani — EDBT 2015).
//!
//! This facade crate re-exports the whole workspace so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`geom`] — points, boxes, dominance, region algebra;
//! * [`datagen`] — synthetic datasets and query workloads;
//! * [`storage`] — paged point store with per-dimension indexes and an I/O
//!   cost model (the "PostgreSQL + B-trees" substrate of the paper);
//! * [`rtree`] — an R\*-tree (the "libspatialindex" substrate);
//! * [`algos`] — skyline algorithms: SFS and BBS;
//! * [`obs`] — the observability vocabulary: phases, metric names and the
//!   versioned per-query [`obs::QueryReport`];
//! * [`core`] — the paper's contribution: stability theory, the four
//!   incremental cases, the (approximate) Missing Points Region, the cache
//!   with its search strategies, and the CBCS service — plus the
//!   future-work extensions (dynamic data, one thread-safe cache shared
//!   by every session of a service).
//!
//! ## Quickstart
//!
//! ```
//! use skycache::core::{QueryRequest, Service, ServiceConfig};
//! use skycache::datagen::{Distribution, SyntheticGen};
//! use skycache::geom::Constraints;
//! use skycache::storage::Table;
//!
//! // 10k independent 3-D points in [0,1]^3.
//! let points = SyntheticGen::new(Distribution::Independent, 3, 42).generate(10_000);
//! let table = Table::build(points, Default::default()).unwrap();
//!
//! // One session of a service is the CBCS executor.
//! let service = Service::open(&table, ServiceConfig::default());
//! let mut cbcs = service.session();
//!
//! // First query: cache miss, computed from scratch and cached.
//! let c1 = Constraints::from_pairs(&[(0.1, 0.6), (0.1, 0.6), (0.1, 0.6)]).unwrap();
//! let r1 = cbcs.execute(&QueryRequest::new(c1)).unwrap();
//!
//! // Refined query: answered from the cache via the MPR.
//! let c2 = Constraints::from_pairs(&[(0.1, 0.65), (0.1, 0.6), (0.1, 0.6)]).unwrap();
//! let r2 = cbcs.execute(&QueryRequest::new(c2)).unwrap();
//! assert!(r2.stats.points_read <= r1.stats.points_read);
//! # let _ = (r1, r2);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub use skycache_algos as algos;
pub use skycache_core as core;
pub use skycache_datagen as datagen;
pub use skycache_geom as geom;
pub use skycache_obs as obs;
pub use skycache_rtree as rtree;
pub use skycache_storage as storage;
