//! skyserve: a zero-dependency TCP line-protocol server over the
//! multi-tenant query [`Service`](skycache_core::Service).
//!
//! The paper's cache is evaluated one query at a time; this crate is the
//! deployed shape — many clients over one table and one shared cache,
//! each connection a [`Session`](skycache_core::Session) that picks up
//! the service fast paths (epoch-snapshot reads, index-proven empty
//! answers) for free. The wire format is a
//! line-oriented text protocol ([`proto`], DESIGN.md §16.4) chosen so
//! `nc` is a complete client:
//!
//! ```text
//! printf 'Q 0.2 0.8 0.2 0.8\nQUIT\n' | nc 127.0.0.1 7878
//! ```
//!
//! Embed with [`serve`], or run the `skyserve` binary over a synthetic
//! table. `repro serve` drives a concurrent-load benchmark against this
//! server and writes `BENCH_serve.json`.

pub mod proto;
pub mod server;

pub use server::{serve, ServerHandle};
