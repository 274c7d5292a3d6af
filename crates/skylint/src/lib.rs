//! `skylint` — the retired in-repo static analyzer for the skycache
//! workspace. No gate runs it any more: rustc and clippy lints and the
//! repo's own tests took its rules (DESIGN.md §9). The library stays,
//! tested on its fixtures, until the crate is deleted.
//!
//! The paper's contract is that a cached answer replayed later is the
//! from-scratch answer (Thm. 1 stability, Thms. 6–7 MPR completeness and
//! minimality). skylint checked the invariants behind that contract
//! which the compiler could not see: no hidden panic behind a library API, no wall clock / hash order /
//! raw float `==` / environment read in planning, a sealed and annotated
//! lock protocol, allocation-free kernels, validated decoded sizes.
//!
//! The analysis is a hand-rolled lexer, a lossless recursive-descent
//! parser over the token stream, a per-file event extraction pass, a
//! workspace call graph and a per-function control-flow graph — no
//! `syn`, no network dependencies — consistent with this workspace's
//! vendored-offline build (see `vendor/README.md`). Ten rules run on it
//! in two layers ([`rules`] has the table): the per-file token layer
//! bans *names* (`determinism`, `concurrency-hygiene`, `api-hygiene`,
//! `sync-confinement`); everything about *behaviour* is read once from
//! the event stream (`no-panic-paths`, the environment half of
//! `determinism`, `lock-order`, `hot-path-alloc`, `guard-hold-span`,
//! `range-taint`), and `dead-allow` audits the escapes last.
//!
//! `skylint.toml` at the scan root is the only policy source: an absent
//! key means a rule has no subject, never a built-in default, and a key,
//! path or designator that names nothing is a hard error. Per-line
//! escapes use `// skylint: allow(<rule>) — <justification>`. DESIGN.md
//! §9.4 records the rules' history.

pub mod ast;
pub mod callgraph;
pub mod cfg;
pub mod config;
pub mod engine;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod report;
pub mod rules;
pub mod symbols;

pub use config::Config;
pub use engine::{scan, scan_source, Policy, ScanError, ScanOutcome};
pub use report::Finding;
