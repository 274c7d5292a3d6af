//! `skylint` — the front end of the retired in-repo static analyzer for
//! the skycache workspace, kept as a library until the crate is deleted.
//! No gate runs it: rustc and clippy lints and the repo's own tests took
//! its rules (DESIGN.md §9).
//!
//! The front end is a hand-rolled lexer ([`lexer`]), a lossless
//! recursive-descent parser over the token stream ([`parser`], [`ast`]),
//! a per-file source model ([`model`]), a per-file event extraction pass
//! ([`symbols`]) and a per-function control-flow graph with a forward
//! dataflow engine ([`cfg`]) — no `syn`, no network dependencies —
//! consistent with this workspace's vendored-offline build (see
//! `vendor/README.md`). DESIGN.md §9.4 records the analyzer's history.

pub mod ast;
pub mod cfg;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod symbols;
