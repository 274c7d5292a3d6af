//! The skyserve line protocol (DESIGN.md §16.4).
//!
//! Requests are one line each, ASCII tokens separated by whitespace:
//!
//! ```text
//! Q <lo> <hi> [<lo> <hi> ...] [record]   constrained skyline query
//! STATS                                  service-layer counters
//! PING                                   liveness check
//! QUIT                                   close the connection
//! ```
//!
//! A bound of `*` means unbounded on that side. A trailing `record` is
//! accepted and reserved (no reply carries a report yet). Every request gets
//! exactly one reply line: `OK ...` on success, `ERR <message>` on
//! failure. Query replies are
//! `OK <n> <hit|miss> <x,y,..> <x,y,..> ...` with the skyline points in
//! canonical (bitwise-lexicographic) order, so identical queries —
//! from any client, hit or miss — always serialize to the same bytes.
//! Each coordinate is written by `core`'s shortest-digit writer
//! ([`render_points`]), whose contract is the bytes of `f64`'s `Display`:
//! the shortest digits that read back as the same `f64`, no exponent.
//! The `STATS` reply is
//! `OK coalesced=0 negative_hits=N negative_inserts=0 computes=N
//! cache_len=N epoch=N`; `coalesced=0` and `negative_inserts=0` are
//! reserved, like the `record` token.

use std::fmt::Write as _;

use skycache_core::{render_points, QueryOutcome, ServiceMetrics};
use skycache_geom::{Constraints, Point};

/// Reply to `PING`.
pub const PONG: &str = "OK pong";
/// Reply to `QUIT`, sent just before the server closes the connection.
pub const BYE: &str = "OK bye";
/// The whole conversation with a client that connects while the server
/// is serving as many connections as it will: this line, then a close.
pub const BUSY: &str = "ERR busy";

/// The error for a `Q` line that is not whole pairs of bounds.
const Q_SHAPE: &str = "Q needs one lo/hi pair per dimension: Q lo hi [lo hi ...] [record]";

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// A constrained skyline query over the service's table.
    Query {
        /// The query constraints, one `(lo, hi)` pair per dimension.
        constraints: Constraints,
        /// Whether the line ended in `record`. Accepted and reserved:
        /// no reply carries a report yet, so the server answers the query
        /// as if the token were absent.
        record: bool,
    },
    /// Service counters: negative-hit/compute totals, cache size and
    /// epoch.
    Stats,
    /// Liveness check.
    Ping,
    /// Close the connection after an `OK bye`.
    Quit,
}

/// Parses one request line (already stripped of its newline).
///
/// # Errors
/// Returns a human-readable message suitable for an `ERR` reply.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut tokens = line.split_ascii_whitespace();
    let verb = tokens.next().ok_or_else(|| "empty request".to_owned())?;
    match verb {
        "Q" => {
            // The pairs straight from the tokens. `record` where a lower
            // bound would be is the flag when it ends the line; a line that
            // ends in half a pair, `record` or not, has the wrong shape.
            let mut pairs = Vec::new();
            let mut record = false;
            while let Some(lo) = tokens.next() {
                match (lo, tokens.next()) {
                    ("record", None) => record = true,
                    (lo, Some(hi)) if hi != "record" || tokens.clone().next().is_some() => {
                        pairs.push((parse_bound(lo, -1.0)?, parse_bound(hi, 1.0)?));
                    }
                    _ => return Err(Q_SHAPE.to_owned()),
                }
            }
            if pairs.is_empty() {
                return Err(Q_SHAPE.to_owned());
            }
            let constraints = Constraints::from_pairs(&pairs).map_err(|e| e.to_string())?;
            Ok(Request::Query { constraints, record })
        }
        "STATS" => end_of_line(tokens, Request::Stats),
        "PING" => end_of_line(tokens, Request::Ping),
        "QUIT" => end_of_line(tokens, Request::Quit),
        other => Err(format!("unknown verb {other:?} (expected Q, STATS, PING or QUIT)")),
    }
}

fn end_of_line<'a>(
    mut rest: impl Iterator<Item = &'a str>,
    req: Request,
) -> Result<Request, String> {
    match rest.next() {
        None => Ok(req),
        Some(extra) => Err(format!("unexpected trailing token {extra:?}")),
    }
}

/// One bound: a number, or `*` for unbounded on `side` (`-1.0` below,
/// `1.0` above).
fn parse_bound(token: &str, side: f64) -> Result<f64, String> {
    if token == "*" {
        return Ok(side * f64::INFINITY);
    }
    token.parse::<f64>().map_err(|_| format!("bad bound {token:?} (expected a number or *)"))
}

/// Formats a query outcome: `OK <n> <hit|miss> <point> ...`, points as
/// comma-joined coordinates in canonical bitwise order.
pub fn query_reply(outcome: &QueryOutcome) -> String {
    let mut line = String::new();
    write_query_reply(&mut line, outcome);
    line
}

/// Appends [`query_reply`]'s line to `out`. The header is written per
/// reply — the miss that cached an item said `miss`, its repeats say
/// `hit` — and the points are either the text the outcome brings (an
/// exact hit: the cached item keeps it) or rendered here, in place, by
/// the same [`render_points`] that produced that text.
pub(crate) fn write_query_reply(out: &mut String, outcome: &QueryOutcome) {
    // The whole line at once when the outcome brings its text;
    // `render_points` makes room for what it writes.
    out.reserve(HEADER_BYTES + outcome.text.as_ref().map_or(0, |text| text.len()));
    let verdict = if outcome.stats.cache_hit { "hit" } else { "miss" };
    // Writing into a String cannot fail.
    let _ = write!(out, "OK {} {verdict}", outcome.skyline.len());
    match &outcome.text {
        Some(text) => out.push_str(text),
        None => render_points(out, outcome.skyline.iter().map(Point::coords)),
    }
}

/// Room for `OK <n> <hit|miss>`.
const HEADER_BYTES: usize = 32;

/// Formats the `STATS` reply from the service counters plus the shared
/// cache's authoritative size and epoch. `coalesced=0` and
/// `negative_inserts=0` are reserved: the service neither joins
/// identical queries nor remembers empty regions any more, but
/// skybench's `STATS` parser requires both keys.
pub fn stats_reply(m: &ServiceMetrics, cache_len: usize, epoch: u64) -> String {
    format!(
        "OK coalesced=0 negative_hits={} negative_inserts=0 computes={} \
         cache_len={cache_len} epoch={epoch}",
        m.negative_hits, m.computes,
    )
}

/// Formats an error reply; the message is flattened to one line.
pub fn err_reply(msg: &str) -> String {
    format!("ERR {}", msg.replace(['\r', '\n'], " "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycache_core::QueryStats;
    use skycache_geom::Point;

    fn query(line: &str) -> Constraints {
        match parse_request(line).unwrap() {
            Request::Query { constraints, .. } => constraints,
            other => panic!("expected a query, got {other:?}"),
        }
    }

    #[test]
    fn parses_queries_with_bounds_and_record() {
        let c = query("Q 0.1 0.5 2 3");
        assert_eq!(c.lo(), &[0.1, 2.0]);
        assert_eq!(c.hi(), &[0.5, 3.0]);
        assert_eq!(
            parse_request("Q 0 1 record").unwrap(),
            Request::Query {
                constraints: Constraints::from_pairs(&[(0.0, 1.0)]).unwrap(),
                record: true
            }
        );
        let unbounded = query("Q * 5 1 *");
        assert_eq!(unbounded.lo(), &[f64::NEG_INFINITY, 1.0]);
        assert_eq!(unbounded.hi(), &[5.0, f64::INFINITY]);
    }

    #[test]
    fn parses_control_verbs() {
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(parse_request("  PING  ").unwrap(), Request::Ping);
        assert_eq!(parse_request("QUIT").unwrap(), Request::Quit);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_request("").is_err());
        assert!(parse_request("Q").is_err());
        assert!(parse_request("Q 1").is_err(), "odd bound count");
        assert!(parse_request("Q 1 x").is_err(), "non-numeric bound");
        assert!(parse_request("Q record").is_err(), "no pair");
        assert!(parse_request("Q 0 record").is_err(), "half a pair before the flag");
        assert!(parse_request("Q 0 1 2 record").is_err(), "half a pair before the flag");
        assert!(parse_request("Q 0 1 record 2").is_err(), "record is a flag only at the end");
        assert!(parse_request("Q 5 1").is_err(), "inverted interval");
        assert!(parse_request("HELLO").is_err());
        assert!(parse_request("PING extra").is_err());
    }

    #[test]
    fn query_reply_is_canonical() {
        let outcome = QueryOutcome {
            skyline: vec![Point::from(vec![2.0, 1.0]), Point::from(vec![1.0, 2.0])],
            text: None,
            stats: QueryStats { cache_hit: true, ..QueryStats::default() },
            report: None,
        };
        assert_eq!(query_reply(&outcome), "OK 2 hit 1,2 2,1");
        let empty = QueryOutcome {
            skyline: vec![],
            text: None,
            stats: QueryStats::default(),
            report: None,
        };
        assert_eq!(query_reply(&empty), "OK 0 miss");
    }

    #[test]
    fn stats_and_error_replies() {
        let m = ServiceMetrics { negative_hits: 1, computes: 7 };
        assert_eq!(
            stats_reply(&m, 5, 7),
            "OK coalesced=0 negative_hits=1 negative_inserts=0 computes=7 cache_len=5 epoch=7"
        );
        assert_eq!(err_reply("bad\nthing"), "ERR bad thing");
    }
}
