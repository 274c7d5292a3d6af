//! End-to-end loopback tests: a real server on an ephemeral port, real
//! TCP clients speaking the line protocol.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test code: a failed expectation fails the test"
)]
#![allow(clippy::disallowed_types, reason = "a test may time itself with the wall clock")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skycache_core::ServiceConfig;
use skycache_geom::Point;
use skycache_serve::server::MAX_CONNECTIONS;
use skycache_serve::{serve, ServerHandle};
use skycache_storage::{Table, TableConfig};

fn grid_table() -> Table {
    let points: Vec<Point> = (0..20)
        .flat_map(|i| {
            (0..20).map(move |j| Point::from(vec![f64::from(i) / 10.0, f64::from(j) / 10.0]))
        })
        .collect();
    Table::build(points, TableConfig::default()).unwrap()
}

/// How long a client waits for a reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to loopback server");
        // A reply that never comes fails the test instead of hanging it.
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).expect("set a read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { reader, writer: stream }
    }

    fn roundtrip(&mut self, request: &str) -> String {
        writeln!(self.writer, "{request}").expect("send request");
        self.reply()
    }

    /// Sends `request` and its newline as two writes, cut at byte `at`,
    /// with a pause between them.
    fn split_roundtrip(&mut self, request: &str, at: usize) -> String {
        let line = format!("{request}\n");
        let (head, tail) = line.as_bytes().split_at(at);
        self.writer.write_all(head).expect("send the head");
        std::thread::sleep(Duration::from_millis(2));
        self.writer.write_all(tail).expect("send the tail");
        self.reply()
    }

    fn reply(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        assert!(line.ends_with('\n'), "reply must be a complete line: {line:?}");
        line.trim_end().to_owned()
    }
}

/// Waits for the server to be serving exactly `want` connections: a
/// connection's thread gives its slot back after its last reply, so the
/// count trails what a client has seen by a moment.
fn await_live_connections(handle: &ServerHandle, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.live_connections() != want {
        assert!(
            Instant::now() < deadline,
            "{} live connections, expected {want}",
            handle.live_connections()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn queries_stats_and_control_verbs_over_tcp() {
    let handle = serve(grid_table(), ServiceConfig::default(), "127.0.0.1:0").unwrap();
    let mut alice = Client::connect(handle.addr());
    let mut bob = Client::connect(handle.addr());

    assert_eq!(alice.roundtrip("PING"), "OK pong");

    // Alice misses, Bob hits her cached result — and both serialize the
    // skyline to identical bytes (canonical wire order).
    let alice_reply = alice.roundtrip("Q 0.2 1.0 0.2 1.0");
    assert!(alice_reply.starts_with("OK 1 miss "), "got {alice_reply:?}");
    let bob_reply = bob.roundtrip("Q 0.2 1.0 0.2 1.0");
    assert!(bob_reply.starts_with("OK 1 hit "), "got {bob_reply:?}");
    assert_eq!(
        alice_reply.split(' ').skip(3).collect::<Vec<_>>(),
        bob_reply.split(' ').skip(3).collect::<Vec<_>>()
    );

    // A provably-empty region: answered `OK 0` without computing.
    assert_eq!(alice.roundtrip("Q 0.11 0.19 0.11 0.19"), "OK 0 miss");

    let stats = alice.roundtrip("STATS");
    assert!(stats.starts_with("OK coalesced=0 "), "got {stats:?}");
    assert!(stats.contains("negative_hits=1"), "got {stats:?}");
    // Only Alice's miss cached a result — Bob's exact hit touches her
    // item instead of re-inserting — so one epoch was published.
    assert!(stats.contains("cache_len=1"), "got {stats:?}");
    assert!(stats.contains("epoch=1"), "got {stats:?}");

    // Malformed input gets an ERR, and the connection keeps working.
    assert!(alice.roundtrip("Q 1 x").starts_with("ERR "));
    assert!(alice.roundtrip("NOPE").starts_with("ERR "));
    assert_eq!(alice.roundtrip("PING"), "OK pong");

    assert_eq!(alice.roundtrip("QUIT"), "OK bye");
    assert_eq!(bob.roundtrip("QUIT"), "OK bye");
    handle.shutdown().unwrap();
}

#[test]
fn unbounded_and_recorded_queries() {
    let handle = serve(grid_table(), ServiceConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr());

    // Fully unbounded: the global skyline of the grid is its origin.
    assert_eq!(client.roundtrip("Q * * * *"), "OK 1 miss 0,0");
    // The reserved `record` token changes nothing about the answer.
    assert_eq!(client.roundtrip("Q * * * * record"), "OK 1 hit 0,0");
    handle.shutdown().unwrap();
}

/// The longest line the server takes: 64 KiB before its newline.
const LINE_BOUND: usize = 64 * 1024;

#[test]
fn an_over_long_line_is_refused_and_the_server_keeps_serving() {
    let handle = serve(grid_table(), ServiceConfig::default(), "127.0.0.1:0").unwrap();
    // One byte past the bound, and 1 MiB, without a newline. The server
    // stops reading past the bound and closes, so the tail of a long
    // write may fail — that is the refusal.
    for len in [LINE_BOUND + 1, 1 << 20] {
        let mut flood = TcpStream::connect(handle.addr()).unwrap();
        flood.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
        for chunk in vec![b'7'; len].chunks(4096) {
            if flood.write_all(chunk).is_err() {
                break;
            }
        }
        // Whatever the server said before closing is its whole reply; the
        // close itself may surface as end-of-stream or as a reset.
        let mut reply = Vec::new();
        drop(flood.read_to_end(&mut reply));
        assert_eq!(String::from_utf8_lossy(&reply), "ERR line too long\n", "{len} bytes");
    }

    let mut fresh = Client::connect(handle.addr());
    assert_eq!(fresh.roundtrip("PING"), "OK pong");
    handle.shutdown().unwrap();
}

#[test]
fn complete_lines_before_an_over_long_tail_are_answered_first() {
    let handle = serve(grid_table(), ServiceConfig::default(), "127.0.0.1:0").unwrap();
    let mut flood = TcpStream::connect(handle.addr()).unwrap();
    flood.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
    let mut bytes = b"PING\n".to_vec();
    bytes.resize(bytes.len() + LINE_BOUND + 1, b'7');
    for chunk in bytes.chunks(4096) {
        if flood.write_all(chunk).is_err() {
            break;
        }
    }
    let mut reply = Vec::new();
    drop(flood.read_to_end(&mut reply));
    assert_eq!(String::from_utf8_lossy(&reply), "OK pong\nERR line too long\n");
    handle.shutdown().unwrap();
}

#[test]
fn quit_in_a_pipelined_burst_answers_the_lines_before_it_and_closes() {
    let handle = serve(grid_table(), ServiceConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = TcpStream::connect(handle.addr()).unwrap();
    client.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
    client.write_all(b"PING\nQUIT\nPING\n").unwrap();
    // The line after QUIT gets no reply: the server closes instead.
    let mut reply = Vec::new();
    drop(client.read_to_end(&mut reply));
    assert_eq!(String::from_utf8_lossy(&reply), "OK pong\nOK bye\n");
    handle.shutdown().unwrap();
}

#[test]
fn a_line_of_exactly_the_bound_is_answered() {
    let handle = serve(grid_table(), ServiceConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr());
    let short = client.roundtrip("Q 0.2 1.0 0.2 1.0");
    // The same query with its first bound padded by trailing zeros.
    let (head, tail) = ("Q 0.2", " 1.0 0.2 1.0");
    let long = format!("{head}{}{tail}", "0".repeat(LINE_BOUND - head.len() - tail.len()));
    assert_eq!(long.len(), LINE_BOUND);
    assert_eq!(client.roundtrip(&long), short.replacen("miss", "hit", 1));
    assert_eq!(client.roundtrip("PING"), "OK pong");
    handle.shutdown().unwrap();
}

#[test]
fn a_line_split_across_writes_gets_the_unsplit_reply() {
    let handle = serve(grid_table(), ServiceConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr());
    client.writer.set_nodelay(true).unwrap();
    // The first query misses; from then on the unsplit line is a hit.
    let query = "Q 0.2 1.0 0.2 1.0";
    assert!(client.roundtrip(query).starts_with("OK 1 miss "));
    for request in [query, "PING"] {
        let unsplit = client.roundtrip(request);
        assert!(unsplit.starts_with("OK "), "got {unsplit:?}");
        // Every cut, the one before the newline included.
        for at in 1..=request.len() {
            assert_eq!(client.split_roundtrip(request, at), unsplit, "{request:?} cut at {at}");
        }
    }
    handle.shutdown().unwrap();
}

#[test]
fn a_pipelined_burst_cut_at_random_offsets_gets_the_replies_of_its_lines() {
    // Two servers over the same table see the same lines in the same
    // order: one a line at a time, the other as bursts cut into 3–6
    // writes at random offsets. Every reply must match, byte for byte and
    // in order, so the state carried between reads (a partial line, or
    // several whole lines and a partial one) is never lost or reordered.
    let (reference, cut) = (
        serve(grid_table(), ServiceConfig::default(), "127.0.0.1:0").unwrap(),
        serve(grid_table(), ServiceConfig::default(), "127.0.0.1:0").unwrap(),
    );
    let mut one_by_one = Client::connect(reference.addr());
    let mut burst = Client::connect(cut.addr());
    burst.writer.set_nodelay(true).unwrap();
    let warm = ["Q 0.2 1.0 0.2 1.0", "Q 0.3 1.4 0.3 1.4"];
    for query in warm {
        assert_eq!(burst.roundtrip(query), one_by_one.roundtrip(query));
    }

    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..8 {
        // A column of its own per round, below every cached box: a miss.
        let x = 1.0 + f64::from(round) / 10.0;
        let miss = format!("Q {x:.2} {:.2} 0 0.15", x + 0.05);
        let lines =
            ["PING", warm[0], warm[1], &miss, warm[0], "Q 0.11 0.19 0.11 0.19", warm[1], "PING"];
        let want: Vec<String> = lines.iter().map(|line| one_by_one.roundtrip(line)).collect();
        assert!(want[3].starts_with("OK 1 miss "), "round {round}: {:?}", want[3]);

        let bytes: Vec<u8> =
            lines.iter().flat_map(|line| format!("{line}\n").into_bytes()).collect();
        // 3–6 writes: the burst's two ends and 2–5 distinct cuts.
        let writes = rng.gen_range(3..=6);
        let mut cuts = vec![0, bytes.len()];
        while cuts.len() <= writes {
            let at = rng.gen_range(1..bytes.len());
            if !cuts.contains(&at) {
                cuts.push(at);
            }
        }
        cuts.sort_unstable();
        for piece in cuts.windows(2) {
            burst.writer.write_all(&bytes[piece[0]..piece[1]]).expect("send a piece");
            std::thread::sleep(Duration::from_millis(2));
        }
        for (line, want) in lines.iter().zip(&want) {
            assert_eq!(&burst.reply(), want, "round {round}: {line:?} cut at {cuts:?}");
        }
    }
    reference.shutdown().unwrap();
    cut.shutdown().unwrap();
}

#[test]
fn shutdown_drains_idle_connections() {
    let handle = serve(grid_table(), ServiceConfig::default(), "127.0.0.1:0").unwrap();
    // An idle client that never sends anything must not wedge shutdown.
    let _idle = TcpStream::connect(handle.addr()).unwrap();
    let mut active = Client::connect(handle.addr());
    assert_eq!(active.roundtrip("PING"), "OK pong");
    handle.shutdown().unwrap();
}

#[test]
fn concurrent_clients_agree_under_load() {
    const QUERY: &str = "Q 0.3 1.4 0.3 1.4";
    let handle = serve(grid_table(), ServiceConfig::default(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let replies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(move || {
                    let mut c = Client::connect(addr);
                    let reply = c.roundtrip(QUERY);
                    c.roundtrip("QUIT");
                    reply
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Canonical order ⇒ all clients read byte-identical skylines.
    let points = |reply: &str| reply.split(' ').skip(3).collect::<Vec<_>>().join(" ");
    for reply in &replies {
        assert!(reply.starts_with("OK 1 "), "got {reply:?}");
        assert_eq!(points(reply), points(&replies[0]));
    }
    let mut c = Client::connect(addr);
    let stats = c.roundtrip("STATS");
    let field = |name: &str| -> u64 {
        stats
            .split(' ')
            .find_map(|t| t.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("missing {name} in {stats:?}"))
            .parse()
            .unwrap()
    };
    // Every query ran the pipeline; racing misses may each have inserted
    // a copy, and a query that found one cached scored an exact hit.
    assert_eq!((field("computes"), field("coalesced")), (8, 0), "got {stats:?}");
    assert!((1..=8).contains(&field("cache_len")), "got {stats:?}");
    // A ninth identical query hits, with the same bytes.
    let ninth = c.roundtrip(QUERY);
    assert!(ninth.starts_with("OK 1 hit "), "got {ninth:?}");
    assert_eq!(points(&ninth), points(&replies[0]));
    handle.shutdown().unwrap();
}

#[test]
fn connections_past_the_cap_are_refused_and_a_freed_slot_is_reusable() {
    let handle = serve(grid_table(), ServiceConfig::default(), "127.0.0.1:0").unwrap();
    // Fill every slot; the round trip proves the connection is being
    // served, not waiting in the listener's backlog.
    let mut held: Vec<Client> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut client = Client::connect(handle.addr());
            assert_eq!(client.roundtrip("PING"), "OK pong");
            client
        })
        .collect();
    assert_eq!(handle.live_connections(), MAX_CONNECTIONS);

    // One more is told so and closed, without a thread or a session.
    let mut refused = TcpStream::connect(handle.addr()).unwrap();
    let mut said = String::new();
    refused.read_to_string(&mut said).unwrap();
    assert_eq!(said, "ERR busy\n");
    assert_eq!(handle.live_connections(), MAX_CONNECTIONS);
    assert_eq!(held[0].roundtrip("PING"), "OK pong");

    // A connection that ends frees its slot for the next client.
    assert_eq!(held.pop().unwrap().roundtrip("QUIT"), "OK bye");
    await_live_connections(&handle, MAX_CONNECTIONS - 1);
    let mut next = Client::connect(handle.addr());
    assert_eq!(next.roundtrip("Q * * * *"), "OK 1 miss 0,0");
    handle.shutdown().unwrap();
}

#[test]
fn clients_that_disconnect_mid_query_leave_nothing_behind() {
    let handle = serve(grid_table(), ServiceConfig::default(), "127.0.0.1:0").unwrap();
    let mut steady = Client::connect(handle.addr());
    assert_eq!(steady.roundtrip("PING"), "OK pong");
    assert_eq!(handle.live_connections(), 1);

    // A query, or most of one, and gone before the reply: the server
    // computes an answer nobody reads, or reads a line nobody finishes.
    for request in ["Q 0.3 1.4 0.3 1.4\n", "Q 0.3 1.4 0.3", "Q * * * *\nQ 0.2 1.0 0.2 1.0\nQ 0."] {
        for _ in 0..4 {
            let mut gone = TcpStream::connect(handle.addr()).unwrap();
            gone.write_all(request.as_bytes()).unwrap();
        }
    }

    // The server keeps serving, and every abandoned connection's thread
    // ends: the count returns to the one client still here.
    assert!(steady.roundtrip("Q 0.3 1.4 0.3 1.4").starts_with("OK 1 "));
    await_live_connections(&handle, 1);
    assert_eq!(steady.roundtrip("PING"), "OK pong");
    handle.shutdown().unwrap();
}
