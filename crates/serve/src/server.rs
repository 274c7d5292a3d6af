//! The TCP server: an accept loop handing each connection its own
//! [`Session`] over one shared [`Service`].
//!
//! Threading model: [`serve`] binds the listener on the caller's thread
//! (so an ephemeral `:0` port is immediately known), then spawns one
//! accept thread that owns the service, which owns the table. Each
//! accepted connection gets a scoped thread with its own session —
//! sessions own their executor scratch, so connections contend only on
//! the service state the paper's cache design already shares (the
//! epoch-published snapshot and the master behind it). At most
//! [`MAX_CONNECTIONS`] are served at once: past that the accept thread
//! answers `ERR busy` itself and closes, so a connection flood costs
//! neither threads nor sessions.
//!
//! A connection owns one reply buffer: every reply is rendered into it
//! with its newline and leaves in one `write`, so under `TCP_NODELAY` a
//! reply is one segment train however long it is. Request lines are
//! parsed where they lie in the read buffer, which is drained once per
//! batch of buffered lines.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] raises a flag and
//! pokes the listener with a throwaway connection to unblock `accept`;
//! idle connections poll the flag on a short read timeout, so the whole
//! server drains within one poll interval of the signal.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use skycache_core::{QueryRequest, Service, ServiceConfig, Session};
use skycache_storage::Table;

use crate::proto::{self, Request};

/// How often an idle connection re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Longest request line a connection may send. Buffered bytes without a
/// newline beyond this get `ERR line too long` and the connection is
/// closed, so one client cannot grow the server's memory without limit.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Most connections served at once — each holds a thread and a
/// session's scratch buffers. The next one is answered `ERR busy` and
/// closed; a slot frees when its connection ends.
pub const MAX_CONNECTIONS: usize = 256;

/// Handle to a running server: its bound address plus shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
    join: Option<JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The address the server is listening on (resolves `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections being served right now, each on its own thread (at
    /// most [`MAX_CONNECTIONS`]).
    pub fn live_connections(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    /// Signals shutdown and waits for the accept loop and every open
    /// connection to drain.
    ///
    /// # Errors
    /// Propagates an accept-loop I/O error or a server-thread panic.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.signal_stop();
        self.join()
    }

    /// Blocks until the server exits; it only exits once [`shutdown`]
    /// (or drop) signals it, so this is the run-forever call for a
    /// server binary.
    ///
    /// # Errors
    /// Propagates an accept-loop I/O error or a server-thread panic.
    ///
    /// [`shutdown`]: ServerHandle::shutdown
    pub fn wait(mut self) -> io::Result<()> {
        self.join()
    }

    fn signal_stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop; the loop re-checks the flag per
        // accepted connection.
        drop(TcpStream::connect(self.addr));
    }

    fn join(&mut self) -> io::Result<()> {
        match self.join.take() {
            Some(handle) => {
                handle.join().map_err(|_| io::Error::other("server thread panicked"))?
            }
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.signal_stop();
            drop(self.join());
        }
    }
}

/// Starts serving `table` through a [`Service`] on `addr`.
///
/// Returns as soon as the listener is bound; queries are answered on a
/// background accept thread until the handle is shut down or dropped.
///
/// # Errors
/// Fails if the address cannot be bound or the thread cannot spawn.
pub fn serve(
    table: Table,
    config: ServiceConfig,
    addr: impl ToSocketAddrs,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let live = Arc::new(AtomicUsize::new(0));
    let (thread_stop, thread_live) = (stop.clone(), live.clone());
    #[expect(
        clippy::disallowed_methods,
        reason = "the accept thread: with its scoped connection threads, the only threads a \
                  library crate spawns"
    )]
    let join = thread::Builder::new().name("skyserve-accept".to_owned()).spawn(move || {
        let service = Service::open(table, config);
        accept_loop(&listener, &service, &thread_stop, &thread_live)
    })?;
    Ok(ServerHandle { addr, stop, live, join: Some(join) })
}

/// One of the [`MAX_CONNECTIONS`] slots, held by a connection's thread
/// and given back when it ends, however it ends.
struct Slot<'a>(&'a AtomicUsize);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn accept_loop(
    listener: &TcpListener,
    service: &Service<'_>,
    stop: &AtomicBool,
    live: &AtomicUsize,
) -> io::Result<()> {
    thread::scope(|s| {
        for conn in listener.incoming() {
            if stop.load(Ordering::Acquire) {
                break;
            }
            let mut stream = match conn {
                Ok(stream) => stream,
                // Transient accept errors (e.g. a client aborting its
                // handshake) must not take the server down.
                Err(_) => continue,
            };
            // Only this thread takes slots, so the count cannot pass the
            // cap between the check and the increment.
            if live.load(Ordering::Acquire) >= MAX_CONNECTIONS {
                drop(send_line(&mut stream, proto::BUSY));
                continue;
            }
            live.fetch_add(1, Ordering::AcqRel);
            let slot = Slot(live);
            let session = service.session();
            s.spawn(move || {
                let _slot = slot;
                drop(handle_conn(stream, session, service, stop));
            });
        }
        Ok(())
    })
}

/// Sends a reply line from outside the request loop, in one `write` like
/// every other reply.
fn send_line(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    stream.write_all(format!("{line}\n").as_bytes())
}

fn handle_conn(
    mut stream: TcpStream,
    mut session: Session<'_>,
    service: &Service<'_>,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    drop(stream.set_nodelay(true));
    let mut pending: Vec<u8> = Vec::new();
    let mut reply = String::new();
    let mut buf = [0u8; 4096];
    loop {
        // Answer every complete line already buffered before reading
        // more; the whole batch leaves `pending` in one drain.
        let mut answered = 0;
        while let Some(len) = pending[answered..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&pending[answered..answered + len]);
            answered += len + 1;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            reply.clear();
            let quit = respond(line, &mut session, service, &mut reply);
            stream.write_all(reply.as_bytes())?;
            if quit {
                return Ok(());
            }
        }
        pending.drain(..answered);
        // Every complete line is answered, so what is left is one
        // unterminated line.
        if pending.len() > MAX_LINE_BYTES {
            return send_line(&mut stream, &proto::err_reply("line too long"));
        }
        match stream.read(&mut buf) {
            Ok(0) => return Ok(()), // client closed
            Ok(n) => pending.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Acquire) {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Renders the reply to one request line into `out`, with its newline;
/// returns whether the line asked to close the connection.
fn respond(line: &str, session: &mut Session<'_>, service: &Service<'_>, out: &mut String) -> bool {
    let request = proto::parse_request(line);
    let quit = matches!(request, Ok(Request::Quit));
    match request {
        Err(msg) => out.push_str(&proto::err_reply(&msg)),
        Ok(Request::Ping) => out.push_str(proto::PONG),
        Ok(Request::Quit) => out.push_str(proto::BYE),
        Ok(Request::Stats) => {
            let cache = service.cache();
            out.push_str(&proto::stats_reply(&service.metrics(), cache.len(), cache.epoch()));
        }
        // `record` is accepted and not acted on: a reply line has no place
        // for a report, so a recorded request would build one nobody
        // reads.
        Ok(Request::Query { constraints, record: _ }) => {
            match session.execute(&QueryRequest::new(constraints)) {
                Ok(outcome) => proto::write_query_reply(out, &outcome),
                Err(e) => out.push_str(&proto::err_reply(&e.to_string())),
            }
        }
    }
    out.push('\n');
    quit
}
