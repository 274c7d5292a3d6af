//! The TCP server: an accept loop handing each connection its own
//! [`Session`] over one shared [`Service`].
//!
//! Threading model: [`serve`] binds the listener on the caller's thread
//! (so an ephemeral `:0` port is immediately known), then spawns one
//! accept thread that owns the table and the service. Each accepted
//! connection gets a scoped thread with its own session — sessions own
//! their executor scratch, so connections contend only on the service
//! state the paper's cache design already shares (the epoch-published
//! snapshot, the singleflight table, the negative cache).
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] raises a flag and
//! pokes the listener with a throwaway connection to unblock `accept`;
//! idle connections poll the flag on a short read timeout, so the whole
//! server drains within one poll interval of the signal.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Handle to a running server: its bound address plus shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The address the server is listening on (resolves `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
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
    let thread_stop = stop.clone();
    let join = thread::Builder::new().name("skyserve-accept".to_owned()).spawn(move || {
        let service = Service::open(&table, config);
        accept_loop(&listener, &service, &thread_stop)
    })?;
    Ok(ServerHandle { addr, stop, join: Some(join) })
}

fn accept_loop(listener: &TcpListener, service: &Service<'_>, stop: &AtomicBool) -> io::Result<()> {
    thread::scope(|s| {
        for conn in listener.incoming() {
            if stop.load(Ordering::Acquire) {
                break;
            }
            let stream = match conn {
                Ok(stream) => stream,
                // Transient accept errors (e.g. a client aborting its
                // handshake) must not take the server down.
                Err(_) => continue,
            };
            let session = service.session();
            s.spawn(move || drop(handle_conn(stream, session, service, stop)));
        }
        Ok(())
    })
}

enum Flow {
    Continue,
    Quit,
}

fn handle_conn(
    stream: TcpStream,
    mut session: Session<'_>,
    service: &Service<'_>,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    drop(stream.set_nodelay(true));
    let mut reader = stream.try_clone()?;
    let mut out = io::BufWriter::new(stream);
    let mut pending: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        // Answer every complete line already buffered before reading more.
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line);
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            if let Flow::Quit = respond(text, &mut session, service, &mut out)? {
                return out.flush();
            }
        }
        // Every complete line is answered, so what is left is one
        // unterminated line.
        if pending.len() > MAX_LINE_BYTES {
            writeln!(out, "{}", proto::err_reply("line too long"))?;
            return out.flush();
        }
        match reader.read(&mut buf) {
            Ok(0) => return out.flush(), // client closed
            Ok(n) => pending.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Acquire) {
                    return out.flush();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn respond(
    line: &str,
    session: &mut Session<'_>,
    service: &Service<'_>,
    out: &mut impl Write,
) -> io::Result<Flow> {
    let reply = match proto::parse_request(line) {
        Err(msg) => proto::err_reply(&msg),
        Ok(Request::Ping) => proto::PONG.to_owned(),
        Ok(Request::Quit) => {
            writeln!(out, "{}", proto::BYE)?;
            out.flush()?;
            return Ok(Flow::Quit);
        }
        Ok(Request::Stats) => {
            let cache = service.cache();
            proto::stats_reply(&service.metrics(), cache.len(), cache.epoch())
        }
        Ok(Request::Query { constraints, record }) => {
            let mut req = QueryRequest::new(constraints);
            if record {
                req = req.recorded();
            }
            match session.execute(&req) {
                Ok(outcome) => proto::query_reply(&outcome),
                Err(e) => proto::err_reply(&e.to_string()),
            }
        }
    };
    writeln!(out, "{reply}")?;
    out.flush()?;
    Ok(Flow::Continue)
}
