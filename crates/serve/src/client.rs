//! The client side of the protocol: one request, one response line, over
//! one kept connection.
//!
//! A [`Client`] opens its connection on the first request and sends every
//! later one over it, each request as one write with `TCP_NODELAY` set.
//! The daemon may close a kept connection (its idle limit, a restart, a
//! `kill -9`), so the client checks before sending and replaces a closed
//! connection with a fresh one. A connection can still break after the
//! check; then the client reconnects and resends once, but only a
//! read-only op (`ping`, `status`, `result`, `list`, `stats`), which
//! cannot take effect twice. A `submit`, `cancel` or `shutdown` whose
//! connection broke after the send is a transport error: the caller cannot
//! know whether the daemon acted on it, and acknowledgement is the only
//! promise the daemon makes. A timed-out request is never resent. The soak
//! harness and `tests/serve_e2e.rs` hold this contract against a daemon
//! that is `kill -9`ed and restarted mid-conversation.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::json::{obj, Json};

/// Ops that change nothing in the daemon, so resending one whose
/// connection broke cannot apply it twice.
const READ_ONLY: [&str; 5] = ["ping", "status", "result", "list", "stats"];

/// A protocol client bound to one daemon address. It keeps one connection
/// for its requests, which take turns on it; a clone opens a connection of
/// its own.
#[derive(Debug)]
pub struct Client {
    addr: String,
    timeout: Duration,
    conn: Mutex<Option<BufReader<TcpStream>>>,
}

impl Clone for Client {
    fn clone(&self) -> Self {
        Client::new(&self.addr, self.timeout)
    }
}

impl Client {
    /// A client for `addr` (e.g. `127.0.0.1:7411`) with a per-request
    /// read/write timeout. It connects on its first request.
    pub fn new(addr: &str, timeout: Duration) -> Self {
        Client { addr: addr.to_string(), timeout, conn: Mutex::new(None) }
    }

    /// Sends one request object, returns the parsed response object.
    pub fn request(&self, req: &Json) -> io::Result<Json> {
        let mut line = req.to_string();
        line.push('\n');
        let op = req.get("op").and_then(Json::as_str);
        let mut kept = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
        let reused = kept.take().filter(is_open);
        let resend = reused.is_some() && op.is_some_and(|op| READ_ONLY.contains(&op));
        let mut conn = match reused {
            Some(conn) => conn,
            None => self.connect()?,
        };
        let response = match exchange(&mut conn, &line) {
            Err(e) if resend && broke(&e) => {
                conn = self.connect()?;
                exchange(&mut conn, &line)
            }
            answered => answered,
        }?;
        // The daemon is going away after a shutdown: keep nothing to it.
        if op != Some("shutdown") {
            *kept = Some(conn);
        }
        Ok(response)
    }

    fn connect(&self) -> io::Result<BufReader<TcpStream>> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        Ok(BufReader::new(stream))
    }

    /// `ping` — whether a daemon answers at the address.
    pub fn ping(&self) -> bool {
        self.request(&obj([("op", Json::Str("ping".into()))]))
            .ok()
            .and_then(|r| r.get("pong").and_then(Json::as_bool))
            .unwrap_or(false)
    }

    /// `status` for one job id.
    pub fn status(&self, id: u64) -> io::Result<Json> {
        self.request(&obj([("op", Json::Str("status".into())), ("id", Json::Num(id as f64))]))
    }

    /// `result` for one job id.
    pub fn result(&self, id: u64) -> io::Result<Json> {
        self.request(&obj([("op", Json::Str("result".into())), ("id", Json::Num(id as f64))]))
    }

    /// `cancel` for one job id.
    pub fn cancel(&self, id: u64) -> io::Result<Json> {
        self.request(&obj([("op", Json::Str("cancel".into())), ("id", Json::Num(id as f64))]))
    }

    /// `stats` — the daemon's counters and levels, uptime, job latency
    /// quantiles and per-algorithm counts.
    pub fn stats(&self) -> io::Result<Json> {
        self.request(&obj([("op", Json::Str("stats".into()))]))
    }

    /// `dump-flight` — ask the daemon to write a flight-recorder dump now.
    pub fn dump_flight(&self) -> io::Result<Json> {
        self.request(&obj([("op", Json::Str("dump-flight".into()))]))
    }

    /// `submit` with an already-built spec object.
    pub fn submit(&self, spec: Json) -> io::Result<Json> {
        self.request(&obj([("op", Json::Str("submit".into())), ("spec", spec)]))
    }

    /// `shutdown` (drain or cancel). The client drops its connection
    /// afterwards.
    pub fn shutdown(&self, drain: bool) -> io::Result<Json> {
        self.request(&obj([("op", Json::Str("shutdown".into())), ("drain", Json::Bool(drain))]))
    }
}

/// Writes one request line with one write and reads its response line.
fn exchange(conn: &mut BufReader<TcpStream>, line: &str) -> io::Result<Json> {
    conn.get_mut().write_all(line.as_bytes())?;
    let mut response = String::new();
    conn.read_line(&mut response)?;
    if response.trim().is_empty() {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "empty response"));
    }
    Json::parse(response.trim())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
}

/// Whether a kept connection can carry another request: nothing unread
/// is waiting on it, and the daemon has not closed it. A daemon that
/// closed it has left an end of file (or a reset) where a live connection
/// has nothing to read.
fn is_open(conn: &BufReader<TcpStream>) -> bool {
    let stream = conn.get_ref();
    if !conn.buffer().is_empty() || stream.set_nonblocking(true).is_err() {
        return false;
    }
    let idle = matches!(stream.peek(&mut [0]), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
    stream.set_nonblocking(false).is_ok() && idle
}

/// Whether `e` means the connection broke (closed or reset by the peer),
/// as opposed to a timeout or an unreadable answer.
fn broke(e: &io::Error) -> bool {
    use io::ErrorKind::*;
    matches!(
        e.kind(),
        UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe | NotConnected
    )
}
