//! The client side of the protocol: one request, one response, over a
//! fresh connection per request.
//!
//! Per-request connections are deliberate: the soak harness and the CI
//! durability drill talk to a daemon that gets `kill -9`ed and restarted
//! mid-conversation, and a connectionless client is trivially correct
//! across that — every request either gets a full response line or a
//! transport error the caller can retry.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::json::{obj, Json};

/// A protocol client bound to one daemon address.
#[derive(Clone, Debug)]
pub struct Client {
    addr: String,
    timeout: Duration,
}

impl Client {
    /// A client for `addr` (e.g. `127.0.0.1:7411`) with a per-request
    /// read/write timeout.
    pub fn new(addr: &str, timeout: Duration) -> Self {
        Client { addr: addr.to_string(), timeout }
    }

    /// Sends one request object, returns the parsed response object.
    pub fn request(&self, req: &Json) -> io::Result<Json> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        let mut writer = stream.try_clone()?;
        writer.write_all(req.to_string().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line)?;
        if line.trim().is_empty() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "empty response"));
        }
        Json::parse(line.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
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

    /// `stats`.
    pub fn stats(&self) -> io::Result<Json> {
        self.request(&obj([("op", Json::Str("stats".into()))]))
    }

    /// `metrics` — the live windowed-telemetry payload (rates, gauges,
    /// latency quantiles, per-alg breakdown).
    #[cfg(feature = "instrument")]
    pub fn metrics(&self) -> io::Result<Json> {
        self.request(&obj([("op", Json::Str("metrics".into()))]))
    }

    /// `dump-flight` — ask the daemon to write a flight-recorder dump now.
    #[cfg(feature = "instrument")]
    pub fn dump_flight(&self) -> io::Result<Json> {
        self.request(&obj([("op", Json::Str("dump-flight".into()))]))
    }

    /// `submit` with an already-built spec object.
    pub fn submit(&self, spec: Json) -> io::Result<Json> {
        self.request(&obj([("op", Json::Str("submit".into())), ("spec", spec)]))
    }

    /// `shutdown` (drain or cancel).
    pub fn shutdown(&self, drain: bool) -> io::Result<Json> {
        self.request(&obj([("op", Json::Str("shutdown".into())), ("drain", Json::Bool(drain))]))
    }
}
