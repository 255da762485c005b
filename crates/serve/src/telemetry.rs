//! Live telemetry for the daemon: the sampler options, the Prometheus
//! scrape listener, and the flight-dump plumbing.
//!
//! Only compiled under the `instrument` feature. The windowed sample math
//! and the exposition builder live in [`pobp_core::metrics`]; the bounded
//! event ring lives in [`pobp_core::flight`]. This module holds the
//! serve-specific glue:
//!
//! * [`TelemetryOptions`] — the `--sample-ms` / `--metrics-addr` /
//!   `--flight-dir` knobs, carried on
//!   [`ServiceConfig`](crate::service::ServiceConfig);
//! * [`spawn_metrics_listener`] — a minimal hand-rolled HTTP/1.1 responder
//!   (request line + headers in, one `text/plain; version=0.0.4` body out)
//!   serving [`Service::prometheus_text`] on every `GET /metrics`, and
//!   `400` to a request head over 8 KiB;
//! * the flight-dump file naming used by
//!   [`Service::dump_flight`](crate::service::Service::dump_flight).
//!
//! Everything here is wall-clock telemetry: scrapes and dumps never touch
//! the registry's durable bytes, job results, or logical traces (see the
//! determinism contract in `docs/observability.md`).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use pobp_core::metrics::PROM_CONTENT_TYPE;

use crate::service::Service;

/// Largest scrape request head (request line plus headers) read before
/// answering `400`: the read timeout restarts with every byte, so without a
/// cap a client trickling bytes with no newline grows memory without limit.
const MAX_REQUEST_HEAD: u64 = 8 * 1024;

/// Live-telemetry knobs (all optional; the defaults sample once a second
/// with no scrape listener and no flight directory).
#[derive(Clone, Debug)]
pub struct TelemetryOptions {
    /// Sampler period in milliseconds; `0` disables the background sampler
    /// thread entirely (the `metrics` op then samples on demand — the
    /// deterministic-test mode).
    pub sample_ms: u64,
    /// Samples retained in the window ring; with the default period the
    /// derived rates are trailing averages over ≈ this many seconds.
    pub window: usize,
    /// Directory for flight-recorder dumps (created if missing). `None`
    /// disables automatic dumps and the `dump-flight` op.
    pub flight_dir: Option<PathBuf>,
    /// Address for the Prometheus scrape listener (e.g. `127.0.0.1:0`).
    /// `None` means no listener. Honoured by
    /// [`run_server`](crate::server::run_server), not by an embedded
    /// [`Service`].
    pub metrics_addr: Option<String>,
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        TelemetryOptions { sample_ms: 1000, window: 60, flight_dir: None, metrics_addr: None }
    }
}

/// Binds `addr` and serves Prometheus text exposition from a background
/// thread, returning the bound address (bind port `0` to let the OS pick).
///
/// The accept loop is serial — scrapes are small, periodic, and cheap to
/// build — and the thread runs for the life of the process; it never
/// touches daemon state beyond read-only snapshots.
pub fn spawn_metrics_listener(addr: &str, service: Arc<Service>) -> io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::Builder::new().name("pobp-serve-metrics".into()).spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            if let Err(e) = handle_scrape(stream, &service) {
                // Scrape hiccups (slow client, disconnect) are routine.
                if e.kind() != io::ErrorKind::UnexpectedEof {
                    eprintln!("serve: metrics scrape error: {e}");
                }
            }
        }
    })?;
    Ok(local)
}

/// Answers one HTTP request on `stream`: `GET /` or `GET /metrics` gets the
/// exposition body, a head longer than [`MAX_REQUEST_HEAD`] a 400, anything
/// else a 404. Headers are read and discarded; the response always closes
/// the connection.
fn handle_scrape(stream: TcpStream, service: &Service) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream.take(MAX_REQUEST_HEAD));
    let mut request = String::new();
    reader.read_line(&mut request)?;
    // Drain the header block; scrapers send nothing we need.
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header.trim().is_empty() {
            break;
        }
    }
    let path = request.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = if reader.get_ref().limit() == 0 {
        ("400 Bad Request", "request head too long\n".to_string())
    } else if path == "/" || path == "/metrics" {
        ("200 OK", service.prometheus_text())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: {PROM_CONTENT_TYPE}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    writer.flush()
}
