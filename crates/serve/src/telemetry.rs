//! Live telemetry for the daemon: the state only an `instrument` build
//! keeps, everything that renders it, and the Prometheus scrape listener.
//!
//! Only compiled under the `instrument` feature. The exposition builder
//! lives in [`pobp_core::metrics`]; the bounded event ring lives in
//! [`pobp_core::flight`]. This module holds the serve-specific glue:
//!
//! * [`TelemetryOptions`] — the `--metrics-addr` / `--flight-dir` knobs,
//!   carried on [`ServiceConfig`](crate::service::ServiceConfig);
//! * `Telemetry` — job latency, per-algorithm done counts and flight-dump
//!   numbering, owned by the [`Service`], and the `metrics` payload and
//!   Prometheus body rendered from them plus one reading of the daemon's
//!   state;
//! * [`spawn_metrics_listener`] — a minimal hand-rolled HTTP/1.1 responder
//!   (request line + headers in, one `text/plain; version=0.0.4` body out)
//!   serving [`Service::prometheus_text`] on every `GET /metrics`, `400` to
//!   a request head over 8 KiB, and nothing to a head still incomplete
//!   after 5 s.
//!
//! The daemon exports cumulative counters and levels, never rates: each
//! reader derives rates over its own interval, so one reader polling fast
//! cannot shorten another's view. Everything here is wall-clock telemetry:
//! scrapes and dumps never touch the registry's durable bytes, job results,
//! or logical traces (see the determinism contract in
//! `docs/observability.md`).

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pobp_core::metrics::{Prom, PROM_CONTENT_TYPE};
use pobp_core::obs::LogHistogram;
use pobp_engine::{Algo, TaskResult};

use crate::json::{obj, Json};
use crate::service::{Reading, Service};

/// Largest scrape request head (request line plus headers) read before
/// answering `400`, so a client sending bytes with no newline cannot grow
/// memory without limit.
const MAX_REQUEST_HEAD: u64 = 8 * 1024;

/// Time a scrape client gets to send its whole request head. A socket read
/// timeout alone restarts with every byte, so a client trickling bytes would
/// hold the serial listener indefinitely; this bounds the head as a whole.
const REQUEST_HEAD_DEADLINE: Duration = Duration::from_secs(5);

/// Live-telemetry knobs (both optional; the defaults run no scrape
/// listener and keep no flight directory).
#[derive(Clone, Debug, Default)]
pub struct TelemetryOptions {
    /// Directory for flight-recorder dumps (created if missing). `None`
    /// disables automatic dumps and the `dump-flight` op.
    pub flight_dir: Option<PathBuf>,
    /// Address for the Prometheus scrape listener (e.g. `127.0.0.1:0`).
    /// `None` means no listener. Honoured by
    /// [`run_server`](crate::server::run_server), not by an embedded
    /// [`Service`].
    pub metrics_addr: Option<String>,
}

/// The daemon state only an `instrument` build keeps. It lives outside the
/// state lock: a job's latency and algorithm are recorded after its engine
/// returns, and a render takes its [`Reading`], releasing the state lock,
/// before it reads this.
pub(crate) struct Telemetry {
    /// Monotone epoch for uptime.
    started: Instant,
    /// Job wall-clock latency in milliseconds (engine run only).
    latency_ms: LogHistogram,
    /// Jobs finished `Done`/`Degraded` per algorithm name.
    per_alg_done: Mutex<BTreeMap<&'static str, u64>>,
    /// Where flight dumps go, if anywhere.
    flight_dir: Option<PathBuf>,
    /// Number of the next flight dump.
    flight_seq: AtomicU64,
    /// Keeps the flight ring armed while a daemon with a flight directory
    /// lives.
    _ring: Option<pobp_core::trace::Armed>,
}

impl Telemetry {
    /// Opens the flight directory, if one is configured, and arms the
    /// flight ring for it. Runs before the registry is recovered, so an
    /// unusable directory stops the daemon before it touches the journal.
    pub(crate) fn start(opts: &TelemetryOptions) -> io::Result<Telemetry> {
        let flight_seq = opts.flight_dir.as_deref().map(open_flight_dir).transpose()?;
        Ok(Telemetry {
            started: Instant::now(),
            latency_ms: LogHistogram::new(),
            per_alg_done: Mutex::new(BTreeMap::new()),
            flight_dir: opts.flight_dir.clone(),
            flight_seq: AtomicU64::new(flight_seq.unwrap_or(0)),
            _ring: flight_seq.map(|_| pobp_core::trace::arm(pobp_core::trace::Sink::Ring)),
        })
    }

    /// Records one engine run of a job: its latency, its algorithm when it
    /// finished `Done`/`Degraded`, and a flight dump the moment it reports
    /// a failed certificate or a panic.
    pub(crate) fn job_ran(&self, alg: Algo, result: &TaskResult, elapsed: Duration) {
        self.latency_ms.record(elapsed.as_millis() as u64);
        match result {
            TaskResult::Done(_) | TaskResult::Degraded { .. } => {
                let mut per_alg = self.per_alg_done.lock().expect("no holder of this lock panics");
                *per_alg.entry(alg.name()).or_insert(0) += 1;
            }
            TaskResult::CertFailed { .. } => self.flight_on_failure("cert-failed"),
            TaskResult::Panicked { .. } => self.flight_on_failure("panic"),
            TaskResult::TimedOut | TaskResult::Cancelled => {}
        }
    }

    /// Automatic flight dump on a failure trigger (panicked task, failed
    /// certificate, poisoned journal): best-effort, a note on stderr either
    /// way, never an error to the caller.
    pub(crate) fn flight_on_failure(&self, reason: &str) {
        match self.dump_flight(reason) {
            Ok(Some(path)) => {
                eprintln!("serve: flight dump ({reason}) written to {}", path.display());
            }
            Ok(None) => {}
            Err(e) => eprintln!("serve: flight dump ({reason}) failed: {e}"),
        }
    }

    /// Writes the flight ring to the flight directory as
    /// `flight-NNNNN-<reason>.json`; `Ok(None)` when none is configured.
    pub(crate) fn dump_flight(&self, reason: &str) -> io::Result<Option<PathBuf>> {
        let Some(dir) = &self.flight_dir else { return Ok(None) };
        std::fs::create_dir_all(dir)?;
        let n = self.flight_seq.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("flight-{n:05}-{reason}.json"));
        std::fs::write(&path, pobp_core::flight::dump_json())?;
        Ok(Some(path))
    }

    /// The `metrics` op payload: uptime, the reading's levels and
    /// cumulative counters, latency quantiles, and the per-algorithm
    /// breakdown.
    pub(crate) fn metrics_json(&self, r: &Reading) -> Json {
        let c = r.counters;
        let h = &self.latency_ms;
        let latency_count: u64 = h.counts().iter().sum();
        let per_alg: Vec<(String, Json)> = self
            .per_alg_done
            .lock()
            .expect("no holder of this lock panics")
            .iter()
            .map(|(alg, n)| ((*alg).to_string(), obj([("done", Json::Num(*n as f64))])))
            .collect();
        let num = |v: u64| Json::Num(v as f64);
        obj([
            ("uptime_ms", num(self.started.elapsed().as_millis() as u64)),
            ("queued", num(r.queued as u64)),
            ("running", num(r.running as u64)),
            ("jobs", num(r.jobs as u64)),
            ("queue_cap", num(r.queue_cap as u64)),
            ("journal_bytes", num(r.journal_bytes)),
            ("journal_poisoned", Json::Bool(r.journal_poisoned)),
            (
                "counters",
                obj([
                    ("accepted", num(c.accepted)),
                    ("cache_hits", num(c.cache_hits)),
                    ("cancelled", num(c.cancelled)),
                    ("degraded", num(c.degraded)),
                    ("done", num(c.done)),
                    ("failed", num(c.failed)),
                    ("finished", num(c.done + c.degraded + c.failed + c.cancelled)),
                    ("journal_appends", num(r.journal_seq)),
                    ("rejected", num(c.rejected)),
                    ("requeued", num(c.requeued)),
                ]),
            ),
            (
                "latency_ms",
                obj([
                    ("count", num(latency_count)),
                    ("p50", Json::Num(h.quantile(0.50))),
                    ("p90", Json::Num(h.quantile(0.90))),
                    ("p99", Json::Num(h.quantile(0.99))),
                ]),
            ),
            ("per_alg", Json::Obj(per_alg)),
        ])
    }

    /// The Prometheus text exposition body: cumulative counters and
    /// levels from the reading, and latency quantiles. Rates and ratios
    /// are the scraper's to derive (`rate()`), over its own interval.
    pub(crate) fn prometheus_text(&self, r: &Reading) -> String {
        let c = r.counters;
        let h = &self.latency_ms;
        let latency_count: u64 = h.counts().iter().sum();
        let mut p = Prom::new();
        p.header("pobp_serve_up", "gauge", "1 while the daemon answers scrapes.")
            .sample("pobp_serve_up", &[], 1.0);
        p.header("pobp_serve_uptime_seconds", "gauge", "Seconds since the daemon started.")
            .sample("pobp_serve_uptime_seconds", &[], self.started.elapsed().as_secs_f64());
        p.header("pobp_serve_jobs_accepted_total", "counter", "Admitted submissions.")
            .sample("pobp_serve_jobs_accepted_total", &[], c.accepted as f64);
        p.header("pobp_serve_jobs_rejected_total", "counter", "Rejected submissions.")
            .sample("pobp_serve_jobs_rejected_total", &[], c.rejected as f64);
        p.header(
            "pobp_serve_cache_hits_total",
            "counter",
            "Submissions answered from an equal-keyed finished job.",
        )
        .sample("pobp_serve_cache_hits_total", &[], c.cache_hits as f64);
        p.header(
            "pobp_serve_jobs_finished_total",
            "counter",
            "Jobs reaching a terminal status, by status.",
        );
        let finished = [
            ("done", c.done),
            ("degraded", c.degraded),
            ("failed", c.failed),
            ("cancelled", c.cancelled),
        ];
        for (status, n) in finished {
            p.sample("pobp_serve_jobs_finished_total", &[("status", status)], n as f64);
        }
        p.header(
            "pobp_serve_jobs_done_by_alg_total",
            "counter",
            "Jobs finished done or degraded, by algorithm.",
        );
        for (alg, n) in self.per_alg_done.lock().expect("no holder of this lock panics").iter() {
            p.sample("pobp_serve_jobs_done_by_alg_total", &[("alg", alg)], *n as f64);
        }
        p.header(
            "pobp_serve_connections_accepted_total",
            "counter",
            "Connections the front end accepted and served.",
        )
        .sample("pobp_serve_connections_accepted_total", &[], c.connections_accepted as f64);
        p.header("pobp_serve_connections_open", "gauge", "Connections open now.")
            .sample("pobp_serve_connections_open", &[], c.connections_open as f64);
        p.header(
            "pobp_serve_connections_capped_total",
            "counter",
            "Connections the daemon closed at one of its caps, by cap.",
        );
        let capped = [
            ("line_too_long", c.lines_too_long),
            ("idle", c.connections_idle_closed),
            ("overloaded", c.connections_overloaded),
        ];
        for (cap, n) in capped {
            p.sample("pobp_serve_connections_capped_total", &[("cap", cap)], n as f64);
        }
        p.header("pobp_serve_queue_depth", "gauge", "Jobs currently queued.")
            .sample("pobp_serve_queue_depth", &[], r.queued as f64);
        p.header("pobp_serve_queue_cap", "gauge", "Admission bound on queued jobs.")
            .sample("pobp_serve_queue_cap", &[], r.queue_cap as f64);
        p.header("pobp_serve_running", "gauge", "Jobs currently running.")
            .sample("pobp_serve_running", &[], r.running as f64);
        p.header("pobp_serve_jobs", "gauge", "Jobs in the registry.")
            .sample("pobp_serve_jobs", &[], r.jobs as f64);
        p.header("pobp_serve_journal_bytes", "gauge", "Size of the journal file.")
            .sample("pobp_serve_journal_bytes", &[], r.journal_bytes as f64);
        p.header(
            "pobp_serve_journal_poisoned",
            "gauge",
            "1 while the journal refuses appends after an IO failure.",
        )
        .sample("pobp_serve_journal_poisoned", &[], f64::from(u8::from(r.journal_poisoned)));
        p.header(
            "pobp_serve_job_latency_ms",
            "gauge",
            "Job wall-clock latency quantiles in milliseconds.",
        );
        for (label, q) in [("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99)] {
            p.sample("pobp_serve_job_latency_ms", &[("quantile", label)], h.quantile(q));
        }
        p.header("pobp_serve_job_latency_count", "counter", "Jobs measured for latency.")
            .sample("pobp_serve_job_latency_count", &[], latency_count as f64);
        p.finish()
    }
}

/// Creates the flight directory if missing and returns the number of the
/// next dump: one past the highest `flight-NNNNN-*` already there, so a
/// restarted daemon numbers after its predecessors instead of overwriting
/// their dumps.
fn open_flight_dir(dir: &Path) -> io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    let mut next = 0;
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let taken = name
            .to_str()
            .and_then(|n| n.strip_prefix("flight-")?.split('-').next()?.parse::<u64>().ok());
        if let Some(n) = taken {
            next = next.max(n.saturating_add(1));
        }
    }
    Ok(next)
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
/// the connection. A head not complete within [`REQUEST_HEAD_DEADLINE`]
/// gets no answer.
fn handle_scrape(stream: TcpStream, service: &Service) -> io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut writer = stream.try_clone()?;
    let head = DeadlineReader { stream, deadline: Instant::now() + REQUEST_HEAD_DEADLINE };
    let mut reader = BufReader::new(head.take(MAX_REQUEST_HEAD));
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

/// A socket reader that fails once `deadline` passes: before each read the
/// socket's read timeout is set to the time left.
struct DeadlineReader {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}
