//! Live telemetry for the daemon: the engine runs a reading carries, the
//! Prometheus rendering of a reading and its scrape listener, and the
//! flight-ring dumps.
//!
//! A worker records each job's engine run (its latency, and its algorithm
//! when it finished done or degraded) under the state lock it takes to
//! journal the finish, so one reading holds the runs beside the counters;
//! the `stats` op and the scrape render that reading, in every build.
//! [`spawn_metrics_listener`] is a minimal hand-rolled HTTP/1.1 responder
//! built on [`pobp_core::metrics`]. A flight directory keeps the trace
//! recorder's ring armed and receives its dumps.
//!
//! The daemon exports cumulative counters and levels, never rates: each
//! reader derives rates over its own interval, so one reader polling fast
//! cannot shorten another's view. Everything here is wall-clock telemetry:
//! it never touches the registry's durable bytes, job results, or logical
//! traces (see the determinism contract in `docs/observability.md`).

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pobp_core::metrics::{Prom, PROM_CONTENT_TYPE};
use pobp_core::obs::{quantile_from_buckets, LogHistogram, HIST_BUCKETS};
use pobp_engine::Algo;

use crate::job::JobStatus;
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

/// The engine runs of finished jobs: their wall-clock latency, and how many
/// finished done or degraded per algorithm. A cache hit runs no engine and
/// is not recorded here.
#[derive(Clone, Debug)]
pub(crate) struct JobRuns {
    /// Engine-run latency in microseconds, as log₂ bucket counts
    /// ([`LogHistogram::bucket_of`]).
    latency_us: [u64; HIST_BUCKETS],
    /// Runs that finished `Done`/`Degraded`, per algorithm name.
    pub(crate) done_by_alg: BTreeMap<&'static str, u64>,
}

impl JobRuns {
    /// No runs yet.
    pub(crate) fn new() -> JobRuns {
        JobRuns { latency_us: [0; HIST_BUCKETS], done_by_alg: BTreeMap::new() }
    }

    /// Records one engine run of `alg` that took `elapsed` and finished the
    /// job `status`.
    pub(crate) fn record(&mut self, alg: Algo, status: JobStatus, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.latency_us[LogHistogram::bucket_of(us)] += 1;
        if matches!(status, JobStatus::Done | JobStatus::Degraded) {
            *self.done_by_alg.entry(alg.name()).or_insert(0) += 1;
        }
    }

    /// Engine runs recorded.
    pub(crate) fn count(&self) -> u64 {
        self.latency_us.iter().sum()
    }

    /// Estimated `q`-quantile of the engine-run latency, in milliseconds.
    pub(crate) fn latency_ms(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.latency_us, q) / 1000.0
    }
}

/// The Prometheus text exposition body of one reading: cumulative counters
/// and levels, and latency quantiles. Rates and ratios are the scraper's to
/// derive (`rate()`), over its own interval.
pub(crate) fn prometheus_text(r: &Reading) -> String {
    let c = r.counters;
    let mut p = Prom::new();
    p.header("pobp_serve_up", "gauge", "1 while the daemon answers scrapes.")
        .sample("pobp_serve_up", &[], 1.0);
    p.header("pobp_serve_uptime_seconds", "gauge", "Seconds since the daemon started.")
        .sample("pobp_serve_uptime_seconds", &[], r.uptime.as_secs_f64());
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
    for (alg, n) in &r.runs.done_by_alg {
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
        p.sample("pobp_serve_job_latency_ms", &[("quantile", label)], r.runs.latency_ms(q));
    }
    p.header("pobp_serve_job_latency_count", "counter", "Jobs measured for latency.")
        .sample("pobp_serve_job_latency_count", &[], r.runs.count() as f64);
    p.finish()
}

/// Serves Prometheus text exposition of `service` on `listener` from a
/// background thread, returning the listener's address: one
/// `text/plain; version=0.0.4` body per `GET /metrics`, `400` to a request
/// head over 8 KiB, and nothing to a head still incomplete after 5 s.
///
/// The accept loop is serial — scrapes are small, periodic, and cheap to
/// build — and the thread runs for the life of the process; it never
/// touches daemon state beyond read-only snapshots.
pub fn spawn_metrics_listener(
    listener: TcpListener,
    service: Arc<Service>,
) -> io::Result<SocketAddr> {
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
        ("200 OK", prometheus_text(&service.reading()))
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

/// A flight directory: dumps of the flight ring, which stays armed
/// while this lives.
pub(crate) struct Flight {
    /// Where dumps go.
    dir: PathBuf,
    /// Number of the next dump.
    next: AtomicU64,
    /// Keeps the flight ring armed.
    _ring: pobp_core::trace::Armed,
}

impl Flight {
    /// Creates `dir` if missing and arms the flight ring. Numbering
    /// starts one past the highest `flight-NNNNN-*` already there, so a
    /// restarted daemon numbers after its predecessors instead of
    /// overwriting their dumps.
    pub(crate) fn open(dir: &Path) -> io::Result<Flight> {
        std::fs::create_dir_all(dir)?;
        let mut next = 0;
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let taken = name.to_str().and_then(|n| {
                n.strip_prefix("flight-")?.split('-').next()?.parse::<u64>().ok()
            });
            if let Some(n) = taken {
                next = next.max(n.saturating_add(1));
            }
        }
        Ok(Flight {
            dir: dir.to_path_buf(),
            next: AtomicU64::new(next),
            _ring: pobp_core::trace::arm(pobp_core::trace::Sink::Ring),
        })
    }

    /// Automatic dump on a failure trigger (panicked task, failed
    /// certificate, poisoned journal): best-effort, a note on stderr
    /// either way, never an error to the caller.
    pub(crate) fn on_failure(&self, reason: &str) {
        match self.dump(reason) {
            Ok(path) => {
                eprintln!("serve: flight dump ({reason}) written to {}", path.display());
            }
            Err(e) => eprintln!("serve: flight dump ({reason}) failed: {e}"),
        }
    }

    /// Writes the flight ring as `flight-NNNNN-<reason>.json`.
    pub(crate) fn dump(&self, reason: &str) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("flight-{n:05}-{reason}.json"));
        std::fs::write(&path, pobp_core::flight::dump_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Jobs well under a millisecond read as such: latency is recorded in
    /// microseconds, so 250 µs runs are not rounded into the first
    /// millisecond bucket (which reads p50 1.0 ms whatever the jobs took).
    #[test]
    fn sub_millisecond_runs_keep_their_latency() {
        let mut runs = JobRuns::new();
        for _ in 0..100 {
            runs.record(Algo::Reduction, JobStatus::Done, Duration::from_micros(250));
        }
        assert_eq!(runs.count(), 100);
        let p50 = runs.latency_ms(0.50);
        assert!(p50 > 0.125 && p50 < 0.5, "p50 {p50} ms");
        assert!(runs.latency_ms(0.99) <= 0.256, "p99 {} ms", runs.latency_ms(0.99));
        assert_eq!(runs.done_by_alg.into_iter().collect::<Vec<_>>(), [("reduction", 100)]);
    }

    /// Only done or degraded runs count per algorithm; every run is timed.
    #[test]
    fn failed_and_cancelled_runs_are_timed_but_not_counted_done() {
        let mut runs = JobRuns::new();
        let ms = Duration::from_millis(3);
        runs.record(Algo::LsaCs, JobStatus::Degraded, ms);
        runs.record(Algo::LsaCs, JobStatus::Failed, ms);
        runs.record(Algo::K0, JobStatus::Cancelled, ms);
        assert_eq!(runs.count(), 3);
        assert_eq!(runs.done_by_alg.into_iter().collect::<Vec<_>>(), [("lsa", 1)]);
    }
}
