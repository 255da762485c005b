//! The TCP front end: accept loop, per-connection line loop, and the
//! shutdown handshake.
//!
//! Connections speak the newline-delimited JSON protocol of
//! [`crate::proto`]. The daemon prints two startup lines to stdout
//! (`serve: listening on ADDR`, then a recovery summary, and a third only
//! for a scrape address) so scripts can scrape the bound address — bind to
//! port `0` to let the OS pick.
//!
//! A connection carries any number of requests, one at a time, and each
//! reply goes out as one write with `TCP_NODELAY` set, so a kept
//! connection never waits out a delayed ACK. Three caps bound what
//! clients can hold, each counted in [`crate::service::ServeCounters`]:
//! a request line longer than [`MAX_REQUEST_LINE`] is answered
//! `line_too_long` and its connection closed; a connection idle for
//! [`IDLE_LIMIT`] with no request in flight is closed; and past
//! [`MAX_CONNECTIONS`] open connections a new one is answered `overloaded`
//! and closed. Each connection has a thread of its own.
//!
//! Shutdown: a `shutdown` op is acknowledged immediately, then the handling
//! connection runs [`Service::stop`] to completion — workers joined, final
//! snapshot written — while the daemon keeps answering pings and stats
//! queries. Only then does it flip the stop flag and poke the listener with
//! an empty connection so the blocking `accept` wakes up, observes the
//! flag, and returns. Ordering contract: once the port goes dark, the
//! registry directory is final — external readers (the soak's
//! replay-identity check, scripted backups) may replay it without racing a
//! compaction.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::json::{obj, Json};
use crate::proto::{handle_line, Control};
use crate::service::{Reading, Service, ServiceConfig};

/// Longest request line the daemon reads, newline included (a job spec is
/// about 250 bytes). A longer line is answered `line_too_long` and its
/// connection closed.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// How long a connection may sit idle, with no request in flight, before
/// the daemon closes it.
pub const IDLE_LIMIT: Duration = Duration::from_secs(60);

/// Most connections open at once; one more is answered `overloaded` and
/// closed.
pub const MAX_CONNECTIONS: u64 = 64;

/// Shared stop handshake between connection threads and the accept loop.
struct StopFlag {
    stop: AtomicBool,
    drain: AtomicBool,
}

/// Binds `addr` (and the scrape address, if any), starts the service,
/// prints the startup lines, and blocks until a `shutdown` op arrives.
/// Returns after the service has fully stopped (workers joined, final
/// snapshot written).
///
/// Both addresses are bound before recovery, so a taken port stops the
/// daemon before it prints a line or writes to its registry directory.
pub fn run_server(addr: &str, cfg: ServiceConfig) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let scrapes = cfg.telemetry.metrics_addr.as_deref().map(TcpListener::bind).transpose()?;
    let service = Arc::new(Service::start(cfg)?);
    let Reading { recovery, counters, .. } = service.reading();
    println!("serve: listening on {local}");
    println!(
        "serve: recovered snapshot_seq={} replayed={} requeued={} dropped_tail={}",
        recovery.snapshot_seq, recovery.replayed, counters.requeued, recovery.dropped_tail
    );
    // A third startup line appears only when a scrape listener was asked
    // for, so address-scraping scripts keyed on the first two lines hold.
    if let Some(scrapes) = scrapes {
        let bound = crate::telemetry::spawn_metrics_listener(scrapes, Arc::clone(&service))?;
        println!("serve: metrics on {bound}");
    }
    io::stdout().flush()?;
    serve_loop(listener, local, service)
}

/// Runs the accept loop on an already-bound listener with an
/// already-started service — the in-process embedding the test suites use
/// (bind port `0`, read `local_addr`, serve from a thread). Blocks until a
/// `shutdown` op arrives, then stops the service and returns.
pub fn serve_listener(listener: TcpListener, service: Arc<Service>) -> io::Result<()> {
    let local = listener.local_addr()?;
    serve_loop(listener, local, service)
}

fn serve_loop(listener: TcpListener, local: SocketAddr, service: Arc<Service>) -> io::Result<()> {
    let stop = Arc::new(StopFlag { stop: AtomicBool::new(false), drain: AtomicBool::new(true) });
    for stream in listener.incoming() {
        if stop.stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve: accept failed: {e}");
                continue;
            }
        };
        if !service.open_connection(MAX_CONNECTIONS) {
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = send(&mut &stream, &rejection("overloaded"));
            continue;
        }
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let _open = OpenConnection(&service);
            if let Err(e) = handle_conn(stream, &service, &stop, local, IDLE_LIMIT) {
                // Disconnects are routine (the client closed mid-line);
                // only worth a note, never fatal to the daemon.
                if e.kind() != io::ErrorKind::UnexpectedEof {
                    eprintln!("serve: connection error: {e}");
                }
            }
        });
    }
    let drain = stop.drain.load(Ordering::Acquire);
    service.stop(drain);
    println!("serve: stopped (drain={drain})");
    io::stdout().flush()?;
    Ok(())
}

/// Holds one of the [`MAX_CONNECTIONS`] places until its connection's
/// thread ends, also when it ends by a panic.
struct OpenConnection<'a>(&'a Service);

impl Drop for OpenConnection<'_> {
    fn drop(&mut self) {
        self.0.close_connection();
    }
}

/// A cap's structured refusal.
fn rejection(reason: &str) -> Json {
    obj([
        ("ok", Json::Bool(false)),
        ("rejected", Json::Bool(true)),
        ("reason", Json::Str(reason.into())),
    ])
}

/// Writes `msg` and its newline with one write.
fn send(stream: &mut impl Write, msg: &Json) -> io::Result<()> {
    let mut line = msg.to_string();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Answers the requests of one connection, one line at a time, until the
/// client closes it, it sits idle for `idle`, a line runs past
/// [`MAX_REQUEST_LINE`], or it asks for `shutdown`.
fn handle_conn(
    stream: TcpStream,
    service: &Service,
    stop: &StopFlag,
    local: SocketAddr,
    idle: Duration,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    // Reads wait only between requests, so this times out an idle client,
    // never a request in flight.
    stream.set_read_timeout(Some(idle))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let read = reader.by_ref().take(MAX_REQUEST_LINE as u64).read_until(b'\n', &mut buf);
        match read {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                // Closed before it is counted, so whoever reads the count
                // finds the connection closed.
                let _ = writer.shutdown(Shutdown::Both);
                service.count(|c| c.connections_idle_closed += 1);
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        if buf.len() == MAX_REQUEST_LINE && buf.last() != Some(&b'\n') {
            service.count(|c| c.lines_too_long += 1);
            return send(&mut writer, &rejection("line_too_long"));
        }
        let line = std::str::from_utf8(&buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            .trim_end_matches('\n')
            .trim_end_matches('\r');
        if line.trim().is_empty() {
            continue;
        }
        let (response, control, wake) = handle_line(service, line);
        send(&mut writer, &response)?;
        // A queued job's worker starts only now, after its ack is out (an
        // early return on a failed write drops the wake too).
        drop(wake);
        if let Control::Shutdown { drain } = control {
            // Stop the service from this connection thread *before* waking
            // the accept loop: the daemon stays reachable while it drains,
            // and goes dark only after the final snapshot is durable — so
            // "the port stopped answering" is a safe signal to read the
            // registry directory.
            service.stop(drain);
            stop.drain.store(drain, Ordering::Release);
            stop.stop.store(true, Ordering::Release);
            // Wake the blocking accept so it observes the flag.
            let _ = TcpStream::connect(local);
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::client::Client;
    use crate::job::JobSpec;
    use pobp_engine::Algo;

    /// A connection idle for the limit is closed and counted, and the
    /// client sees the close before its next request and sends it over a
    /// fresh connection: a status is answered, and a submit (never resent)
    /// is admitted rather than lost.
    #[test]
    fn idle_connections_are_closed_and_the_client_replaces_them() {
        let dir = std::env::temp_dir().join(format!("pobp-serve-idle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig { dir: dir.clone(), workers: 0, ..ServiceConfig::default() };
        let service = Arc::new(Service::start(cfg).unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let local = listener.local_addr().unwrap();
        let idle = Duration::from_millis(200);
        // Detached, so a failed assertion below cannot leave the test
        // waiting on an accept.
        let served = Arc::clone(&service);
        std::thread::spawn(move || {
            let stop = StopFlag { stop: AtomicBool::new(false), drain: AtomicBool::new(true) };
            for stream in listener.incoming() {
                handle_conn(stream.unwrap(), &served, &stop, local, idle).unwrap();
            }
        });
        let idle_closed = |n: u64| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while service.counters().connections_idle_closed < n {
                assert!(Instant::now() < deadline, "idle connection {n} was never closed");
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        let client = Client::new(&local.to_string(), Duration::from_secs(5));
        // Requests inside the limit keep the connection.
        for _ in 0..4 {
            assert!(client.ping());
            std::thread::sleep(idle / 2);
        }
        assert_eq!(service.counters().connections_idle_closed, 0);
        idle_closed(1);
        let reply = client.status(1).expect("a status after an idle close");
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("not_found"), "{reply}");
        idle_closed(2);
        let spec = JobSpec::cell(Algo::Reduction, 8, 1, 0).to_json();
        let reply = client.submit(spec).expect("a submit after an idle close");
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(1), "{reply}");
        assert_eq!(service.job(1).map(|j| j.spec.seed), Some(0));
        service.stop(false);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
