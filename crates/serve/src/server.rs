//! The TCP front end: accept loop, per-connection line loop, and the
//! shutdown handshake.
//!
//! Connections speak the newline-delimited JSON protocol of
//! [`crate::proto`]. The daemon prints exactly two startup lines to stdout
//! (`serve: listening on ADDR`, then a recovery summary) so scripts can
//! scrape the bound address — bind to port `0` to let the OS pick.
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

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::proto::{handle_line, Control};
use crate::service::{Service, ServiceConfig};

/// Shared stop handshake between connection threads and the accept loop.
struct StopFlag {
    stop: AtomicBool,
    drain: AtomicBool,
}

/// Binds `addr`, starts the service, prints the two startup lines, and
/// blocks until a `shutdown` op arrives. Returns after the service has
/// fully stopped (workers joined, final snapshot written).
pub fn run_server(addr: &str, cfg: ServiceConfig) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    #[cfg(feature = "instrument")]
    let metrics_addr = cfg.telemetry.metrics_addr.clone();
    let service = Arc::new(Service::start(cfg)?);
    let recovery = service.recovery();
    let counters = service.counters();
    println!("serve: listening on {local}");
    println!(
        "serve: recovered snapshot_seq={} replayed={} requeued={} dropped_tail={}",
        recovery.snapshot_seq, recovery.replayed, counters.requeued, recovery.dropped_tail
    );
    // A third startup line appears only when a scrape listener was asked
    // for, so address-scraping scripts keyed on the first two lines hold.
    #[cfg(feature = "instrument")]
    if let Some(addr) = metrics_addr {
        let bound = crate::telemetry::spawn_metrics_listener(&addr, Arc::clone(&service))?;
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
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            if let Err(e) = handle_conn(stream, &service, &stop, local) {
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

fn handle_conn(
    stream: TcpStream,
    service: &Service,
    stop: &StopFlag,
    local: SocketAddr,
) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (response, control, wake) = handle_line(service, &line);
        writer.write_all(response.to_string().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
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
    Ok(())
}
