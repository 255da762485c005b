//! The front end's connections: replies on a kept connection, the client's
//! reconnect rules, and the caps on what clients can hold. Each daemon is
//! embedded with [`serve_listener`] on port 0 over a worker-less service,
//! so nothing runs and every counter is exact.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pobp_engine::Algo;
use pobp_serve::json::{obj, Json};
use pobp_serve::server::{serve_listener, MAX_CONNECTIONS, MAX_REQUEST_LINE};
use pobp_serve::service::{Service, ServiceConfig};
use pobp_serve::{Client, JobSpec};

/// An embedded worker-less daemon on an OS-assigned port, stopped on drop.
struct Daemon {
    addr: String,
    dir: PathBuf,
    service: Arc<Service>,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(tag: &str) -> Daemon {
        let dir =
            std::env::temp_dir().join(format!("pobp-serve-conn-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cfg = ServiceConfig { dir: dir.clone(), workers: 0, ..ServiceConfig::default() };
        let service = Arc::new(Service::start(cfg).unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let served = Arc::clone(&service);
        let handle = Some(std::thread::spawn(move || serve_listener(listener, served)));
        Daemon { addr, dir, service, handle }
    }

    fn client(&self) -> Client {
        Client::new(&self.addr, Duration::from_secs(5))
    }
}

impl Drop for Daemon {
    /// Shuts the daemon down and joins its accept loop. Connections a test
    /// has just dropped may still hold their places, so a shutdown refused
    /// `overloaded` is retried until a deadline. The loop is joined only
    /// after a shutdown was accepted: a refused one leaves it running, and
    /// joining it would hang, so the refusal is logged and the loop left to
    /// end with the test binary.
    fn drop(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let reply = loop {
            let reply = self.client().shutdown(false);
            let overloaded = matches!(&reply, Ok(r)
                if r.get("reason").and_then(Json::as_str) == Some("overloaded"));
            if !overloaded || Instant::now() >= deadline {
                break reply;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        match (&reply, self.handle.take()) {
            (Ok(r), Some(handle)) if ok(r) => {
                let _ = handle.join();
            }
            _ => eprintln!("the daemon refused shutdown: {reply:?}"),
        }
        let _ = fs::remove_dir_all(&self.dir);
    }
}

fn spec(seed: u64) -> Json {
    JobSpec::cell(Algo::Reduction, 8, 1, seed).to_json()
}

/// Sends one request line with one write and reads one reply line.
fn round_trip(conn: &mut BufReader<TcpStream>, req: &Json) -> Json {
    conn.get_mut().write_all(format!("{req}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    conn.read_line(&mut reply).unwrap();
    Json::parse(reply.trim()).unwrap_or_else(|e| panic!("{reply:?}: {e}"))
}

fn ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Every reply on one connection comes back at once. When the daemon wrote
/// a reply as two writes, every reply after the first waited out the
/// client's delayed ACK (~40 ms on Linux).
#[test]
fn replies_on_one_raw_connection_come_back_without_a_delayed_ack() {
    let daemon = Daemon::start("raw");
    let mut conn = BufReader::new(TcpStream::connect(&daemon.addr).unwrap());
    let requests = [
        obj([("op", Json::Str("ping".into()))]),
        obj([("op", Json::Str("submit".into())), ("spec", spec(1))]),
        obj([("op", Json::Str("status".into())), ("id", Json::Num(1.0))]),
        obj([("op", Json::Str("stats".into()))]),
        obj([("op", Json::Str("ping".into()))]),
        obj([("op", Json::Str("list".into()))]),
    ];
    for req in &requests {
        let began = Instant::now();
        let reply = round_trip(&mut conn, req);
        let took = began.elapsed();
        assert!(ok(&reply), "{req} -> {reply}");
        assert!(took < Duration::from_millis(20), "{req} took {took:?} on a kept connection");
    }
    assert_eq!(daemon.service.counters().connections_accepted, 1);
}

/// A client sends all its requests over one connection; a clone opens its
/// own.
#[test]
fn one_client_keeps_one_connection() {
    let daemon = Daemon::start("kept");
    let client = daemon.client();
    assert!(client.ping());
    let id = client.submit(spec(2)).unwrap().get("id").and_then(Json::as_u64).unwrap();
    for _ in 0..3 {
        assert!(ok(&client.status(id).unwrap()));
    }
    assert!(ok(&client.stats().unwrap()));
    assert!(ok(&client.cancel(id).unwrap()));
    let c = daemon.service.counters();
    assert_eq!((c.connections_accepted, c.connections_open), (1, 1), "{c:?}");
    let clone = client.clone();
    assert!(clone.ping() && client.ping());
    assert_eq!(daemon.service.counters().connections_accepted, 2);
    drop((client, clone));
    let deadline = Instant::now() + Duration::from_secs(5);
    while daemon.service.counters().connections_open != 0 {
        assert!(Instant::now() < deadline, "closed connections still counted open");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A stand-in daemon that answers `ping` and, for any other request,
/// records it and closes the connection without an answer: a connection
/// that breaks after the send.
fn breaking_daemon() -> (String, Arc<Mutex<Vec<String>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&seen);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let mut conn = BufReader::new(stream.unwrap());
            let mut line = String::new();
            while conn.read_line(&mut line).is_ok_and(|n| n > 0) {
                let req = Json::parse(line.trim()).unwrap();
                let op = req.get("op").and_then(Json::as_str).unwrap_or_default().to_string();
                log.lock().unwrap().push(op.clone());
                if op != "ping" {
                    break;
                }
                conn.get_mut().write_all(b"{\"ok\":true,\"pong\":true}\n").unwrap();
                line.clear();
            }
        }
    });
    (addr, seen)
}

/// A submit whose kept connection broke after the send is a transport
/// error and is never sent again; a status in the same spot is resent once,
/// over a new connection.
#[test]
fn a_broken_connection_resends_read_only_ops_once_and_never_a_submit() {
    let (addr, seen) = breaking_daemon();
    let client = Client::new(&addr, Duration::from_secs(5));
    assert!(client.ping());
    // The stand-in logs each request before it closes, so by the time the
    // client has its error every line it sent is in the log.
    assert!(client.submit(spec(3)).is_err(), "a submit on a broken connection must fail");
    assert_eq!(*seen.lock().unwrap(), ["ping", "submit"], "the submit must go out exactly once");
    assert!(client.ping());
    assert!(client.status(1).is_err(), "the stand-in never answers a status");
    let seen = seen.lock().unwrap().clone();
    assert_eq!(seen, ["ping", "submit", "ping", "status", "status"], "resent once, no more");
}

/// A line longer than the cap is answered `line_too_long` and its
/// connection closed; a line of exactly the cap is served.
#[test]
fn an_overlong_request_line_is_refused_and_its_connection_closed() {
    let daemon = Daemon::start("linecap");
    // A ping padded with spaces to `len` bytes.
    let ping = |len: usize| format!("{{\"op\":\"ping\"}}{}", " ".repeat(len - 13));
    let mut conn = BufReader::new(TcpStream::connect(&daemon.addr).unwrap());
    conn.get_ref().set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    conn.get_mut().write_all(format!("{}\n", ping(MAX_REQUEST_LINE - 1)).as_bytes()).unwrap();
    let mut reply = String::new();
    conn.read_line(&mut reply).unwrap();
    assert!(ok(&Json::parse(reply.trim()).unwrap()), "{reply}");
    // One byte more, and no newline within the cap.
    conn.get_mut().write_all(ping(MAX_REQUEST_LINE).as_bytes()).unwrap();
    let mut rest = String::new();
    conn.read_to_string(&mut rest).unwrap();
    assert_eq!(rest, "{\"ok\":false,\"rejected\":true,\"reason\":\"line_too_long\"}\n");
    assert_eq!(daemon.service.counters().lines_too_long, 1);
    assert!(daemon.client().ping(), "the daemon serves other connections");
}

/// Past the cap of open connections a new one is answered `overloaded` and
/// closed; once one closes, the next is served again.
#[test]
fn connections_past_the_cap_are_refused_as_overloaded() {
    let daemon = Daemon::start("conncap");
    let mut held: Vec<BufReader<TcpStream>> = (0..MAX_CONNECTIONS)
        .map(|_| BufReader::new(TcpStream::connect(&daemon.addr).unwrap()))
        .collect();
    // Served: every held connection answers.
    for conn in held.iter_mut().step_by(16) {
        assert!(ok(&round_trip(conn, &obj([("op", Json::Str("ping".into()))]))));
    }
    let mut refused = TcpStream::connect(&daemon.addr).unwrap();
    refused.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reply = String::new();
    refused.read_to_string(&mut reply).unwrap();
    assert_eq!(reply, "{\"ok\":false,\"rejected\":true,\"reason\":\"overloaded\"}\n");
    let c = daemon.service.counters();
    assert_eq!(
        (c.connections_accepted, c.connections_open, c.connections_overloaded),
        (MAX_CONNECTIONS, MAX_CONNECTIONS, 1),
        "{c:?}"
    );
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(5);
    while daemon.service.counters().connections_open == MAX_CONNECTIONS {
        assert!(Instant::now() < deadline, "a closed connection still holds its place");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(daemon.client().ping(), "a freed place serves the next connection");
    drop(held);
}

/// A zoo cell the daemon cannot build is a `bad spec` naming the field,
/// and the connection that sent it stays usable. Each of these specs used
/// to panic the connection's thread, which the client read as an empty
/// response.
#[test]
fn unbuildable_zoo_cells_are_bad_specs_on_a_connection_that_stays_up() {
    let daemon = Daemon::start("zoocell");
    let client = daemon.client();
    for (spec, error) in [
        (r#"{"family":"fig2","n":64}"#, "bad spec: n must be in 1..=62 for family fig2 (got 64)"),
        (r#"{"family":"fig4","k":2147483648}"#, "bad spec: k too large for family fig4"),
        (r#"{"family":"fig4","k":500000}"#, "bad spec: k too large for family fig4"),
    ] {
        let reply = client.submit(Json::parse(spec).unwrap()).expect("an answer, not a panic");
        let got = reply.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(!ok(&reply) && got.starts_with(error), "{spec}: {reply}");
    }
    assert!(client.ping());
    let c = daemon.service.counters();
    assert_eq!((c.connections_accepted, c.accepted), (1, 0), "{c:?}");
}
