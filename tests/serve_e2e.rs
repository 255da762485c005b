//! Durability end-to-end through the real binaries: spawn `pobp serve` as a
//! subprocess, submit jobs over TCP, `SIGKILL` the daemon mid-flight, restart
//! it over the same registry directory, and assert every job's state and
//! cached result survive byte-identically. This is the `kill -9` contract of
//! docs/serve.md exercised exactly as an operator would hit it. The soak
//! harness (`pobp-client soak`) runs here too: once through a `kill -9` and
//! restart mid-conversation, once plain at four workers.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use pobp::serve::json::Json;
use pobp::serve::{run_soak, Client, SoakConfig};

const POBP: &str = env!("CARGO_BIN_EXE_pobp");

/// A `pobp serve` subprocess on an OS-assigned port, with the bound address
/// scraped from its first stdout line.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(dir: &PathBuf, extra: &[&str]) -> Self {
        Self::spawn_at("127.0.0.1:0", dir, extra)
    }

    /// A daemon bound to `addr`: a restart on the port a killed daemon used.
    fn spawn_at(addr: &str, dir: &PathBuf, extra: &[&str]) -> Self {
        let mut child = Command::new(POBP)
            .args(["serve", "--addr", addr, "--dir"])
            .arg(dir)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn pobp serve");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut lines = BufReader::new(stdout).lines();
        let first = lines.next().expect("daemon printed nothing").expect("read daemon stdout");
        let addr = first
            .strip_prefix("serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line: {first:?}"))
            .to_string();
        // Drain the rest of stdout on a side thread so the pipe never fills.
        std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        Self { child, addr }
    }

    fn client(&self) -> Client {
        Client::new(&self.addr, Duration::from_secs(10))
    }

    fn kill9(mut self) {
        self.child.kill().expect("kill daemon");
        self.child.wait().expect("reap daemon");
    }

    fn shutdown(self) {
        let _ = self.client().shutdown(true);
        self.exits_cleanly();
    }

    /// Waits for a daemon something else shut down.
    fn exits_cleanly(mut self) {
        let status = self.child.wait().expect("reap daemon");
        assert!(status.success(), "daemon exit status: {status:?}");
    }
}

/// A test that panics before `kill9`, `shutdown` or `exits_cleanly` still
/// kills and reaps its daemon, so no `pobp serve` outlives the test binary.
impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A soak with replay identity over `dir`: it shuts the daemon down at the
/// end and replays the directory.
fn soak(addr: &str, dir: &Path, seconds: u64, expect_restart: bool) -> SoakConfig {
    SoakConfig {
        addr: addr.to_string(),
        seconds,
        seed: 7,
        journal_dir: Some(dir.to_path_buf()),
        expect_restart,
    }
}

fn submit_and_wait(client: &Client, alg: &str, n: u64, seed: u64) -> u64 {
    let spec = Json::Obj(vec![
        ("alg".into(), Json::Str(alg.into())),
        ("n".into(), Json::Num(n as f64)),
        ("k".into(), Json::Num(1.0)),
        ("seed".into(), Json::Num(seed as f64)),
    ]);
    let resp = client.submit(spec).expect("submit");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    let id = resp.get("id").and_then(Json::as_u64).expect("id");
    for _ in 0..600 {
        let v = client.result(id).expect("result");
        if v.get("ok").and_then(Json::as_bool) == Some(true) {
            return id;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("job {id} did not finish");
}

fn result_line(client: &Client, id: u64) -> String {
    let v = client.result(id).expect("result");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
    v.to_string()
}

#[test]
fn kill9_restart_recovers_results_byte_identically() {
    let dir = std::env::temp_dir().join(format!("pobp-serve-e2e-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    // Boot, run a small mixed batch to completion, snapshot the responses.
    let daemon = Daemon::spawn(&dir, &["--workers", "2"]);
    let client = daemon.client();
    assert!(client.ping(), "daemon not answering");
    let ids: Vec<u64> = [("reduction", 8, 1), ("lsa", 12, 2), ("combined", 10, 3)]
        .iter()
        .map(|&(alg, n, seed)| submit_and_wait(&client, alg, n, seed))
        .collect();
    let before: Vec<String> = ids.iter().map(|&id| result_line(&client, id)).collect();
    daemon.kill9();

    // Restart over the same directory: every record must replay exactly,
    // including across a different engine parallelism.
    for workers in ["1", "4"] {
        let daemon = Daemon::spawn(&dir, &["--workers", workers]);
        let client = daemon.client();
        let after: Vec<String> = ids.iter().map(|&id| result_line(&client, id)).collect();
        assert_eq!(after, before, "results changed across restart (workers={workers})");
        daemon.kill9();
    }

    // Resubmitting an already-solved cell after restart is served from the
    // durable registry: terminal immediately, counted as a cache hit.
    let daemon = Daemon::spawn(&dir, &["--workers", "1"]);
    let client = daemon.client();
    let resp = client
        .submit(Json::Obj(vec![
            ("alg".into(), Json::Str("reduction".into())),
            ("n".into(), Json::Num(8.0)),
            ("k".into(), Json::Num(1.0)),
            ("seed".into(), Json::Num(1.0)),
        ]))
        .expect("resubmit");
    assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(true), "{resp}");
    let stats = client.stats().expect("stats");
    let hits = stats
        .get("stats")
        .and_then(|s| s.get("cache_hits"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(hits >= 1, "expected a cache hit, stats: {stats}");

    // A clean shutdown drains and exits 0 — and the registry survives that
    // too (final compaction writes the snapshot).
    daemon.shutdown();
    let (registry, _, _) = pobp::serve::replay_dir(&dir).expect("replay after shutdown");
    assert_eq!(registry.len(), ids.len() + 1);
    fs::remove_dir_all(&dir).ok();
}

/// The drill `--expect-restart` exists for: the daemon is `kill -9`ed
/// mid-soak and restarted on the same port over the same directory. The
/// soak rides through on transport errors and still finds no lost
/// acknowledged job, no uncertified result, and a journal that replays to
/// what the restarted daemon served.
#[test]
fn soak_survives_a_kill9_and_restart_mid_conversation() {
    let dir = std::env::temp_dir().join(format!("pobp-serve-e2e-soak-kill-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let daemon = Daemon::spawn(&dir, &["--workers", "2"]);
    let addr = daemon.addr.clone();
    let cfg = soak(&addr, &dir, 4, true);
    let soaking = std::thread::spawn(move || run_soak(&cfg));
    std::thread::sleep(Duration::from_millis(1500));
    daemon.kill9();
    let restarted = Daemon::spawn_at(&addr, &dir, &["--workers", "2"]);
    let report = soaking.join().expect("soak thread").unwrap_or_else(|e| panic!("soak: {e}"));
    restarted.exits_cleanly();
    assert!(report.transport_errors >= 1, "the kill went unnoticed: {}", report.to_json());
    assert!(report.submitted > 0 && report.done > 0, "{}", report.to_json());
    fs::remove_dir_all(&dir).ok();
}

/// A short soak at four workers holds the registry invariants, replay
/// identity included, without a single transport error.
#[test]
fn short_soak_at_four_workers_holds_the_registry_invariants() {
    let dir = std::env::temp_dir().join(format!("pobp-serve-e2e-soak-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let daemon = Daemon::spawn(&dir, &["--workers", "4"]);
    let report = run_soak(&soak(&daemon.addr, &dir, 5, false)).unwrap_or_else(|e| panic!("{e}"));
    daemon.exits_cleanly();
    assert_eq!(report.transport_errors, 0, "{}", report.to_json());
    assert!(report.submitted > 0 && report.done > 0, "{}", report.to_json());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_flag_errors_are_loud() {
    // A flag missing its value must name the flag and exit nonzero without
    // ever binding a socket.
    let out = Command::new(POBP).args(["serve", "--addr"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--addr"));
    let out = Command::new(POBP)
        .args(["serve", "--workers", "ten", "--addr", "127.0.0.1:0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workers"));
}

/// With `--metrics-addr` the daemon prints a third startup line, after the
/// two that scripts key on, and the address it names serves the scrape.
#[test]
fn metrics_addr_adds_a_third_startup_line_that_serves_scrapes() {
    use std::io::{Read, Write};
    let dir = std::env::temp_dir().join(format!("pobp-serve-e2e-metrics-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut child = Command::new(POBP)
        .args(["serve", "--addr", "127.0.0.1:0", "--metrics-addr", "127.0.0.1:0", "--dir"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pobp serve");
    let mut lines = BufReader::new(child.stdout.take().expect("daemon stdout")).lines();
    let mut next = || lines.next().expect("too few startup lines").expect("read daemon stdout");
    let first = next();
    let addr = first.strip_prefix("serve: listening on ").expect("first line").to_string();
    let second = next();
    assert!(second.starts_with("serve: recovered "), "{second:?}");
    let third = next();
    let metrics = third.strip_prefix("serve: metrics on ").unwrap_or_else(|| panic!("{third:?}"));
    let mut scrape = std::net::TcpStream::connect(metrics).expect("connect to the scrape address");
    scrape.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
    let mut reply = String::new();
    scrape.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
    assert!(reply.contains("\npobp_serve_up 1\n"), "{reply}");
    let _ = Client::new(&addr, Duration::from_secs(10)).shutdown(true);
    assert!(child.wait().expect("reap daemon").success());
    fs::remove_dir_all(&dir).ok();
}

/// A scrape address that is taken stops the daemon before recovery: exit
/// 1 with the error named, no `serve:` line on stdout (a script keyed on
/// the first line never talks to a daemon that is already exiting), and
/// no registry directory written.
#[test]
fn taken_metrics_addr_stops_the_daemon_before_it_touches_the_registry() {
    let dir = std::env::temp_dir().join(format!("pobp-serve-e2e-taken-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let held = std::net::TcpListener::bind("127.0.0.1:0").expect("hold a port");
    let taken = held.local_addr().unwrap().to_string();
    let mut child = Command::new(POBP)
        .args(["serve", "--addr", "127.0.0.1:0", "--metrics-addr", &taken, "--dir"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pobp serve");
    // A daemon that bound the port anyway would serve forever.
    let started = std::time::Instant::now();
    while child.try_wait().expect("poll pobp serve").is_none() {
        if started.elapsed() > Duration::from_secs(30) {
            let _ = child.kill();
            let _ = child.wait();
            let _ = fs::remove_dir_all(&dir);
            panic!("pobp serve kept running with its scrape port taken");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect pobp serve output");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stderr.contains("serve: ") && stderr.contains("in use"), "{stderr}");
    assert!(!stdout.contains("serve:"), "no startup line may be printed: {stdout}");
    let created = dir.exists();
    let _ = fs::remove_dir_all(&dir);
    assert!(!created, "the registry directory was created: {}", dir.display());
    drop(held);
}

/// `serve --flight-dir` runs in every build: the daemon keeps the flight
/// ring armed for its life, and the `dump-flight` op writes the ring, which
/// holds the job it just ran, as Chrome trace-event JSON.
#[test]
fn flight_dir_dumps_the_ring_on_request() {
    let dir = std::env::temp_dir().join(format!("pobp-serve-e2e-flight-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let flights = dir.join("flights");
    let daemon =
        Daemon::spawn(&dir.join("registry"), &["--flight-dir", flights.to_str().unwrap()]);
    let client = daemon.client();
    submit_and_wait(&client, "reduction", 12, 1);
    let reply = client.dump_flight().expect("dump-flight");
    let path = reply.get("path").and_then(Json::as_str).unwrap_or_else(|| panic!("{reply}"));
    assert!(Path::new(path).starts_with(&flights), "{path}");
    let dump = Json::parse(&fs::read_to_string(path).unwrap()).expect("the dump is JSON");
    let events = dump.get("traceEvents").and_then(Json::as_arr).expect("a traceEvents array");
    let named =
        |name: &str| events.iter().any(|e| e.get("name").and_then(Json::as_str) == Some(name));
    assert!(named("serve.job") && named("task.enqueue"), "{dump}");
    daemon.shutdown();
    fs::remove_dir_all(&dir).ok();
}
