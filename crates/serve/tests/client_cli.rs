//! End-to-end tests of the `pobp-client` binary against an in-process
//! daemon: the server is embedded via [`pobp_serve::server::serve_listener`]
//! on port 0, and every assertion drives the real compiled binary
//! (`CARGO_BIN_EXE_pobp-client`), checking both the single-JSON-object
//! stdout contract and the documented exit codes
//! (0 ok, 1 usage/transport, 3 rejected, 4 failed/cancelled, 5 cert_failed).

use std::fs;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Arc;
use std::time::Duration;

use pobp_serve::json::Json;
use pobp_serve::server::serve_listener;
use pobp_serve::service::{Service, ServiceConfig};
use pobp_serve::Client;

const BIN: &str = env!("CARGO_BIN_EXE_pobp-client");

/// An embedded daemon on an OS-assigned port, stopped on drop.
struct TestDaemon {
    addr: String,
    dir: PathBuf,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestDaemon {
    fn start(tag: &str, workers: usize, queue_cap: usize) -> Self {
        let dir = std::env::temp_dir().join(format!("pobp-client-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let cfg = ServiceConfig {
            dir: dir.clone(),
            workers,
            queue_cap,
            engine_threads: 1,
            degrade: false,
            compact_every: 256,
            #[cfg(feature = "chaos")]
            chaos: None,
            #[cfg(feature = "instrument")]
            telemetry: pobp_serve::TelemetryOptions { sample_ms: 0, ..Default::default() },
        };
        let service = Arc::new(Service::start(cfg).unwrap());
        let handle = std::thread::spawn(move || serve_listener(listener, service));
        Self { addr, dir, handle: Some(handle) }
    }

    fn run(&self, args: &[&str]) -> Output {
        Command::new(BIN)
            .args(args)
            .args(["--addr", &self.addr])
            .output()
            .expect("spawn pobp-client")
    }
}

impl Drop for TestDaemon {
    fn drop(&mut self) {
        let client = Client::new(&self.addr, Duration::from_secs(5));
        let _ = client.shutdown(false);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Parses the single JSON object a subcommand printed to stdout.
fn stdout_json(out: &Output) -> Json {
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.trim();
    assert!(!line.contains('\n'), "expected exactly one stdout line, got: {text:?}");
    Json::parse(line).unwrap_or_else(|e| panic!("stdout is not JSON ({e:?}): {text:?}"))
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("client killed by signal")
}

#[test]
fn usage_errors_exit_1_and_name_the_flag() {
    // No arguments at all: usage on stderr, exit 1, nothing on stdout.
    let out = Command::new(BIN).output().unwrap();
    assert_eq!(code(&out), 1);
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
    // A flag missing its value is a loud error naming the flag.
    let out = Command::new(BIN).args(["submit", "--addr"]).output().unwrap();
    assert_eq!(code(&out), 1);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--addr"));
    // An unknown command is a usage error too.
    let out = Command::new(BIN).args(["frobnicate"]).output().unwrap();
    assert_eq!(code(&out), 1);
}

#[test]
fn transport_failure_exits_1() {
    // Nothing listens here: bind a port, then close it immediately.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let out = Command::new(BIN).args(["stats", "--addr", &dead]).output().unwrap();
    assert_eq!(code(&out), 1);
    assert!(String::from_utf8_lossy(&out.stderr).contains("transport error"));
    // `ping` reports the failure as JSON rather than an error message.
    let out = Command::new(BIN).args(["ping", "--addr", &dead]).output().unwrap();
    assert_eq!(code(&out), 1);
    assert_eq!(stdout_json(&out).get("ok").and_then(Json::as_bool), Some(false));
}

#[test]
fn submit_wait_round_trip_exits_by_outcome() {
    let daemon = TestDaemon::start("roundtrip", 1, 16);
    let out = daemon.run(&["ping"]);
    assert_eq!(code(&out), 0);

    // A quick certified job: exit 0, result carries the certified output.
    let out = daemon.run(&[
        "submit", "--alg", "reduction", "--n", "8", "--k", "1", "--seed", "3", "--wait",
    ]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let v = stdout_json(&out);
    assert_eq!(v.get("status").and_then(Json::as_str), Some("done"));
    let result = v.get("result").expect("result object");
    assert_eq!(result.get("certified").and_then(Json::as_bool), Some(true));
    assert!(result.get("alg_value").is_some());

    // The deliberately panicking algorithm: terminal `failed`, exit 4.
    let out = daemon.run(&["submit", "--alg", "panic", "--n", "8", "--wait"]);
    assert_eq!(code(&out), 4);
    assert_eq!(stdout_json(&out).get("status").and_then(Json::as_str), Some("failed"));

    // `status` and `result` read the finished job back.
    let out = daemon.run(&["status", "--id", "1"]);
    assert_eq!(code(&out), 0);
    let job = stdout_json(&out).get("job").cloned().expect("job object");
    assert_eq!(job.get("status").and_then(Json::as_str), Some("done"));
    let out = daemon.run(&["result", "--id", "1"]);
    assert_eq!(code(&out), 0);

    // `list` with a status filter sees exactly the failed job.
    let out = daemon.run(&["list", "--status", "failed"]);
    assert_eq!(code(&out), 0);
    let jobs = stdout_json(&out).get("jobs").cloned().expect("jobs array");
    match jobs {
        Json::Arr(items) => assert_eq!(items.len(), 1),
        other => panic!("jobs is not an array: {other}"),
    }

    // `stats` exposes the serve.* counter family.
    let out = daemon.run(&["stats"]);
    assert_eq!(code(&out), 0);
    let stats = stdout_json(&out).get("stats").cloned().expect("stats object");
    assert_eq!(stats.get("accepted").and_then(Json::as_u64), Some(2));
}

#[test]
fn saturation_rejection_exits_3_and_cancel_resolves_queued_jobs() {
    // No workers: everything queues, so saturation is deterministic.
    let daemon = TestDaemon::start("saturate", 0, 1);
    let out = daemon.run(&["submit", "--alg", "lsa", "--n", "10", "--k", "1"]);
    assert_eq!(code(&out), 0);
    let id = stdout_json(&out).get("id").and_then(Json::as_u64).unwrap();

    let out = daemon.run(&["submit", "--alg", "lsa", "--n", "11", "--k", "1"]);
    assert_eq!(code(&out), 3, "queue-full submission must exit 3");
    let v = stdout_json(&out);
    assert_eq!(v.get("rejected").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("reason").and_then(Json::as_str), Some("queue_full"));
    assert_eq!(v.get("queue_depth").and_then(Json::as_u64), Some(1));

    let out = daemon.run(&["cancel", "--id", &id.to_string()]);
    assert_eq!(code(&out), 0);
    // The cancelled job is terminal; fetching its result exits 4.
    let out = daemon.run(&["result", "--id", &id.to_string()]);
    assert_eq!(code(&out), 4);
    assert_eq!(
        stdout_json(&out).get("status").and_then(Json::as_str),
        Some("cancelled")
    );
}
