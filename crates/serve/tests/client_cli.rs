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
        let cfg = ServiceConfig { workers, queue_cap, compact_every: 256, ..Default::default() };
        Self::start_with(tag, cfg).0
    }

    /// A daemon on `cfg` (its `dir` replaced by a fresh temporary one), and
    /// the service it runs.
    fn start_with(tag: &str, cfg: ServiceConfig) -> (Self, Arc<Service>) {
        let dir =
            std::env::temp_dir().join(format!("pobp-client-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let service = Arc::new(Service::start(ServiceConfig { dir: dir.clone(), ..cfg }).unwrap());
        let served = Arc::clone(&service);
        let handle = std::thread::spawn(move || serve_listener(listener, served));
        (Self { addr, dir, handle: Some(handle) }, service)
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
fn unknown_flags_are_usage_errors_and_submit_nothing() {
    let daemon = TestDaemon::start("unknownflag", 1, 16);
    let out = daemon.run(&["submit", "--alg", "lsa", "--nn", "12", "--wait"]);
    assert_eq!(code(&out), 1);
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --nn"), "{err}");
    let out = daemon.run(&["stats"]);
    let stats = stdout_json(&out).get("stats").cloned().expect("stats object");
    assert_eq!(stats.get("accepted").and_then(Json::as_u64), Some(0), "{stats}");
}

#[test]
fn repeated_flags_and_stray_arguments_are_usage_errors_and_submit_nothing() {
    let daemon = TestDaemon::start("strayarg", 1, 16);
    for (args, named) in [
        (&["submit", "--alg", "lsa", "--n", "12", "--n", "14", "--wait"][..], "repeated flag --n"),
        (&["submit", "--alg", "lsa", "--n", "12", "stray", "--wait"][..], "unexpected argument"),
        (&["submit", "--wait", "yes", "--alg", "lsa"][..], "unexpected argument \"yes\""),
    ] {
        let out = daemon.run(args);
        assert_eq!(code(&out), 1, "{args:?}");
        assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{args:?}: {err}");
    }
    let out = daemon.run(&["stats"]);
    let stats = stdout_json(&out).get("stats").cloned().expect("stats object");
    assert_eq!(stats.get("accepted").and_then(Json::as_u64), Some(0), "{stats}");
}

/// `pobp-client` reads neither `--obs` nor `--obs-out`, so it refuses both
/// as unknown flags before connecting, and writes no report.
#[test]
fn obs_flags_are_unknown_flags_of_the_client() {
    let report = std::env::temp_dir().join(format!("pobp-client-obs-{}.json", std::process::id()));
    let path = report.to_str().unwrap();
    for (args, named) in [
        (&["ping", "--obs"][..], "unknown flag --obs"),
        (&["ping", "--obs-out", path][..], "unknown flag --obs-out"),
        (&["stats", "--obs-out", path, "--obs"][..], "unknown flag --obs-out"),
    ] {
        let out = Command::new(BIN).args(args).args(["--addr", "127.0.0.1:9"]).output().unwrap();
        assert_eq!(code(&out), 1, "{args:?}");
        assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{args:?}: {err}");
    }
    assert!(!report.exists(), "no report may be written");
}

/// A zoo cell the daemon cannot build is refused by name: exit 1, the
/// daemon's `bad spec` on stdout, nothing admitted.
#[test]
fn unbuildable_zoo_cells_exit_1_with_the_field_named() {
    let daemon = TestDaemon::start("zoocell", 1, 16);
    for (args, named) in [
        (&["submit", "--family", "fig2", "--n", "64"][..], "n must be in 1..=62"),
        (&["submit", "--family", "fig4", "--k", "2147483648"][..], "k too large for family fig4"),
    ] {
        let out = daemon.run(args);
        assert_eq!(code(&out), 1, "{args:?}");
        let reply = stdout_json(&out);
        let error = reply.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(error.starts_with("bad spec: ") && error.contains(named), "{args:?}: {reply}");
    }
    let out = daemon.run(&["stats"]);
    let stats = stdout_json(&out).get("stats").cloned().expect("stats object");
    assert_eq!(stats.get("accepted").and_then(Json::as_u64), Some(0), "{stats}");
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

/// The Prometheus families a scrape serves: cumulative counters and levels
/// only, no rate or ratio gauges.
const FAMILIES: [&str; 18] = [
    "pobp_serve_cache_hits_total",
    "pobp_serve_connections_accepted_total",
    "pobp_serve_connections_capped_total",
    "pobp_serve_connections_open",
    "pobp_serve_job_latency_count",
    "pobp_serve_job_latency_ms",
    "pobp_serve_jobs",
    "pobp_serve_jobs_accepted_total",
    "pobp_serve_jobs_done_by_alg_total",
    "pobp_serve_jobs_finished_total",
    "pobp_serve_jobs_rejected_total",
    "pobp_serve_journal_bytes",
    "pobp_serve_journal_poisoned",
    "pobp_serve_queue_cap",
    "pobp_serve_queue_depth",
    "pobp_serve_running",
    "pobp_serve_up",
    "pobp_serve_uptime_seconds",
];

/// After 4 reduction jobs and 1 lsa job, a scrape pairs `# HELP`/`# TYPE`
/// per family, every value parses, and the counters read the traffic;
/// `top` then renders two frames.
#[test]
fn scrape_and_top_read_the_daemon_after_scripted_jobs() {
    use std::collections::{BTreeMap, BTreeSet};
    use std::io::{Read, Write};
    let cfg = ServiceConfig { workers: 2, ..Default::default() };
    let (daemon, service) = TestDaemon::start_with("scrape", cfg);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let metrics = pobp_serve::spawn_metrics_listener(listener, service).unwrap();
    let jobs = [("reduction", "1"), ("reduction", "2"), ("reduction", "3"), ("reduction", "4")];
    for (alg, seed) in jobs.into_iter().chain([("lsa", "1")]) {
        let submit = ["submit", "--alg", alg, "--n", "12", "--k", "1", "--seed", seed, "--wait"];
        let out = daemon.run(&submit);
        assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    }

    let mut scrape = std::net::TcpStream::connect(metrics).unwrap();
    scrape.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
    let mut reply = String::new();
    scrape.read_to_string(&mut reply).unwrap();
    let (head, body) = reply.split_once("\r\n\r\n").expect("an HTTP response");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    let (mut helps, mut types) = (BTreeSet::new(), BTreeSet::new());
    let mut samples = BTreeMap::new();
    for line in body.lines().filter(|l| !l.is_empty()) {
        let family = |rest: &str| rest.split(' ').next().unwrap_or_default().to_string();
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helps.insert(family(rest));
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            types.insert(family(rest));
        } else {
            let (series, value) = line.rsplit_once(' ').expect("a sample line has a value");
            let value: f64 = value.parse().unwrap_or_else(|e| panic!("{line:?}: {e}"));
            samples.insert(series.to_string(), value);
        }
    }
    assert!(!helps.is_empty() && helps == types, "HELP/TYPE must pair per family:\n{body}");
    assert_eq!(samples["pobp_serve_up"], 1.0);
    assert_eq!(samples["pobp_serve_jobs_accepted_total"], 5.0);
    assert_eq!(samples[r#"pobp_serve_jobs_done_by_alg_total{alg="reduction"}"#], 4.0);
    assert_eq!(samples[r#"pobp_serve_jobs_done_by_alg_total{alg="lsa"}"#], 1.0);
    // One connection per `pobp-client` run: five submits, the `--wait`
    // polls riding on each one's connection.
    assert_eq!(samples["pobp_serve_connections_accepted_total"], 5.0);
    for cap in ["line_too_long", "idle", "overloaded"] {
        let series = format!("pobp_serve_connections_capped_total{{cap=\"{cap}\"}}");
        assert_eq!(samples.get(&series), Some(&0.0), "{series}:\n{body}");
    }
    for q in ["0.5", "0.9", "0.99"] {
        let series = format!("pobp_serve_job_latency_ms{{quantile=\"{q}\"}}");
        assert!(samples.get(&series).is_some_and(|v| *v >= 0.0), "{series} missing:\n{body}");
    }
    // Counters and levels only: no per-second or ratio gauge.
    assert_eq!(helps.iter().map(String::as_str).collect::<Vec<_>>(), FAMILIES, "{body}");

    let out = daemon.run(&["top", "--count", "2", "--interval-ms", "50"]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    for head in ["queue", "rates", "ratios", "latency", "per-alg", "  reduction", "  lsa"] {
        let frames = text.lines().filter(|l| l.starts_with(head)).count();
        assert_eq!(frames, 2, "two frames of {head:?}:\n{text}");
    }
}

/// A chaos plan that corrupts every reference forces a `cert_failed` job
/// (exit 5) through the daemon; it and an explicit `dump-flight` each leave
/// a flight dump of Chrome trace events.
#[test]
fn chaos_cert_failure_leaves_loadable_flight_dumps() {
    let flights =
        std::env::temp_dir().join(format!("pobp-client-cli-flights-{}", std::process::id()));
    let _ = fs::remove_dir_all(&flights);
    let plan = pobp_engine::FaultPlan::parse("corrupt-ref:1", 7).unwrap();
    let cfg = ServiceConfig {
        workers: 1,
        chaos: Some(Arc::new(plan)),
        telemetry: pobp_serve::TelemetryOptions {
            flight_dir: Some(flights.clone()),
            ..Default::default()
        },
        ..Default::default()
    };
    let (daemon, _) = TestDaemon::start_with("flight", cfg);
    let out = daemon.run(&[
        "submit", "--alg", "reduction", "--n", "12", "--k", "1", "--seed", "9", "--wait",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(code(&out), 5, "the cert_failed exit code; stdout: {stdout}");
    let out = daemon.run(&["dump-flight"]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(stdout_json(&out).get("ok").and_then(Json::as_bool), Some(true));
    drop(daemon);

    let names: Vec<String> = fs::read_dir(&flights)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    for reason in ["cert-failed", "manual"] {
        let suffix = format!("-{reason}.json");
        let dumped = names.iter().any(|n| n.starts_with("flight-") && n.ends_with(&suffix));
        assert!(dumped, "no {reason} dump among {names:?}");
    }
    for name in &names {
        let text = fs::read_to_string(flights.join(name)).unwrap();
        let dump = Json::parse(&text).unwrap_or_else(|e| panic!("{name} is not JSON: {e:?}"));
        let Some(Json::Arr(events)) = dump.get("traceEvents") else {
            panic!("{name} has no traceEvents array")
        };
        assert!(!events.is_empty(), "empty flight dump {name}");
        for event in events {
            let ph = event.get("ph").and_then(Json::as_str);
            assert!(matches!(ph, Some("B" | "E" | "i")), "{name}: event phase {ph:?}");
        }
    }
    fs::remove_dir_all(&flights).ok();
}
