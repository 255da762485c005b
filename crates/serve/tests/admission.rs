//! Admission control and queue semantics, tested deterministically: a
//! service started with `workers: 0` accepts and queues but never runs, so
//! the queue-full boundary, cancel-while-queued, and the recovery requeue
//! are exact — no timing. A second service over the same directory (with a
//! worker) then drains the backlog, and the journal's `start` records give
//! the exact claim order for the priority assertion. Two one-worker tests
//! check that a queued job's worker is woken on both admission paths: in
//! process, and over TCP after the ack is written. A third cancels a job
//! while it runs.

use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pobp_engine::Algo;
use pobp_serve::job::MAX_JOB_N;
use pobp_serve::json::Json;
use pobp_serve::service::{CancelOutcome, Service, ServiceConfig, SubmitOutcome};
use pobp_serve::{replay_dir, JobRecord, JobSpec, JobStatus};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pobp-serve-adm-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cfg(dir: &Path, workers: usize, queue_cap: usize) -> ServiceConfig {
    ServiceConfig {
        dir: dir.to_path_buf(),
        workers,
        queue_cap,
        compact_every: 10_000,
        ..ServiceConfig::default()
    }
}

/// A quick job with a distinguishing seed and priority.
fn spec(seed: u64, priority: i64) -> JobSpec {
    let mut s = JobSpec::cell(Algo::Reduction, 8, 1, seed);
    s.priority = priority;
    s.name = format!("adm-{seed}");
    s
}

fn accepted_id(outcome: SubmitOutcome) -> u64 {
    match outcome {
        SubmitOutcome::Accepted { id, status: JobStatus::Queued, cached: false, .. } => id,
        other => panic!("expected a queued acceptance, got {other:?}"),
    }
}

/// Ids of `start` records in journal order — the exact sequence in which
/// workers claimed jobs.
fn start_order(dir: &Path) -> Vec<u64> {
    let text = fs::read_to_string(dir.join("journal.jsonl")).unwrap();
    text.lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|v| v.get("ev").and_then(Json::as_str) == Some("start"))
        .filter_map(|v| v.get("id").and_then(Json::as_u64))
        .collect()
}

#[test]
fn queue_full_boundary_is_exact_at_capacity() {
    let dir = tmpdir("boundary");
    let service = Service::start(cfg(&dir, 0, 3)).unwrap();
    // Exactly `capacity` jobs are admitted…
    for seed in 0..3 {
        accepted_id(service.submit(spec(seed, 0)).unwrap());
    }
    // …and job capacity+1 gets the structured rejection with the depth.
    match service.submit(spec(99, 0)).unwrap() {
        SubmitOutcome::Rejected { reason, queue_depth } => {
            assert_eq!(reason, "queue_full");
            assert_eq!(queue_depth, 3);
        }
        other => panic!("expected queue_full, got {other:?}"),
    }
    // Rejections are not journalled and allocate no id: freeing one slot
    // admits the next submission with a contiguous id.
    assert_eq!(service.cancel(1), CancelOutcome::CancelledQueued);
    assert_eq!(accepted_id(service.submit(spec(4, 0)).unwrap()), 4);
    let c = service.counters();
    assert_eq!((c.accepted, c.rejected, c.cancelled), (4, 1, 1));
    service.stop(false);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn saturated_queue_drains_in_priority_order_and_cancelled_jobs_never_run() {
    let dir = tmpdir("priority");
    // Phase 1: saturate a worker-less service so the whole backlog is
    // queued at once, with mixed priorities and one cancellation.
    {
        let service = Service::start(cfg(&dir, 0, 8)).unwrap();
        let low = accepted_id(service.submit(spec(0, 1)).unwrap()); // id 1
        accepted_id(service.submit(spec(1, 5)).unwrap()); // id 2, highest
        accepted_id(service.submit(spec(2, 3)).unwrap()); // id 3
        accepted_id(service.submit(spec(3, 3)).unwrap()); // id 4, ties FIFO with 3
        assert_eq!(service.cancel(low), CancelOutcome::CancelledQueued);
        assert_eq!(service.cancel(low), CancelOutcome::AlreadyTerminal(JobStatus::Cancelled));
        assert_eq!(service.cancel(77), CancelOutcome::NotFound);
        service.stop(false);
    }
    // Phase 2: a restart recovers the backlog (minus the cancelled job)
    // and a single worker drains it strictly by (priority desc, id asc).
    let service = Service::start(cfg(&dir, 1, 8)).unwrap();
    assert_eq!(service.counters().requeued, 3, "cancelled job must not be requeued");
    assert!(service.quiesce(Duration::from_secs(60)), "backlog did not drain");
    assert_eq!(start_order(&dir), vec![2, 3, 4], "claims must follow priority then FIFO");
    for id in [2, 3, 4] {
        let job = service.job(id).unwrap();
        assert_eq!(job.status, JobStatus::Done, "job {id}");
        assert!(job.result.is_some());
    }
    // The cancelled job never reached an engine: terminal, and no result
    // was ever journalled for it (engine runs always journal one).
    let job = service.job(1).unwrap();
    assert_eq!(job.status, JobStatus::Cancelled);
    assert!(job.result.is_none(), "cancelled-while-queued job must never produce a result");
    service.stop(true);
    fs::remove_dir_all(&dir).ok();
}

/// Waits until job `id` exists and is terminal; its status, or `None` on
/// timeout.
fn wait_terminal(service: &Service, id: u64, timeout: Duration) -> Option<JobStatus> {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        match service.job(id) {
            Some(job) if job.status.is_terminal() => return Some(job.status),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    None
}

/// Long enough for a freshly started worker to find the queue empty and
/// wait on it: after this pause only a wake can start a job. The wake
/// tests pass without it; it is what makes a lost wake fail them, since a
/// submit that beats the worker to its first queue check needs no wake.
const WORKER_IDLE: Duration = Duration::from_millis(200);

/// An in-process `submit` wakes the job's worker before it returns.
#[test]
fn in_process_submit_wakes_its_worker() {
    let dir = tmpdir("wake-inproc");
    let service = Service::start(cfg(&dir, 1, 8)).unwrap();
    std::thread::sleep(WORKER_IDLE);
    let id = accepted_id(service.submit(spec(3, 0)).unwrap());
    assert!(service.quiesce(Duration::from_secs(20)), "the queued job never ran");
    assert_eq!(service.job(id).unwrap().status, JobStatus::Done);
    service.stop(true);
    fs::remove_dir_all(&dir).ok();
}

/// Over TCP the worker is woken once the ack is written, and a client that
/// hangs up without reading its ack does not strand the job.
#[test]
fn tcp_submit_from_a_client_that_hangs_up_still_runs() {
    use std::io::Write;
    let dir = tmpdir("wake-tcp");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let service = std::sync::Arc::new(Service::start(cfg(&dir, 1, 8)).unwrap());
    let daemon = {
        let service = std::sync::Arc::clone(&service);
        std::thread::spawn(move || pobp_serve::server::serve_listener(listener, service))
    };
    std::thread::sleep(WORKER_IDLE);
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    let request =
        pobp_serve::json::obj([("op", Json::Str("submit".into())), ("spec", spec(5, 0).to_json())]);
    raw.write_all(format!("{request}\n").as_bytes()).unwrap();
    drop(raw);
    assert_eq!(wait_terminal(&service, 1, Duration::from_secs(20)), Some(JobStatus::Done));
    let client = pobp_serve::Client::new(&addr, Duration::from_secs(5));
    client.shutdown(true).unwrap();
    daemon.join().unwrap().unwrap();
    fs::remove_dir_all(&dir).ok();
}

/// A running job is stopped through its engine: `cancel` signals the
/// engine with `cancel_all`, the engine stops the task at its next stage
/// boundary, and the worker journals the cancelled result.
#[test]
fn cancelling_a_running_job_stops_its_engine() {
    let dir = tmpdir("cancel-running");
    let service = Service::start(cfg(&dir, 1, 8)).unwrap();
    // The largest job admission takes: building its instance and its
    // reference keeps the job short of its first stage boundary long after
    // the cancel lands.
    let id = accepted_id(service.submit(JobSpec::cell(Algo::Reduction, MAX_JOB_N, 1, 0)).unwrap());
    let deadline = Instant::now() + Duration::from_secs(20);
    while service.job(id).map(|j| j.status) != Some(JobStatus::Running) {
        assert!(Instant::now() < deadline, "the job never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(service.cancel(id), CancelOutcome::SignalledRunning);
    assert_eq!(wait_terminal(&service, id, Duration::from_secs(60)), Some(JobStatus::Cancelled));
    assert_eq!(service.counters().cancelled, 1);
    let (replayed, _, _) = replay_dir(&dir).unwrap();
    assert_eq!(replayed.get(id).map(|j| j.status), Some(JobStatus::Cancelled));
    service.stop(true);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn stopping_service_rejects_new_submissions() {
    let dir = tmpdir("stopping");
    let service = Service::start(cfg(&dir, 1, 8)).unwrap();
    service.stop(true);
    match service.submit(spec(0, 0)).unwrap() {
        SubmitOutcome::Rejected { reason, .. } => assert_eq!(reason, "shutting_down"),
        other => panic!("expected shutting_down, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn equal_keyed_submissions_share_one_result() {
    let dir = tmpdir("cachehit");
    let service = Service::start(cfg(&dir, 1, 8)).unwrap();
    let first = accepted_id(service.submit(spec(7, 0)).unwrap());
    assert!(service.quiesce(Duration::from_secs(60)));
    // Same cell, different name/priority: served from the finished job,
    // already terminal at acknowledgement, byte-identical result.
    let mut dup = spec(7, 0);
    dup.name = "other-name".into();
    dup.priority = -4;
    match service.submit(dup).unwrap() {
        SubmitOutcome::Accepted { id, status, cached, .. } => {
            assert!(cached);
            assert_eq!(status, JobStatus::Done);
            let a = service.job(first).unwrap().result.unwrap().to_string();
            let b = service.job(id).unwrap().result.unwrap().to_string();
            assert_eq!(a, b);
        }
        other => panic!("expected cached acceptance, got {other:?}"),
    }
    assert_eq!(service.counters().cache_hits, 1);
    service.stop(true);
    fs::remove_dir_all(&dir).ok();
}

/// Every record carries its spec's content key, whichever way it was made:
/// admission (handing over the key it computed before the lock), a
/// cache-served admission, journal replay, and snapshot load. Replies
/// print that key.
#[test]
fn records_carry_their_content_key_from_admission_replay_and_snapshot() {
    let dir = tmpdir("keys");
    let mut online = JobSpec::cell(Algo::OnlineDjn, 12, 2, 3);
    online.family = Some(pobp_instances::ZooFamily::Fig4);
    let specs = [spec(0, 0), spec(1, 2), online, spec(0, 5)];
    let check = |jobs: Vec<JobRecord>, how: &str| {
        assert_eq!(jobs.len(), specs.len(), "{how}");
        for job in &jobs {
            assert_eq!(job.key, job.spec.content_key(), "{how}: job {}", job.id);
            let hex = format!("{:016x}", job.key);
            assert_eq!(job.to_json().get("key").and_then(Json::as_str), Some(&*hex), "{how}");
        }
    };
    let service = Service::start(cfg(&dir, 1, 8)).unwrap();
    let first = accepted_id(service.submit(specs[0].clone()).unwrap());
    assert!(service.quiesce(Duration::from_secs(60)));
    for spec in &specs[1..] {
        service.submit(spec.clone()).unwrap();
    }
    assert!(service.quiesce(Duration::from_secs(60)));
    assert_eq!(service.counters().cache_hits, 1, "the last spec repeats the first");
    assert_eq!(service.job(4).unwrap().key, service.job(first).unwrap().key);
    check(service.list(None, 100), "admission");
    // Nothing has compacted yet: the records come from the journal.
    let (replayed, _, report) = replay_dir(&dir).unwrap();
    assert_eq!(report.snapshot_seq, 0);
    check(replayed.iter().cloned().collect(), "journal replay");
    service.stop(true);
    // The final compaction wrote a snapshot and truncated the journal.
    let (loaded, _, report) = replay_dir(&dir).unwrap();
    assert_eq!(report.replayed, 0, "everything comes from the snapshot");
    check(loaded.iter().cloned().collect(), "snapshot load");
    fs::remove_dir_all(&dir).ok();
}

/// Reads a numeric field, treating a missing field as a loud NaN mismatch.
fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Field-by-field contract for the `stats` payload after a scripted
/// submit/reject/cancel sequence on a worker-less service: every depth and
/// counter is exact because nothing ever runs. It is one reading of the
/// daemon's state, and carries no rates (a reader derives those over its
/// own interval).
#[test]
fn stats_json_fields_are_exact_after_scripted_traffic() {
    let dir = tmpdir("statsjson");
    let service = Service::start(cfg(&dir, 0, 2)).unwrap();
    accepted_id(service.submit(spec(0, 0)).unwrap()); // id 1, stays queued
    let second = accepted_id(service.submit(spec(1, 0)).unwrap()); // id 2
    assert!(matches!(service.submit(spec(9, 0)).unwrap(), SubmitOutcome::Rejected { .. }));
    assert_eq!(service.cancel(second), CancelOutcome::CancelledQueued);
    let stats = service.stats_json();
    let Json::Obj(fields) = &stats else { panic!("stats must be an object: {stats}") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "jobs",
            "queued",
            "running",
            "queue_cap",
            "accepted",
            "rejected",
            "cache_hits",
            "done",
            "degraded",
            "failed",
            "cancelled",
            "connections_accepted",
            "connections_open",
            "connections_overloaded",
            "connections_idle_closed",
            "lines_too_long",
            "journal_seq",
            "compactions",
            "journal_bytes",
            "journal_poisoned",
            "recovery",
            "uptime_ms",
            "requeued",
            "latency_ms",
            "per_alg",
        ],
        "earlier keys keep their places; the telemetry keys come after them"
    );
    for (key, want) in [
        ("jobs", 2.0),
        ("queued", 1.0),
        ("running", 0.0),
        ("queue_cap", 2.0),
        ("accepted", 2.0),
        ("rejected", 1.0),
        ("cache_hits", 0.0),
        ("done", 0.0),
        ("degraded", 0.0),
        ("failed", 0.0),
        ("cancelled", 1.0),
        // Two submit records plus one cancel record; the rejection is
        // never journalled.
        ("journal_seq", 3.0),
        ("compactions", 0.0),
        ("requeued", 0.0),
    ] {
        assert_eq!(num(&stats, key), want, "stats field {key:?}");
    }
    assert!(num(&stats, "journal_bytes") > 0.0, "three journalled records have bytes");
    assert_eq!(stats.get("journal_poisoned").and_then(Json::as_bool), Some(false));
    let recovery = stats.get("recovery").expect("stats must embed the recovery report");
    assert_eq!(num(recovery, "replayed"), 0.0, "fresh directory replays nothing");
    assert_eq!(recovery.get("dropped_tail").and_then(Json::as_bool), Some(false));
    assert!(num(&stats, "uptime_ms") >= 0.0, "stats must carry uptime_ms");
    // Nothing ran: no latency observations, no per-alg rows.
    assert_eq!(num(stats.get("latency_ms").unwrap(), "count"), 0.0);
    assert!(matches!(stats.get("per_alg"), Some(Json::Obj(algs)) if algs.is_empty()));
    service.stop(false);
    fs::remove_dir_all(&dir).ok();
}

/// After a worker actually finishes jobs, the `stats` payload carries the
/// latency histogram, the per-algorithm breakdown, and a cache-hit counter:
/// the engine run counts once, the cache hit not at all.
#[test]
fn stats_json_tracks_finished_jobs_and_cache_hits() {
    let dir = tmpdir("statsdone");
    let service = Service::start(cfg(&dir, 1, 8)).unwrap();
    accepted_id(service.submit(spec(5, 0)).unwrap());
    assert!(service.quiesce(Duration::from_secs(60)));
    let mut dup = spec(5, 0);
    dup.name = "dup".into();
    assert!(matches!(
        service.submit(dup).unwrap(),
        SubmitOutcome::Accepted { cached: true, .. }
    ));
    let stats = service.stats_json();
    // The cached acceptance reaches `Done` too, so the counter says 2 —
    // but only the real engine run shows up in latency and per-alg below.
    assert_eq!(num(&stats, "done"), 2.0);
    assert_eq!(num(&stats, "cache_hits"), 1.0);
    let latency = stats.get("latency_ms").unwrap();
    assert_eq!(num(latency, "count"), 1.0, "one engine run was timed");
    assert!(num(latency, "p50") > 0.0 && num(latency, "p50") <= num(latency, "p99"));
    let Some(Json::Obj(algs)) = stats.get("per_alg") else { panic!("per_alg must be an object") };
    assert_eq!(algs.len(), 1, "exactly one algorithm finished jobs");
    assert_eq!(algs[0].0, "reduction");
    assert_eq!(num(&algs[0].1, "done"), 1.0, "the cache hit must not double-count");
    service.stop(true);
    fs::remove_dir_all(&dir).ok();
}

/// A restarted daemon numbers its flight dumps after the ones already in
/// the directory instead of overwriting them.
#[test]
fn restarted_daemon_keeps_earlier_flight_dumps() {
    let dir = tmpdir("flightrestart");
    let flights = dir.join("flights");
    for _ in 0..2 {
        let mut c = cfg(&dir.join("registry"), 0, 4);
        c.telemetry.flight_dir = Some(flights.clone());
        let service = Service::start(c).unwrap();
        service.dump_flight("manual").unwrap().expect("a flight directory is configured");
        service.stop(false);
    }
    assert_eq!(fs::read_dir(&flights).unwrap().count(), 2);
    assert!(flights.join("flight-00001-manual.json").exists());
    fs::remove_dir_all(&dir).ok();
}

/// A scrape request head is capped: 64 KiB with no newline is answered (or
/// closed) at once, well inside the daemon's 5 s read timeout that an
/// uncapped reader would wait out, and the next scrape is served normally.
#[test]
fn oversized_scrape_head_is_cut_off_and_scrapes_continue() {
    use std::io::{ErrorKind, Read, Write};
    let dir = tmpdir("scrapecap");
    let service = std::sync::Arc::new(Service::start(cfg(&dir, 0, 4)).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = pobp_serve::spawn_metrics_listener(listener, service.clone()).unwrap();
    let mut flood = std::net::TcpStream::connect(addr).unwrap();
    flood.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let _ = flood.write_all(&[b'a'; 64 * 1024]); // the daemon may close mid-write
    let mut reply = String::new();
    match flood.read_to_string(&mut reply) {
        Ok(_) => assert!(reply.is_empty() || reply.starts_with("HTTP/1.1 400"), "{reply}"),
        Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset, "no answer at the cap: {e}"),
    }
    let mut scrape = std::net::TcpStream::connect(addr).unwrap();
    scrape.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
    let mut body = String::new();
    scrape.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 200 OK") && body.contains("\npobp_serve_up 1\n"), "{body}");
    service.stop(false);
    fs::remove_dir_all(&dir).ok();
}

/// A scrape request head has one overall deadline: a client trickling a
/// byte every 100 ms with no newline (never idle long enough for a per-read
/// timeout) is cut off within the daemon's 5 s head deadline plus slack,
/// and the serial listener then answers the next scrape.
#[test]
fn trickling_scrape_head_is_cut_off_at_the_deadline_and_scrapes_continue() {
    use std::io::{Read, Write};
    let dir = tmpdir("scrapetrickle");
    let service = std::sync::Arc::new(Service::start(cfg(&dir, 0, 4)).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = pobp_serve::spawn_metrics_listener(listener, service.clone()).unwrap();
    let began = Instant::now();
    let mut trickle = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = trickle.try_clone().unwrap();
    let feeder = std::thread::spawn(move || {
        // Stops at the first failed write (the daemon closed) or after 20 s.
        while began.elapsed() < Duration::from_secs(20) && writer.write_all(b"a").is_ok() {
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    // Blocks until the daemon closes the connection (EOF or reset).
    let mut reply = Vec::new();
    let _ = trickle.read_to_end(&mut reply);
    let held = began.elapsed();
    assert!(held < Duration::from_secs(8), "trickling client held the listener for {held:?}");
    assert!(reply.is_empty(), "a head cut off at the deadline gets no answer");
    let mut scrape = std::net::TcpStream::connect(addr).unwrap();
    scrape.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
    let mut body = String::new();
    scrape.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 200 OK") && body.contains("\npobp_serve_up 1\n"), "{body}");
    drop(trickle);
    feeder.join().unwrap();
    service.stop(false);
    fs::remove_dir_all(&dir).ok();
}
