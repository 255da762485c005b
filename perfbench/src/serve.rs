//! The `serve-mixed` workload: an in-process daemon on `127.0.0.1:0`
//! driven by an open-loop client at a fixed rate, plus (traced) a
//! post-hoc in-process replay of the same request stream through the
//! daemon's layer calls.

use std::collections::HashMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pobp_engine::{run_batch, Algo, Engine, EngineConfig, ResultCache};
use pobp_instances::ZooFamily;
use pobp_serve::journal::DEFAULT_COMPACT_EVERY;
use pobp_serve::json::Json;
use pobp_serve::server::serve_listener;
use pobp_serve::service::task_result_json;
use pobp_serve::{Client, Event, JobSpec, JobStatus, Journal, Registry, Service, ServiceConfig};

use crate::layers::{agrees, Replayer, TASK_WORK_SPANS};
use crate::rss::{self, RssSampler};
use crate::stats::{self, Failures, Pacer, Rng};
use crate::trace::SpanLog;
use crate::{Metrics, RunOutput};

/// Submits per second offered by the generator.
const RATE: u64 = 100;
/// Instance size of every job.
const N: usize = 250;
/// Share of submits that repeat an earlier spec's content key.
const REPEAT_SHARE: f64 = 0.25;
/// A repeat copies a spec submitted at least this many requests earlier,
/// so its donor has finished and the serve-level cache answers it.
const REPEAT_GAP: usize = 50;
/// Daemon start-ups timed before and again after the load window (the
/// measured daemon adds one more).
const SETUP_BURST: usize = 20;
/// Jobs re-solved directly to check the daemon's results.
const SAMPLED: usize = 8;
/// How long the poller keeps waiting for outstanding jobs after the
/// generator stops.
const DRAIN: Duration = Duration::from_secs(60);
/// How long before a due submit the traced generator pings the daemon.
const PING_LEAD: Duration = Duration::from_millis(2);
/// Per-request client timeout.
const TIMEOUT: Duration = Duration::from_secs(10);

const ALGS: [Algo; 5] = [
    Algo::Reduction,
    Algo::Combined,
    Algo::LsaCs,
    Algo::K0,
    Algo::OnlineDjn,
];
const FAMILIES: [ZooFamily; 3] = [ZooFamily::Periodic, ZooFamily::Bursty, ZooFamily::Random];

/// One generated submit: the spec and, for a repeat, the original it
/// copies.
struct Planned {
    spec: JobSpec,
    wire: Json,
    donor: Option<usize>,
}

/// The seeded request stream: fresh n=250 cells over five algorithms
/// (online jobs on a zoo family), about a quarter repeats of earlier ones.
fn plan(seed: u64, count: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed ^ 0x0073_6572_7665);
    let mut out: Vec<Planned> = Vec::with_capacity(count);
    for i in 0..count {
        let (mut spec, donor) = if i >= REPEAT_GAP && rng.unit() < REPEAT_SHARE {
            let mut d = rng.below((i - REPEAT_GAP + 1) as u64) as usize;
            while let Some(orig) = out[d].donor {
                d = orig;
            }
            (out[d].spec.clone(), Some(d))
        } else {
            let alg = ALGS[rng.below(ALGS.len() as u64) as usize];
            let k = 1 + rng.below(3) as u32;
            let s = rng.next_u64() & ((1 << 40) - 1);
            let mut spec = JobSpec::cell(alg, N, k, s);
            if alg.is_online() {
                spec.family = Some(FAMILIES[rng.below(FAMILIES.len() as u64) as usize]);
            }
            (spec, None)
        };
        spec.name = format!("pb-{i}");
        out.push(Planned {
            wire: spec.to_json(),
            spec,
            donor,
        });
    }
    out
}

/// An in-process daemon: `Service::start` + `serve_listener` on an
/// ephemeral loopback port. Dropping it sends the `shutdown` op and joins
/// the accept loop, so the daemon stops even when a check fails.
struct Daemon {
    addr: String,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Starts a daemon on a fresh registry directory; returns it with its
    /// set-up time (start + bind + first ping answered) in seconds.
    fn start(dir: &Path) -> (Daemon, f64) {
        let t = Instant::now();
        let cfg = ServiceConfig {
            dir: dir.to_path_buf(),
            ..ServiceConfig::default()
        };
        let service = Arc::new(Service::start(cfg).expect("start the service"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind 127.0.0.1:0");
        let addr = listener.local_addr().expect("local address").to_string();
        let thread = std::thread::spawn(move || serve_listener(listener, service));
        let daemon = Daemon {
            addr,
            thread: Some(thread),
        };
        let client = daemon.client();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !client.ping() {
            assert!(
                Instant::now() < deadline,
                "the daemon never answered a ping"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let setup = t.elapsed().as_secs_f64();
        (daemon, setup)
    }

    fn client(&self) -> Client {
        Client::new(&self.addr, TIMEOUT)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        match self.client().shutdown(true) {
            Ok(_) => match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("serve: accept loop ended with {e}"),
                Err(_) => eprintln!("serve: accept loop panicked"),
            },
            // Without an answered shutdown the accept loop cannot be woken;
            // leave it to process exit rather than hang here.
            Err(e) => eprintln!("serve: shutdown op failed: {e}"),
        }
    }
}

/// What the generator saw for one submit.
#[derive(Clone, Debug)]
struct Sent {
    due_ns: u64,
    sent_ns: u64,
    ack_ns: u64,
    id: Option<u64>,
    cached: bool,
    /// Terminal observation time, result JSON and certification verdict.
    done: Option<(u64, String, bool)>,
}

/// What the poller counted: status polls made, and per submit the round
/// trip of the poll that saw it terminal.
#[derive(Default)]
struct ClientSpans {
    polls: u64,
    last_poll_ns: HashMap<usize, u64>,
}

struct Window {
    sent: Vec<Sent>,
    end_ns: u64,
    spans: ClientSpans,
    gen_log: Option<SpanLog>,
    poll_log: Option<SpanLog>,
}

fn parse_status(job: &Json) -> Option<(JobStatus, String, bool)> {
    let status = JobStatus::parse(job.get("status")?.as_str()?)?;
    let result = job.get("result").map(|r| r.to_string()).unwrap_or_default();
    let certified = job
        .get("result")
        .and_then(|r| r.get("certified"))
        .and_then(Json::as_bool)
        .unwrap_or(false);
    Some((status, result, certified))
}

/// Drives one open-loop window against `daemon`: a generator thread
/// sending `plan[i]` at its due time, a poller thread reading `status`
/// for every outstanding id until it is terminal.
fn window(daemon: &Daemon, plan: &[Planned], seconds: f64, epoch: Instant, traced: bool) -> Window {
    let pacer = Pacer::per_second(RATE);
    let count = ((seconds * RATE as f64) as usize).clamp(1, plan.len());
    let outstanding: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());
    let gen_done = AtomicBool::new(false);
    let t0 = Instant::now();
    let ns = || t0.elapsed().as_nanos() as u64;
    let (mut sent, mut gen_log, polled, poll_log) = std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let client = daemon.client();
            let mut log = traced.then(|| SpanLog::new(epoch, 2));
            let mut sent = Vec::with_capacity(count);
            for (i, p) in plan.iter().enumerate().take(count) {
                let due_ns = pacer.due_ns(i as u64);
                // Traced: every tenth submit, a ping `PING_LEAD` before it
                // is due, so the front end is sampled in the state a submit
                // meets (a ping right after a submit would land while the
                // new job's engine starts up).
                if let Some(log) = log.as_mut().filter(|_| i % 10 == 0) {
                    let now = ns();
                    let at = due_ns.saturating_sub(PING_LEAD.as_nanos() as u64);
                    if at > now {
                        std::thread::sleep(Duration::from_nanos(at - now));
                    }
                    let t = Instant::now();
                    if client.ping() {
                        log.record("serve.front_rtt", i as u64, t.elapsed().as_nanos() as u64);
                    } else {
                        eprintln!("serve: ping {i} failed mid-window");
                    }
                }
                let now = ns();
                let send_ns = pacer.send_ns(i as u64, now);
                if send_ns > now {
                    std::thread::sleep(Duration::from_nanos(send_ns - now));
                }
                let sent_ns = ns();
                let resp = client.submit(p.wire.clone());
                let ack_ns = ns();
                if let Some(log) = log.as_mut() {
                    log.record("serve.submit_rtt", i as u64, ack_ns - sent_ns);
                }
                let (id, cached) = match &resp {
                    Ok(r) if r.get("ok").and_then(Json::as_bool) == Some(true) => (
                        r.get("id").and_then(Json::as_u64),
                        r.get("cached").and_then(Json::as_bool).unwrap_or(false),
                    ),
                    Ok(r) => {
                        eprintln!("check: submit {i} refused: {r}");
                        (None, false)
                    }
                    Err(e) => {
                        eprintln!("check: submit {i} failed: {e}");
                        (None, false)
                    }
                };
                if let (Some(id), false) = (id, cached) {
                    outstanding.lock().expect("outstanding list").push((i, id));
                }
                sent.push(Sent {
                    due_ns,
                    sent_ns,
                    ack_ns,
                    id,
                    cached,
                    done: None,
                });
            }
            gen_done.store(true, Ordering::Release);
            (sent, log)
        });
        let poller = s.spawn(|| {
            let client = daemon.client();
            let mut log = traced.then(|| SpanLog::new(epoch, 3));
            let mut spans = ClientSpans::default();
            let mut done: Vec<(usize, u64, String, bool)> = Vec::new();
            let mut give_up = None;
            loop {
                let ids: Vec<(usize, u64)> = outstanding.lock().expect("outstanding list").clone();
                if ids.is_empty() {
                    if gen_done.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                for (i, id) in ids {
                    let t = Instant::now();
                    let resp = client.status(id);
                    let rtt = t.elapsed().as_nanos() as u64;
                    let at = ns();
                    spans.polls += 1;
                    spans.last_poll_ns.insert(i, rtt);
                    if let Some(log) = log.as_mut() {
                        log.record("serve.status_poll", i as u64, rtt);
                    }
                    let parsed = resp.ok().and_then(|r| r.get("job").and_then(parse_status));
                    if let Some((status, result, certified)) = parsed {
                        if status.is_terminal() {
                            let ok = certified && status == JobStatus::Done;
                            done.push((i, at, result, ok));
                            outstanding
                                .lock()
                                .expect("outstanding list")
                                .retain(|&(j, _)| j != i);
                        }
                    }
                }
                if gen_done.load(Ordering::Acquire) {
                    let deadline = *give_up.get_or_insert_with(|| Instant::now() + DRAIN);
                    if Instant::now() > deadline {
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            (done, spans, log)
        });
        let (sent, gen_log) = generator.join().expect("generator thread");
        let (done, spans, poll_log) = poller.join().expect("poller thread");
        (sent, gen_log, (done, spans), poll_log)
    });
    let (done, spans) = polled;
    let mut end_ns = 0;
    for (i, at, result, ok) in done {
        end_ns = end_ns.max(at);
        sent[i].done = Some((at, result, ok));
    }
    for s in sent.iter().filter(|s| s.cached) {
        end_ns = end_ns.max(s.ack_ns);
    }
    if let Some(log) = gen_log.as_mut() {
        for (i, s) in sent.iter().enumerate() {
            log.record("serve.gen_lag", i as u64, s.sent_ns - s.due_ns);
        }
    }
    Window {
        sent,
        end_ns,
        spans,
        gen_log,
        poll_log,
    }
}

/// Result checks over a finished window: fetches the cache-served jobs'
/// results, then counts rejected, lost and uncertified jobs, repeats that
/// differ from their donor, and sampled results that differ from a direct
/// solve.
fn check(daemon: &Daemon, plan: &[Planned], w: &mut Window, rng: &mut Rng) -> Failures {
    let mut f = Failures::default();
    let client = daemon.client();
    // Cache-served repeats were terminal at ack: fetch their results.
    for (i, s) in w.sent.iter_mut().enumerate() {
        if let (Some(id), true) = (s.id, s.cached) {
            match client.result(id) {
                Ok(r) => {
                    let result = r.get("result").map(|x| x.to_string()).unwrap_or_default();
                    let ok = r.get("status").and_then(Json::as_str) == Some("done")
                        && r.get("result")
                            .and_then(|x| x.get("certified"))
                            .and_then(Json::as_bool)
                            == Some(true);
                    s.done = Some((s.ack_ns, result, ok));
                }
                Err(e) => {
                    eprintln!("check: result of cached job {i} failed: {e}");
                    f.lost += 1;
                }
            }
        }
    }
    for (i, s) in w.sent.iter().enumerate() {
        match (&s.id, &s.done) {
            (None, _) => f.rejected += 1,
            (Some(_), None) => {
                eprintln!("check: job {i} never reached a terminal status");
                f.lost += 1;
            }
            (Some(_), Some((_, _, false))) => f.not_ok += 1,
            _ => {}
        }
    }
    // Repeats answered at ack must carry their donor's bytes. A repeat
    // that queued because its donor was still running (a backlog) is solved
    // again, and the engines' shared result cache answers it with
    // `attempts` 0; every other field must still match.
    for (i, p) in plan.iter().enumerate().take(w.sent.len()) {
        let Some(d) = p.donor else { continue };
        let mine = w.sent[i].done.as_ref().map(|x| &x.1);
        let theirs = w.sent.get(d).and_then(|s| s.done.as_ref()).map(|x| &x.1);
        if let (Some(mine), Some(theirs)) = (mine, theirs) {
            if mine == theirs
                || (!w.sent[i].cached && without_attempts(mine) == without_attempts(theirs))
            {
                continue;
            }
            eprintln!("check: job {i} (repeat of {d}) differs from its donor: {mine} != {theirs}");
            f.mismatched += 1;
        }
    }
    // A sample must equal a direct 1-thread solve of the same task.
    let originals: Vec<usize> = (0..w.sent.len())
        .filter(|&i| plan[i].donor.is_none())
        .collect();
    for _ in 0..SAMPLED.min(originals.len()) {
        let i = originals[rng.below(originals.len() as u64) as usize];
        let Some((_, got, _)) = &w.sent[i].done else {
            continue;
        };
        let batch = run_batch(
            &[plan[i].spec.task()],
            EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            },
        );
        let want = task_result_json(&batch.reports[0]).to_string();
        if &want != got {
            eprintln!("check: job {i}: daemon result {got} != direct solve {want}");
            f.mismatched += 1;
        }
    }
    f
}

/// A result's JSON without its `attempts` count.
fn without_attempts(result: &str) -> String {
    match Json::parse(result) {
        Ok(Json::Obj(pairs)) => {
            Json::Obj(pairs.into_iter().filter(|(k, _)| k != "attempts").collect()).to_string()
        }
        _ => result.to_string(),
    }
}

fn ack_samples(w: &Window) -> Vec<f64> {
    w.sent
        .iter()
        .map(|s| match s.id {
            Some(_) => stats::latency_from_due_ms(s.due_ns, s.ack_ns),
            None => f64::INFINITY,
        })
        .collect()
}

fn done_samples(w: &Window) -> Vec<f64> {
    w.sent
        .iter()
        .map(|s| match (&s.id, &s.done) {
            (Some(_), Some((at, _, true))) => stats::latency_from_due_ms(s.due_ns, *at),
            _ => f64::INFINITY,
        })
        .collect()
}

/// Certified jobs per second: completions over the span from the first
/// due time to the last terminal observation. It equals the offered rate
/// unless a backlog grows.
fn jobs_per_s(w: &Window) -> f64 {
    let ok = w
        .sent
        .iter()
        .filter(|s| matches!(s.done, Some((_, _, true))))
        .count();
    ok as f64 / (w.end_ns as f64 / 1e9)
}

/// Appends `ev` to the shadow journal under a span and applies it.
fn append(journal: &mut Journal, registry: &mut Registry, log: &mut SpanLog, ev: Event, req: u64) {
    log.time("serve.journal_append", req, || journal.append(&ev))
        .expect("journal append");
    registry.apply(&ev);
}

/// Times `SETUP_BURST` daemon start-ups, then shuts them all down (all
/// shutdowns after all start-ups, so no final snapshot's fsync lands
/// inside a timed start-up).
fn setup_burst(work: &Path, tag: &str) -> Vec<f64> {
    let (daemons, times): (Vec<Daemon>, Vec<f64>) = (0..SETUP_BURST)
        .map(|i| Daemon::start(&fresh_dir(work, &format!("setup-{tag}-{i}"))))
        .unzip();
    drop(daemons);
    times
}

/// An empty directory under `work` for one registry. It exists before the
/// daemon starts, as a deployment's registry directory does.
fn fresh_dir(work: &Path, name: &str) -> PathBuf {
    let dir = work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a registry directory");
    dir
}

/// The untraced run: end-to-end metrics only.
pub fn run(seed: u64, seconds: u64, work: &Path, epoch: Instant) -> RunOutput {
    let mut rng = Rng::new(seed);
    let mut setups = setup_burst(work, "before");
    let plan = plan(seed, (seconds * RATE) as usize);
    let (daemon, s) = Daemon::start(&fresh_dir(work, "registry"));
    setups.push(s);
    let rss = RssSampler::start(Some(Duration::from_secs(1)));
    let mut w = window(&daemon, &plan, seconds as f64, epoch, false);
    let peak_rss = rss.finish();
    let fails = check(&daemon, &plan, &mut w, &mut rng);
    drop(daemon);
    setups.extend(setup_burst(work, "after"));

    let acks = ack_samples(&w);
    let dones = done_samples(&w);
    let mut m = Metrics::default();
    m.push("setup_s", stats::median(&setups), "s");
    m.push("rows_per_s", jobs_per_s(&w), "1/s");
    m.push("ack_p50_ms", stats::median(&acks), "ms");
    m.push("done_p50_ms", stats::median(&dones), "ms");
    m.push("peak_rss_mb", peak_rss, "MiB");
    let lags: Vec<f64> = w
        .sent
        .iter()
        .map(|s| (s.sent_ns - s.due_ns) as f64 / 1e6)
        .collect();
    let notes = vec![
        format!(
            "submits           {} at {RATE}/s ({} cache-served, {} polls)",
            w.sent.len(),
            w.sent.iter().filter(|s| s.cached).count(),
            w.spans.polls
        ),
        format!(
            "jobs_per_s        {:.3} 1/s (certified terminal jobs)",
            jobs_per_s(&w)
        ),
        crate::tail_note("ack (submit -> parsed ack)", &acks),
        crate::tail_note("done (submit -> terminal poll)", &dones),
        crate::tail_note("generator lag", &lags),
        crate::p99_note("ack_p99_ms", &acks),
        crate::p99_note("done_p99_ms", &dones),
        format!("setup samples     {}", setups.len()),
        format!(
            "VmHWM             {:.3} MiB (all-time peak, not gated)",
            rss::hwm_mib()
        ),
    ];
    RunOutput::new(m, w.sent.len() as u64, fails, notes)
}

/// The traced run: an untraced window for the overhead baseline, a traced
/// window (client spans, a ping every tenth submit), then an in-process
/// replay of the traced window's request stream through the daemon's
/// layer calls.
pub fn run_traced(seed: u64, seconds: u64, work: &Path, epoch: Instant) -> RunOutput {
    let mut rng = Rng::new(seed);
    let half = seconds as f64 * 0.4;
    let plan = plan(seed, (half * RATE as f64) as usize + 1);

    let (daemon, _) = Daemon::start(&fresh_dir(work, "registry-untraced"));
    let mut base = window(&daemon, &plan, half, epoch, false);
    let mut fails = check(&daemon, &plan, &mut base, &mut rng);
    drop(daemon);

    let (daemon, _) = Daemon::start(&fresh_dir(work, "registry-traced"));
    let mut w = window(&daemon, &plan, half, epoch, true);
    fails.add(&check(&daemon, &plan, &mut w, &mut rng));
    drop(daemon);

    // In-process replay of the traced window, in submit order.
    let mut log = SpanLog::new(epoch, 1);
    let shadow = Service::start(ServiceConfig {
        dir: fresh_dir(work, "shadow-service"),
        workers: 0,
        queue_cap: usize::MAX,
        ..ServiceConfig::default()
    })
    .expect("start the shadow service");
    let (mut journal, mut registry, _) =
        Journal::open(&fresh_dir(work, "shadow-journal"), DEFAULT_COMPACT_EVERY)
            .expect("open journal");
    let cache = Arc::new(ResultCache::new());
    let mut replayer = Replayer::new();
    let (mut tasks, mut ref_hits, mut steal_attempts, mut steal_hits) = (0u64, 0u64, 0u64, 0u64);
    let mut engine_ms: HashMap<usize, f64> = HashMap::new();
    let mut submit_ms: HashMap<usize, f64> = HashMap::new();
    for (i, s) in w.sent.iter().enumerate() {
        let Some((_, result, _)) = &s.done else {
            continue;
        };
        let spec = &plan[i].spec;
        let req = i as u64;
        log.time("instances.generate", req, || spec.instance());
        log.time("serve.content_key", req, || spec.content_key());
        let submit = log.begin("serve.submit", req);
        shadow.submit(spec.clone()).expect("shadow submit");
        submit_ms.insert(i, log.end(submit) as f64 / 1e6);
        let id = registry.allocate_id();
        append(
            &mut journal,
            &mut registry,
            &mut log,
            Event::Submit {
                id,
                spec: spec.clone(),
            },
            req,
        );
        if !s.cached {
            append(
                &mut journal,
                &mut registry,
                &mut log,
                Event::Start { id },
                req,
            );
            let task = spec.task();
            let engine = Engine::with_shared_cache(
                EngineConfig {
                    threads: 1,
                    ..EngineConfig::default()
                },
                Arc::clone(&cache),
            );
            let id_span = log.begin("serve.job_engine", req);
            let batch = engine.run_batch(std::slice::from_ref(&task));
            engine_ms.insert(i, log.end(id_span) as f64 / 1e6);
            tasks += batch.stats.tasks as u64;
            ref_hits += batch.stats.ref_cache_hits as u64;
            steal_attempts += batch.stats.steal_attempts as u64;
            steal_hits += batch.stats.steal_hits as u64;
            if &task_result_json(&batch.reports[0]).to_string() != result {
                eprintln!("check: job {i}: in-process engine result differs from the daemon's");
                fails.mismatched += 1;
            }
            let replayed = replayer.replay(&task, &mut log, req);
            if !agrees(&batch.reports[0].result, replayed.as_ref()) {
                eprintln!("check: job {i}: layer replay disagrees with the engine");
                fails.mismatched += 1;
            }
        }
        let finish = Event::Finish {
            id,
            result: Json::parse(result).expect("result JSON"),
        };
        append(&mut journal, &mut registry, &mut log, finish, req);
        let before = journal.compactions();
        let t = Instant::now();
        journal.maybe_compact(&registry).expect("compact");
        if journal.compactions() > before {
            log.record("serve.compact", req, t.elapsed().as_nanos() as u64);
        }
    }
    shadow.stop(false);

    let a = |name: &str| log.agg(name);
    let gen = w.gen_log.take().expect("traced generator log");
    let poll = w.poll_log.take().expect("traced poller log");
    let dones = done_samples(&w);
    let acks = ack_samples(&w);
    let non_cached: Vec<usize> = (0..w.sent.len())
        .filter(|&i| engine_ms.contains_key(&i))
        .collect();
    let queue_wait: Vec<f64> = non_cached
        .iter()
        .map(|&i| dones[i] - acks[i] - engine_ms[&i])
        .collect();
    // Attributed, over the jobs an engine solved: per job, its ack path
    // (the front end's mean `ping` round trip plus its in-process
    // `Service::submit`, which computes the content key and appends to the
    // journal), its engine time in the in-process replay and the poll that
    // saw it finish, over its done latency. The rest is queue wait, the
    // poller's gap, generator lag and socket time. Cache-served jobs are
    // done at their ack; their ack path is attributed apart (stderr).
    let rtt_ms = gen.agg("serve.front_rtt").mean_ms();
    let (mut explained, mut total) = (0.0, 0.0);
    for &i in &non_cached {
        if dones[i].is_finite() {
            total += dones[i];
            explained += rtt_ms
                + submit_ms[&i]
                + engine_ms[&i]
                + w.spans.last_poll_ns.get(&i).copied().unwrap_or(0) as f64 / 1e6;
        }
    }
    let (mut cached_explained, mut cached_total) = (0.0, 0.0);
    for (i, s) in w.sent.iter().enumerate() {
        if s.cached && acks[i].is_finite() && submit_ms.contains_key(&i) {
            cached_total += acks[i];
            cached_explained += rtt_ms + submit_ms[&i];
        }
    }
    let work_ns: u64 = TASK_WORK_SPANS.iter().map(|n| a(n).total_ns).sum();
    let engine_total = a("serve.job_engine");
    let lags: Vec<f64> = w
        .sent
        .iter()
        .map(|s| (s.sent_ns - s.due_ns) as f64 / 1e6)
        .collect();
    let cached = w.sent.iter().filter(|s| s.cached).count();
    let accepted = w.sent.iter().filter(|s| s.id.is_some()).count();

    let mut m = Metrics::default();
    crate::push_solver_layers(&mut m, &log);
    m.push("engine.batch_ms", engine_total.mean_ms(), "ms");
    m.push(
        "engine.task_overhead_us",
        (engine_total.total_ns as f64 - work_ns as f64) / tasks.max(1) as f64 / 1e3,
        "us",
    );
    // Daemon worker utilisation: engine time over two workers' window.
    m.push(
        "engine.busy_share",
        engine_total.total_ns as f64 / 1e9 / (2.0 * w.end_ns as f64 / 1e9),
        "share",
    );
    m.push(
        "engine.ref_hit_ratio",
        ref_hits as f64 / tasks.max(1) as f64,
        "share",
    );
    m.push(
        "engine.steal_hit_ratio",
        steal_hits as f64 / steal_attempts.max(1) as f64,
        "share",
    );
    m.push(
        "serve.front_rtt_ms",
        gen.agg("serve.front_rtt").mean_ms(),
        "ms",
    );
    m.push("serve.submit_ms", a("serve.submit").mean_ms(), "ms");
    m.push(
        "serve.content_key_ms",
        a("serve.content_key").mean_ms(),
        "ms",
    );
    m.push(
        "serve.journal_append_ms",
        a("serve.journal_append").mean_ms(),
        "ms",
    );
    m.push("serve.compact_ms", a("serve.compact").mean_ms(), "ms");
    m.push(
        "serve.compactions",
        a("serve.compact").count as f64,
        "count",
    );
    m.push("serve.job_engine_ms", engine_total.mean_ms(), "ms");
    m.push("serve.queue_wait_ms", stats::mean(&queue_wait), "ms");
    m.push(
        "serve.cache_hit_share",
        cached as f64 / accepted.max(1) as f64,
        "share",
    );
    m.push(
        "serve.status_poll_ms",
        poll.agg("serve.status_poll").mean_ms(),
        "ms",
    );
    m.push(
        "serve.polls_per_job",
        w.spans.polls as f64 / non_cached.len().max(1) as f64,
        "count",
    );
    m.push(
        "serve.gen_lag_p99_ms",
        stats::tail(&lags).map_or(f64::NAN, |t| t.value),
        "ms",
    );
    m.push("attributed", explained / total, "share");
    m.push(
        "trace_overhead",
        stats::median(&dones) / stats::median(&done_samples(&base)) - 1.0,
        "share",
    );
    let notes = vec![
        format!(
            "traced window     {} submits ({cached} cache-served), {} polls; untraced baseline {} submits",
            w.sent.len(),
            w.spans.polls,
            base.sent.len()
        ),
        format!(
            "attributed        {:.3} of done over {} engine-solved jobs; {:.3} of ack over cache-served jobs",
            explained / total,
            non_cached.len(),
            cached_explained / cached_total
        ),
        crate::tail_note("ack (traced)", &acks),
        crate::tail_note("done (traced)", &dones),
        crate::tail_note("queue wait", &queue_wait),
        crate::tail_note("generator lag", &lags),
        format!(
            "shadow journal    {} appends, {} compactions, registry {} jobs",
            a("serve.journal_append").count,
            a("serve.compact").count,
            registry.len()
        ),
    ];
    let mut out = RunOutput::new(m, (w.sent.len() + base.sent.len()) as u64, fails, notes);
    out.logs.push(log);
    out.logs.push(gen);
    out.logs.push(poll);
    out
}
