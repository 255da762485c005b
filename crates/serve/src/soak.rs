//! The randomized soak harness behind `pobp-client soak`.
//!
//! Drives a live daemon with a seeded stream of mixed operations (mostly
//! submits, plus cancels, status probes, and stats reads) for a bounded
//! wall-clock window, then quiesces and checks the service invariants:
//!
//! 1. **No lost jobs** — every submission the daemon *acknowledged* is
//!    still present and has reached a terminal state.
//! 2. **No uncertified results** — every `done`/`degraded` result carries
//!    `certified: true` and the certified value fields.
//! 3. **Replay identity** — optionally (`journal_dir`), after shutting the
//!    daemon down, replaying its journal + snapshot from disk reproduces
//!    exactly the registry the live daemon last served.
//! 4. **Every finish accounted** — at quiesce, `stats`' per-algorithm done
//!    counts plus its cache hits equal its done and degraded jobs: each is
//!    one engine run or one cache hit. Counters restart with each daemon
//!    life, so this holds across a `kill -9` and restart too.
//!
//! The soak talks through one [`Client`], so one kept connection. With
//! `expect_restart` the harness tolerates transport errors: the drill in
//! `tests/serve_e2e.rs` (`soak_survives_a_kill9_and_restart_mid_conversation`)
//! `kill -9`s the daemon mid-soak and restarts it on the same port, and
//! the client replaces the dead connection on its next request (the
//! reconnect rules are in [`crate::client`]). An unacknowledged submission
//! is simply not tracked, which is precisely the durability contract —
//! acknowledgement is the moment a job becomes guaranteed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::client::Client;
use crate::job::JobStatus;
use crate::journal::replay_dir;
use crate::json::{obj, Json};

/// Soak parameters.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Daemon address.
    pub addr: String,
    /// Operation window in seconds (quiesce and checking come after).
    pub seconds: u64,
    /// RNG seed for the operation stream.
    pub seed: u64,
    /// Registry directory to replay for the identity check (requires the
    /// daemon to be shut down at the end, which this enables).
    pub journal_dir: Option<PathBuf>,
    /// Tolerate transport errors mid-run (daemon being killed/restarted).
    pub expect_restart: bool,
}

/// What the soak did and found.
#[derive(Clone, Copy, Debug, Default)]
pub struct SoakReport {
    /// Acknowledged submissions.
    pub submitted: u64,
    /// Structured rejections observed (expected under saturation).
    pub rejected: u64,
    /// Cancel requests issued.
    pub cancels: u64,
    /// Transport errors tolerated (restart window).
    pub transport_errors: u64,
    /// Terminal tallies at quiesce.
    pub done: u64,
    /// Jobs that finished degraded.
    pub degraded: u64,
    /// Jobs that finished failed.
    pub failed: u64,
    /// Jobs that finished cancelled.
    pub cancelled: u64,
    /// Serve-level cache hits reported by the daemon.
    pub cache_hits: u64,
}

impl SoakReport {
    /// The report as a JSON object (what `pobp-client soak` prints).
    pub fn to_json(&self) -> Json {
        obj([
            ("submitted", Json::Num(self.submitted as f64)),
            ("rejected", Json::Num(self.rejected as f64)),
            ("cancels", Json::Num(self.cancels as f64)),
            ("transport_errors", Json::Num(self.transport_errors as f64)),
            ("done", Json::Num(self.done as f64)),
            ("degraded", Json::Num(self.degraded as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("cancelled", Json::Num(self.cancelled as f64)),
            ("cache_hits", Json::Num(self.cache_hits as f64)),
        ])
    }
}

const ALGS: [&str; 7] =
    ["reduction", "lsa", "k0", "combined", "online-djn", "online-greedy", "online-edf"];
const FAMILIES: [&str; 5] = ["periodic", "bursty", "fig2", "fig4", "random"];

/// One random job spec. Small instances and low seed entropy on purpose:
/// fast solves keep the op rate high, and coordinate collisions exercise
/// the serve-level cache.
fn random_spec(rng: &mut StdRng) -> Json {
    let alg = if rng.random_range(0..12u32) == 0 {
        "panic"
    } else {
        ALGS[rng.random_range(0..ALGS.len())]
    };
    let n = rng.random_range(4..=20u64);
    let mut pairs = vec![
        ("name".into(), Json::Str(format!("soak-{}", rng.random_range(0..1_000_000u64)))),
        ("alg".into(), Json::Str(alg.into())),
        ("n".into(), Json::Num(n as f64)),
        ("k".into(), Json::Num(rng.random_range(1..=3u64) as f64)),
        ("seed".into(), Json::Num(rng.random_range(0..=4u64) as f64)),
        ("priority".into(), Json::Num(rng.random_range(-5..=5i64) as f64)),
    ];
    let online = alg.starts_with("online");
    if !online && rng.random_range(0..6u32) == 0 {
        pairs.push(("machines".into(), Json::Num(rng.random_range(2..=3u64) as f64)));
    }
    if !online && n <= 10 && rng.random_range(0..8u32) == 0 {
        pairs.push(("exact_ref".into(), Json::Bool(true)));
    }
    if rng.random_range(0..5u32) == 0 {
        pairs.push(("family".into(), Json::Str(FAMILIES[rng.random_range(0..FAMILIES.len())].into())));
    }
    if rng.random_range(0..4u32) == 0 {
        pairs.push(("deadline_ms".into(), Json::Num(rng.random_range(200..=1000u64) as f64)));
    }
    Json::Obj(pairs)
}

/// Invariant 4 over one `stats` payload: Σ `per_alg.*.done` + `cache_hits`
/// = `done` + `degraded`.
fn check_finishes_accounted(stats: &Json) -> Result<(), String> {
    let num = |v: &Json, key: &str| {
        v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("no {key} in stats {stats}"))
    };
    let Some(Json::Obj(per_alg)) = stats.get("per_alg") else {
        return Err(format!("no per_alg in stats {stats}"));
    };
    let ran = per_alg.iter().map(|(_, alg)| num(alg, "done")).sum::<Result<u64, _>>()?;
    let hits = num(stats, "cache_hits")?;
    let finished = num(stats, "done")? + num(stats, "degraded")?;
    if ran + hits != finished {
        return Err(format!("per_alg done {ran} + cache hits {hits} != done + degraded {finished}"));
    }
    Ok(())
}

/// Runs the soak. `Err` carries the first violated invariant (or a
/// transport failure outside the tolerated window).
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, String> {
    let client = Client::new(&cfg.addr, Duration::from_secs(5));
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = SoakReport::default();
    let mut acked: Vec<u64> = Vec::new();

    // Wait for the daemon to answer at all.
    let boot = Instant::now();
    while !client.ping() {
        if boot.elapsed() > Duration::from_secs(10) {
            return Err(format!("no daemon answering at {}", cfg.addr));
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    while Instant::now() < deadline {
        let roll = rng.random_range(0..100u32);
        let outcome = if roll < 60 {
            client.submit(random_spec(&mut rng)).map(|resp| {
                if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                    if let Some(id) = resp.get("id").and_then(Json::as_u64) {
                        acked.push(id);
                        report.submitted += 1;
                    }
                } else if resp.get("rejected").and_then(Json::as_bool) == Some(true) {
                    report.rejected += 1;
                }
            })
        } else if roll < 75 && !acked.is_empty() {
            let id = acked[rng.random_range(0..acked.len())];
            report.cancels += 1;
            client.cancel(id).map(|_| ())
        } else if roll < 90 && !acked.is_empty() {
            let id = acked[rng.random_range(0..acked.len())];
            client.status(id).map(|_| ())
        } else {
            client.stats().map(|_| ())
        };
        if let Err(e) = outcome {
            if cfg.expect_restart {
                report.transport_errors += 1;
                std::thread::sleep(Duration::from_millis(100));
            } else {
                return Err(format!("transport error without expect_restart: {e}"));
            }
        }
    }

    // Quiesce: wait for the daemon to report nothing queued or running.
    let quiesce_deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match client.stats() {
            Ok(resp) => {
                let stats = resp.get("stats").cloned().unwrap_or(Json::Null);
                let queued = stats.get("queued").and_then(Json::as_u64).unwrap_or(1);
                let running = stats.get("running").and_then(Json::as_u64).unwrap_or(1);
                if queued == 0 && running == 0 {
                    report.cache_hits = stats.get("cache_hits").and_then(Json::as_u64).unwrap_or(0);
                    check_finishes_accounted(&stats)?;
                    break;
                }
            }
            Err(_) if cfg.expect_restart => report.transport_errors += 1,
            Err(e) => return Err(format!("stats during quiesce failed: {e}")),
        }
        if Instant::now() >= quiesce_deadline {
            return Err("daemon did not quiesce within 120s".into());
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    // Invariants 1 + 2 over every acknowledged id, and capture the dump the
    // replay check compares against.
    acked.sort_unstable();
    acked.dedup();
    let mut dump: BTreeMap<u64, (String, Option<String>)> = BTreeMap::new();
    for &id in &acked {
        let resp = client.status(id).map_err(|e| format!("status({id}) failed: {e}"))?;
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("lost job: acknowledged id {id} not found after quiesce"));
        }
        let job = resp.get("job").cloned().unwrap_or(Json::Null);
        let status_name = job.get("status").and_then(Json::as_str).unwrap_or("?").to_string();
        let status = JobStatus::parse(&status_name)
            .ok_or_else(|| format!("job {id} has unknown status {status_name:?}"))?;
        if !status.is_terminal() {
            return Err(format!("job {id} still {status_name} after quiesce"));
        }
        match status {
            JobStatus::Done => report.done += 1,
            JobStatus::Degraded => report.degraded += 1,
            JobStatus::Failed => report.failed += 1,
            JobStatus::Cancelled => report.cancelled += 1,
            _ => unreachable!("terminal checked above"),
        }
        let result = job.get("result").cloned();
        if matches!(status, JobStatus::Done | JobStatus::Degraded) {
            let r = result.as_ref().ok_or_else(|| format!("job {id} is {status_name} but has no result"))?;
            if r.get("certified").and_then(Json::as_bool) != Some(true) {
                return Err(format!("uncertified result served for job {id}"));
            }
            if r.get("alg_value").and_then(Json::as_f64).is_none() {
                return Err(format!("job {id} result has no alg_value"));
            }
        }
        dump.insert(id, (status_name, result.map(|r| r.to_string())));
    }

    // Invariant 3: shut the daemon down and replay its directory.
    if let Some(dir) = &cfg.journal_dir {
        client.shutdown(true).map_err(|e| format!("shutdown failed: {e}"))?;
        let gone = Instant::now() + Duration::from_secs(30);
        while client.ping() {
            if Instant::now() >= gone {
                return Err("daemon still answering 30s after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        let (registry, _, _) =
            replay_dir(dir).map_err(|e| format!("replay of {} failed: {e}", dir.display()))?;
        for (&id, (status_name, result)) in &dump {
            let job = registry
                .get(id)
                .ok_or_else(|| format!("replayed registry is missing job {id}"))?;
            if job.status.name() != status_name {
                return Err(format!(
                    "replay mismatch for job {id}: served {status_name}, replayed {}",
                    job.status.name()
                ));
            }
            let replayed_result = job.result.as_ref().map(|r| r.to_string());
            if &replayed_result != result {
                return Err(format!("replay mismatch for job {id}: result bytes differ"));
            }
        }
    }

    Ok(report)
}
