//! `perfbench`: the repository benchmark. One process runs one workload
//! for a fixed number of seconds, checks every output, and prints one JSON
//! result line last on stdout (see README.md):
//!
//! ```text
//! perfbench --workload sweep-large|sweep-small|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` makes a
//! separate traced run and reports the per-layer metrics, writing the
//! spans as a Chrome trace under `perfbench/out/`. The exit code is
//! non-zero exactly when an output check failed.

mod layers;
mod rss;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use stats::Failures;
use trace::SpanLog;

/// End-to-end metrics, reported by every workload's untraced run.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "rows_per_s",
    "ack_p50_ms",
    "done_p50_ms",
    "peak_rss_mb",
];

/// Per-layer metrics and their units, reported by every workload's traced
/// run; a layer the workload never calls reports 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("instances.generate_ms", "ms"),
    ("sched.reference_ms", "ms"),
    ("sched.laminarize_ms", "ms"),
    ("sched.forest_ms", "ms"),
    ("forest.tm_ms", "ms"),
    ("sched.reconstruct_ms", "ms"),
    ("sched.lsa_cs_ms", "ms"),
    ("sched.combined_ms", "ms"),
    ("sched.k0_ms", "ms"),
    ("sim.online_ms", "ms"),
    ("engine.cert_ms", "ms"),
    ("engine.batch_ms", "ms"),
    ("engine.task_overhead_us", "us"),
    ("engine.busy_share", "share"),
    ("engine.ref_hit_ratio", "share"),
    ("engine.steal_hit_ratio", "share"),
    ("sweep.format_us", "us"),
    ("sweep.shard_append_us", "us"),
    ("sweep.shard_fsync_ms", "ms"),
    ("sweep.manifest_write_ms", "ms"),
    ("sweep.manifest_write_slope_us", "us/chunk"),
    ("sweep.merge_ms", "ms"),
    ("sweep.io_share", "share"),
    ("serve.front_rtt_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.content_key_ms", "ms"),
    ("serve.journal_append_ms", "ms"),
    ("serve.compact_ms", "ms"),
    ("serve.compactions", "count"),
    ("serve.job_engine_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.cache_hit_share", "share"),
    ("serve.status_poll_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.gen_lag_p99_ms", "ms"),
    ("engine.output_stats_ms", "ms"),
    ("sweep.chunk_key_ms", "ms"),
    ("attributed", "share"),
    ("trace_overhead", "share"),
];

/// Named metric values in the order they were pushed.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    /// Adds one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    fn get(&self, name: &str) -> Option<&(String, f64, String)> {
        self.0.iter().find(|m| m.0 == name)
    }
}

/// What one run measured and checked.
pub struct RunOutput {
    metrics: Metrics,
    attempted: u64,
    failures: Failures,
    notes: Vec<String>,
    /// Span logs of a traced run (empty when untraced).
    pub logs: Vec<SpanLog>,
}

impl RunOutput {
    /// A run's result without spans.
    pub fn new(metrics: Metrics, attempted: u64, failures: Failures, notes: Vec<String>) -> Self {
        RunOutput {
            metrics,
            attempted,
            failures,
            notes,
            logs: Vec::new(),
        }
    }
}

/// Pushes the mean per-call time of every solver-stage span, plus
/// certification and output statistics.
pub fn push_solver_layers(m: &mut Metrics, log: &SpanLog) {
    for (metric, span) in [
        ("instances.generate_ms", "instances.generate"),
        ("sched.reference_ms", "sched.reference"),
        ("sched.laminarize_ms", "sched.laminarize"),
        ("sched.forest_ms", "sched.forest"),
        ("forest.tm_ms", "forest.tm"),
        ("sched.reconstruct_ms", "sched.reconstruct"),
        ("sched.lsa_cs_ms", "sched.lsa_cs"),
        ("sched.combined_ms", "sched.combined"),
        ("sched.k0_ms", "sched.k0"),
        ("sim.online_ms", "sim.online"),
        ("engine.cert_ms", "engine.cert"),
        ("engine.output_stats_ms", "engine.output_stats"),
        ("sweep.chunk_key_ms", "sweep.chunk_key"),
    ] {
        m.push(metric, log.agg(span).mean_ms(), "ms");
    }
}

/// A human-readable line with a sample set's median, tail (by the tail
/// rule) and sample count.
pub fn tail_note(what: &str, samples: &[f64]) -> String {
    let median = stats::median(samples);
    match stats::tail(samples) {
        Some(t) => format!(
            "{what}: p50 {median:.3} ms, p{} {:.3} ms, {} samples",
            t.pct, t.value, t.samples
        ),
        None => format!(
            "{what}: p50 {median:.3} ms, no tail ({} samples)",
            samples.len()
        ),
    }
}

/// The stderr line of a p99 metric, printed only when the tail rule
/// supports a p99 (at least ten samples beyond it).
pub fn p99_note(metric: &str, samples: &[f64]) -> String {
    match stats::tail(samples) {
        Some(t) if t.pct >= 99.0 => {
            let mut v = samples.to_vec();
            v.sort_by(f64::total_cmp);
            let p99 = stats::percentile(&v, 99.0);
            format!(
                "{metric:<17} {p99:.3} ms ({} samples; printed, not gated)",
                t.samples
            )
        }
        _ => format!(
            "{metric:<17} n/a ({} samples support no p99)",
            samples.len()
        ),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(num(&value)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The JSON result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_line(correct: bool, out: &RunOutput, names: &[(&str, &str)]) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = out.metrics.get(name).map_or(0.0, |m| m.1);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failures.total()
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let work = bench_dir
        .join(".work")
        .join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create the work directory");
    let epoch = Instant::now();
    let (seed, secs) = (args.seed, args.seconds);
    let out = match (args.workload.as_str(), args.trace) {
        ("sweep-large", false) => sweep::run(&sweep::large(), seed, secs, &work),
        ("sweep-small", false) => sweep::run(&sweep::small(), seed, secs, &work),
        ("serve-mixed", false) => serve::run(seed, secs, &work, epoch),
        ("sweep-large", true) => sweep::run_traced(&sweep::large(), seed, secs, &work, epoch),
        ("sweep-small", true) => sweep::run_traced(&sweep::small(), seed, secs, &work, epoch),
        ("serve-mixed", true) => serve::run_traced(seed, secs, &work, epoch),
        (other, _) => {
            let _ = std::fs::remove_dir_all(&work);
            eprintln!(
                "perfbench: unknown workload {other:?} (sweep-large, sweep-small, serve-mixed)"
            );
            std::process::exit(2);
        }
    };
    // The workloads keep every directory they write until here: on a disk
    // mounted with online discard, deleting mid-run makes every later
    // fsync of the run slower. Deleting once and syncing the parent pays
    // for the discards now, before exit, rather than in the next run.
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(bench_dir.join(".work"));
    let _ = std::fs::File::open(&bench_dir).and_then(|d| d.sync_all());

    let correct = out.failures.total() == 0;
    eprintln!(
        "perfbench {} seed={seed} seconds={secs} trace={}",
        args.workload,
        u8::from(args.trace)
    );
    for note in &out.notes {
        eprintln!("  {note}");
    }
    eprintln!(
        "  failed_share      {} ({} failed of {} attempted: {:?})",
        out.failures.share(out.attempted),
        out.failures.total(),
        out.attempted,
        out.failures
    );
    for (name, value, unit) in &out.metrics.0 {
        eprintln!("  {name:<32} {value:>14.6} {unit}");
    }
    let names: Vec<(&str, &str)> = if args.trace {
        let dir = bench_dir.join("out");
        let path = dir.join(format!("trace-{}-seed{seed}.json", args.workload));
        let logs: Vec<&SpanLog> = out.logs.iter().collect();
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_trace(&logs)))
        {
            Ok(()) => eprintln!("  chrome trace      {}", path.display()),
            Err(e) => eprintln!("  chrome trace not written: {e}"),
        }
        PER_LAYER.to_vec()
    } else {
        END_TO_END
            .iter()
            .map(|n| (*n, out.metrics.get(n).map_or("", |m| m.2.as_str())))
            .collect()
    };
    println!("{}", result_line(correct, &out, &names));
    if !correct {
        std::process::exit(1);
    }
}
