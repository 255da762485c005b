//! The two durable-sweep workloads: repeated `run_sweep` calls into fresh
//! directories, timed from outside, and (traced) a span-instrumented
//! replica of the same sweep built from the public layer calls.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pobp_engine::{run_batch, Algo, EngineConfig, IoGuard, SolveTask, TaskReport};
use pobp_instances::RandomWorkload;
use pobp_sweep::plan::{fnv1a, fnv1a_extend};
use pobp_sweep::{
    format_row, recover, run_sweep, ChunkPlan, ChunkRecord, Manifest, ShardWriter, SweepConfig,
    SweepSpec,
};

use crate::layers::{agrees, Replayer, TASK_WORK_SPANS};
use crate::rss::{self, RssSampler};
use crate::stats::{self, Failures, Rng};
use crate::trace::SpanLog;
use crate::{Metrics, RunOutput};

/// Engine threads per sweep: the load shape is sized for two cores.
const THREADS: usize = 2;
/// `(n, seed)` cells per chunk: the CLI's default.
const CHUNK_CELLS: usize = 8;
/// Set-ups of the coming sweep timed back to back before it runs; the
/// median over the run is `setup_s`.
const SETUP_BURST: u64 = 10;

/// One sweep workload's grid shape; every sweep of a run uses fresh seeds.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Instance sizes.
    pub ns: Vec<usize>,
    /// Preemption budgets.
    pub ks: Vec<u32>,
    /// Algorithm of every row.
    pub algo: Algo,
    /// Seeds per sweep (cells per sweep = `ns × seeds`).
    pub seeds: usize,
}

/// `sweep-large`: n=1000, k ∈ {1,2,4}, reduction — the reference layer
/// dominates every cell.
pub fn large() -> Shape {
    Shape {
        ns: vec![1000],
        ks: vec![1, 2, 4],
        algo: Algo::Reduction,
        seeds: 16,
    }
}

/// `sweep-small`: n ∈ {20,40}, k ∈ {0,1,2,4}, combined — solves are
/// microseconds, so per-chunk IO and engine overhead dominate.
pub fn small() -> Shape {
    Shape {
        ns: vec![20, 40],
        ks: vec![0, 1, 2, 4],
        algo: Algo::Combined,
        seeds: 2500,
    }
}

fn engine(threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        ..EngineConfig::default()
    }
}

/// The spec of sweep number `iter` of a run with workload seed `seed`.
fn spec(shape: &Shape, seed: u64, iter: u64) -> SweepSpec {
    // Seeds stay below 2^40 so every row prints them exactly.
    let base = pobp_engine::splitmix64(seed ^ (iter << 32) ^ 0x0073_7765_6570) & ((1 << 40) - 1);
    SweepSpec {
        ns: shape.ns.clone(),
        ks: shape.ks.clone(),
        seeds: (0..shape.seeds as u64).map(|i| base + i).collect(),
        algo: shape.algo,
        machines: 1,
        exact_ref: false,
        chunk_cells: CHUNK_CELLS,
    }
}

/// Set-up as `run_sweep` pays it before its first chunk, for the spec it is
/// about to run in the fresh directory `dir`: the checkpoint probe
/// (`Manifest::load`), planning the grid (its canonical spec string, digest
/// and chunk list) and the fresh manifest. Returns seconds. Creating the
/// directory and the manifest's first write are left out of the timing: on
/// a virtual disk one `mkdir` or `fsync` varies 5× between runs, which
/// would drown the plan.
fn setup(spec: &SweepSpec, dir: &Path) -> f64 {
    let t = Instant::now();
    let loaded = Manifest::load(dir).expect("probe the checkpoint");
    assert!(loaded.is_none(), "the sweep directory is fresh");
    let chunks = spec.chunks();
    std::hint::black_box(Manifest::fresh(
        spec.spec_string(),
        spec.digest(),
        chunks.len(),
    ));
    std::hint::black_box(chunks);
    t.elapsed().as_secs_f64()
}

/// Polls the manifest's length from outside the sweep and records when it
/// changes: the first change is the fresh manifest, each later one a chunk
/// recorded durable. The poll period follows the last interval seen (a
/// twentieth of it, within 1–10 ms), so the watcher wakes at most a
/// thousand times a second beside the two engine threads.
fn watch_manifest(path: PathBuf, stop: Arc<AtomicBool>, t0: Instant) -> Vec<u64> {
    let mut last = None;
    let mut changes: Vec<u64> = Vec::new();
    let mut period = Duration::from_millis(1);
    loop {
        let done = stop.load(Ordering::Acquire);
        if let Ok(m) = fs::metadata(&path) {
            if last != Some(m.len()) {
                last = Some(m.len());
                changes.push(t0.elapsed().as_nanos() as u64);
                if let [.., a, b] = changes[..] {
                    period = Duration::from_nanos((b - a) / 20)
                        .clamp(Duration::from_millis(1), Duration::from_millis(10));
                }
            }
        }
        if done {
            return changes;
        }
        std::thread::sleep(period);
    }
}

/// Checks a merged output against its grid — one `ok` row per task —
/// streaming it so the check adds no large buffer to the process's peak
/// memory. Returns the output's FNV-1a digest and the `take` rows starting
/// at row `skip` (the sampled chunk).
fn check_merged(
    spec: &SweepSpec,
    path: &Path,
    (skip, take): (usize, usize),
    fails: &mut Failures,
) -> (u64, Vec<String>) {
    let mut digest = fnv1a(b"");
    let mut sampled = Vec::new();
    let mut rows = 0usize;
    if let Ok(file) = fs::File::open(path) {
        for line in BufReader::new(file).lines() {
            let Ok(line) = line else { break };
            digest = fnv1a_extend(fnv1a_extend(digest, line.as_bytes()), b"\n");
            if !line.contains("\"status\":\"ok\"") {
                fails.not_ok += 1;
            }
            if rows >= skip && rows < skip + take {
                sampled.push(line);
            }
            rows += 1;
        }
    }
    if rows != spec.rows() {
        eprintln!(
            "check: {} has {rows} rows, the grid has {}",
            path.display(),
            spec.rows()
        );
        fails.mismatched += spec.rows().abs_diff(rows) as u64;
    }
    (digest, sampled)
}

/// Compares a chunk's merged rows with a 1-thread `run_batch` +
/// `format_row` of the same tasks.
fn check_chunk(chunk: &ChunkPlan, got: &[String], fails: &mut Failures) {
    let batch = run_batch(&chunk.tasks(), engine(1));
    let want: Vec<String> = chunk
        .coords()
        .iter()
        .zip(&batch.reports)
        .map(|(&(n, k, seed), r)| format_row(n, k, seed, chunk.algo, chunk.machines, r))
        .collect();
    let bad = want.iter().zip(got).filter(|(w, g)| w != g).count() + want.len().abs_diff(got.len());
    if bad > 0 {
        eprintln!(
            "check: chunk {}: {bad} rows differ from a 1-thread recomputation",
            chunk.index
        );
    }
    fails.mismatched += bad as u64;
}

struct Sweeps {
    rows: u64,
    wall_s: f64,
    walls_ms: Vec<f64>,
    chunk_ms: Vec<f64>,
    setups_s: Vec<f64>,
    chunks: u64,
    /// The first sweep's spec and merged digest.
    first: Option<(SweepSpec, u64)>,
}

/// Runs `run_sweep` on fresh specs until `budget` has passed. The first
/// sweep's randomly picked chunk is checked against a 1-thread
/// recomputation once the loop is done.
fn untraced_sweeps(
    shape: &Shape,
    seed: u64,
    budget: Duration,
    work: &Path,
    rng: &mut Rng,
    rss: Option<&RssSampler>,
    fails: &mut Failures,
) -> Sweeps {
    let mut out = Sweeps {
        rows: 0,
        wall_s: 0.0,
        walls_ms: Vec::new(),
        chunk_ms: Vec::new(),
        setups_s: Vec::new(),
        chunks: 0,
        first: None,
    };
    let mut sampled: Option<(ChunkPlan, Vec<String>)> = None;
    let start = Instant::now();
    let mut iter = 0;
    while out.walls_ms.is_empty() || start.elapsed() < budget {
        let spec = spec(shape, seed, iter);
        let dir = work.join(format!("sweep-{iter}"));
        fs::create_dir_all(&dir).expect("create the sweep directory");
        out.setups_s
            .extend((0..SETUP_BURST).map(|_| setup(&spec, &dir)));
        let cfg = SweepConfig {
            spec: spec.clone(),
            engine: engine(THREADS),
            resume: false,
            max_chunks: None,
        };
        let stop = Arc::new(AtomicBool::new(false));
        let t0 = Instant::now();
        let watcher = {
            let (path, stop) = (Manifest::path(&dir), Arc::clone(&stop));
            std::thread::spawn(move || watch_manifest(path, stop, t0))
        };
        let res = run_sweep(&dir, &cfg);
        let wall = t0.elapsed();
        stop.store(true, Ordering::Release);
        let changes = watcher.join().expect("manifest watcher");
        if let Some(rss) = rss {
            rss.cut();
        }
        out.walls_ms.push(wall.as_secs_f64() * 1e3);
        iter += 1;
        let outcome = match res {
            Ok(o) => o,
            Err(e) => {
                eprintln!("check: run_sweep failed: {e}");
                fails.mismatched += spec.rows() as u64;
                continue;
            }
        };
        out.chunk_ms
            .extend(changes.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e6));
        out.chunks += outcome.chunks_completed as u64;
        out.rows += outcome.rows_written;
        out.wall_s += wall.as_secs_f64();
        let pick = if out.first.is_none() {
            let chunks = spec.chunks();
            let chunk = chunks[rng.below(chunks.len() as u64) as usize].clone();
            let skip: usize = chunks[..chunk.index].iter().map(ChunkPlan::rows).sum();
            let take = chunk.rows();
            sampled = Some((chunk, Vec::new()));
            (skip, take)
        } else {
            (0, 0)
        };
        let (digest, rows) = check_merged(&spec, &dir.join("merged.jsonl"), pick, fails);
        if out.first.is_none() {
            if let Some((_, got)) = sampled.as_mut() {
                *got = rows;
            }
            out.first = Some((spec, digest));
        }
    }
    if let Some((chunk, got)) = &sampled {
        check_chunk(chunk, got, fails);
    }
    out
}

/// The untraced run: end-to-end metrics only.
pub fn run(shape: &Shape, seed: u64, seconds: u64, work: &Path) -> RunOutput {
    let mut fails = Failures::default();
    let mut rng = Rng::new(seed);
    let rss = RssSampler::start(None);
    let budget = Duration::from_secs(seconds);
    let s = untraced_sweeps(shape, seed, budget, work, &mut rng, Some(&rss), &mut fails);
    let peak_rss = rss.finish();
    let mut m = Metrics::default();
    m.push("setup_s", stats::median(&s.setups_s), "s");
    m.push("rows_per_s", s.rows as f64 / s.wall_s, "1/s");
    m.push("ack_p50_ms", stats::median(&s.chunk_ms), "ms");
    m.push("done_p50_ms", stats::median(&s.walls_ms), "ms");
    m.push("peak_rss_mb", peak_rss, "MiB");
    let mut notes = vec![
        format!(
            "VmHWM             {:.3} MiB (all-time peak, not gated)",
            rss::hwm_mib()
        ),
        format!(
            "sweeps            {} ({} rows, {} chunks, {:.3} s in run_sweep)",
            s.walls_ms.len(),
            s.rows,
            s.chunks,
            s.wall_s
        ),
        format!("setup samples     {}", s.setups_s.len()),
        format!(
            "jobs_per_s        {:.3} 1/s (chunks made durable)",
            s.chunks as f64 / s.wall_s
        ),
    ];
    notes.push(crate::tail_note("ack (chunk commit interval)", &s.chunk_ms));
    notes.push(crate::tail_note("done (whole sweep)", &s.walls_ms));
    notes.push(crate::p99_note("ack_p99_ms", &s.chunk_ms));
    notes.push(crate::p99_note("done_p99_ms", &s.walls_ms));
    let walls: Vec<String> = s.walls_ms.iter().map(|w| format!("{w:.0}")).collect();
    notes.push(format!("sweep walls ms    {}", walls.join(" ")));
    RunOutput::new(m, s.rows, fails, notes)
}

/// Per-chunk IO timings of the traced replica, for the growth report.
struct ChunkIo {
    index: usize,
    fsync_ms: f64,
    manifest_ms: f64,
}

/// Engine accounting of the traced replica, summed over its batches.
#[derive(Default)]
struct EngineLedger {
    tasks: u64,
    ref_hits: u64,
    steal_attempts: u64,
    steal_hits: u64,
}

/// One chunk of a traced replica: its plan, tasks and the engine's reports.
type RanChunk = (ChunkPlan, Vec<SolveTask>, Vec<TaskReport>);

/// Replica of `run_sweep` for a fresh directory, one span per layer call.
/// Returns the replica's wall, its merged bytes, and every chunk's tasks
/// with the engine's reports for the side pass.
fn traced_sweep(
    spec: &SweepSpec,
    dir: &Path,
    iter: u64,
    log: &mut SpanLog,
    ledger: &mut EngineLedger,
    io: &mut Vec<ChunkIo>,
) -> (f64, Vec<u8>, Vec<RanChunk>) {
    let guard = IoGuard::inert();
    let t0 = Instant::now();
    let plan = log.begin("sweep.plan", iter);
    let chunks = spec.chunks();
    let mut manifest = Manifest::fresh(spec.spec_string(), spec.digest(), chunks.len());
    fs::create_dir_all(dir).expect("create the sweep directory");
    log.end(plan);
    log.time("sweep.manifest_write", iter, || manifest.write(dir, &guard))
        .expect("write manifest");
    let mut ran = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let req = chunk.index as u64;
        let mut tasks = Vec::with_capacity(chunk.rows());
        for &(n, seed) in &chunk.cells {
            let instance = log.time("instances.generate", req, || {
                RandomWorkload::standard(n).generate(seed)
            });
            for &k in &chunk.ks {
                tasks.push(SolveTask {
                    instance: instance.clone(),
                    k,
                    machines: chunk.machines,
                    algo: chunk.algo,
                    exact_ref: chunk.exact_ref,
                    label: format!("n={n} k={k} seed={seed}"),
                });
            }
        }
        let key = log.time("sweep.chunk_key", req, || chunk.key_of(&tasks));
        let mut writer = log
            .time("sweep.shard_open", req, || {
                let state = recover(&pobp_sweep::shard::shard_path(dir, chunk.index))?;
                ShardWriter::open(dir, chunk.index, &state, IoGuard::inert())
            })
            .expect("open shard");
        let batch = log.time("engine.batch", req, || run_batch(&tasks, engine(THREADS)));
        ledger.tasks += batch.stats.tasks as u64;
        ledger.ref_hits += batch.stats.ref_cache_hits as u64;
        ledger.steal_attempts += batch.stats.steal_attempts as u64;
        ledger.steal_hits += batch.stats.steal_hits as u64;
        for (&(n, k, seed), report) in chunk.coords().iter().zip(&batch.reports) {
            let row = log.time("sweep.format", req, || {
                format_row(n, k, seed, chunk.algo, chunk.machines, report)
            });
            log.time("sweep.shard_append", req, || writer.append_row(&row))
                .expect("append row");
        }
        let fsync = log.begin("sweep.shard_fsync", req);
        let done = writer.finish().expect("fsync shard");
        let fsync_ns = log.end(fsync);
        manifest.done.push(ChunkRecord {
            index: chunk.index,
            key,
            rows: done.rows,
            bytes: done.bytes,
            digest: done.digest,
        });
        let mw = log.begin("sweep.manifest_write", req);
        manifest.write(dir, &guard).expect("write manifest");
        let manifest_ns = log.end(mw);
        io.push(ChunkIo {
            index: chunk.index,
            fsync_ms: fsync_ns as f64 / 1e6,
            manifest_ms: manifest_ns as f64 / 1e6,
        });
        ran.push((chunk, tasks, batch.reports));
    }
    let merged = log.time("sweep.merge", iter, || {
        let mut merged = Vec::new();
        for rec in &manifest.done {
            let path = pobp_sweep::shard::shard_path(dir, rec.index);
            let bytes = fs::read(path).expect("read shard");
            assert!(
                bytes.len() as u64 == rec.bytes && fnv1a(&bytes) == rec.digest,
                "shard digest"
            );
            merged.extend_from_slice(&bytes);
        }
        guard
            .atomic_replace(&dir.join("merged.jsonl"), &merged)
            .expect("write merged.jsonl");
        merged
    });
    (t0.elapsed().as_secs_f64(), merged, ran)
}

/// The side pass over a replica's chunks, run after it so its IO timing is
/// undisturbed: a 1-thread batch of each chunk (whose wall is the tasks'
/// busy time, and whose rows must equal the 2-thread rows byte for byte)
/// and the layer replay of every task (which must reproduce the engine's
/// output).
fn side_pass(ran: &[RanChunk], log: &mut SpanLog, replayer: &mut Replayer, fails: &mut Failures) {
    for (chunk, tasks, reports) in ran {
        let req = chunk.index as u64;
        let one = log.time("engine.batch_1t", req, || run_batch(tasks, engine(1)));
        replayer.clear();
        for (i, (task, report)) in tasks.iter().zip(reports).enumerate() {
            let replayed = replayer.replay(task, log, req);
            if !agrees(&report.result, replayed.as_ref()) {
                eprintln!(
                    "check: chunk {} task {i}: layer replay disagrees with the engine",
                    chunk.index
                );
                fails.mismatched += 1;
            }
        }
        for ((&(n, k, seed), a), b) in chunk.coords().iter().zip(reports).zip(&one.reports) {
            if format_row(n, k, seed, chunk.algo, chunk.machines, a)
                != format_row(n, k, seed, chunk.algo, chunk.machines, b)
            {
                eprintln!(
                    "check: chunk {}: 1-thread and 2-thread rows differ",
                    chunk.index
                );
                fails.mismatched += 1;
            }
        }
    }
}

/// The traced run: an untraced phase for the overhead baseline, then the
/// span-instrumented replica; reports the per-layer metrics.
pub fn run_traced(
    shape: &Shape,
    seed: u64,
    seconds: u64,
    work: &Path,
    epoch: Instant,
) -> RunOutput {
    let mut fails = Failures::default();
    let mut rng = Rng::new(seed);
    let budget = Duration::from_secs_f64(seconds as f64 * 0.3);
    let base = untraced_sweeps(shape, seed, budget, work, &mut rng, None, &mut fails);
    let untraced_row_s = base.wall_s / base.rows.max(1) as f64;

    let mut log = SpanLog::new(epoch, 1);
    let mut replayer = Replayer::new();
    let mut ledger = EngineLedger::default();
    let mut io = Vec::new();
    let mut wall_s = 0.0;
    let mut rows = 0u64;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds as f64 * 0.7);
    let mut iter = 0u64;
    while iter == 0 || start.elapsed() < budget {
        // The first replica re-runs the baseline's first spec, so its
        // merged bytes must equal what run_sweep wrote.
        let (spec, want) = match (&base.first, iter) {
            (Some((s, digest)), 0) => (s.clone(), Some(*digest)),
            _ => (spec(shape, seed, 1_000_000 + iter), None),
        };
        let dir = work.join(format!("traced-{iter}"));
        let (wall, merged, ran) = traced_sweep(&spec, &dir, iter, &mut log, &mut ledger, &mut io);
        side_pass(&ran, &mut log, &mut replayer, &mut fails);
        check_merged(&spec, &dir.join("merged.jsonl"), (0, 0), &mut fails);
        if want.is_some_and(|w| w != fnv1a(&merged)) {
            eprintln!("check: the traced replica's merged.jsonl differs from run_sweep's");
            fails.mismatched += 1;
        }
        wall_s += wall;
        rows += spec.rows() as u64;
        iter += 1;
    }
    let traced_row_s = wall_s / rows as f64;

    let a = |name: &str| log.agg(name);
    // The 1-thread batch of the same tasks never idles, so its wall is the
    // tasks' busy time; the 2-thread batch's wall is what the sweep waits.
    let batch_ns = a("engine.batch").total_ns as f64;
    let busy_ns = a("engine.batch_1t").total_ns as f64;
    let work_ns: u64 = TASK_WORK_SPANS.iter().map(|n| a(n).total_ns).sum();
    let direct = [
        "sweep.plan",
        "sweep.manifest_write",
        "instances.generate",
        "sweep.chunk_key",
        "sweep.shard_open",
        "sweep.format",
        "sweep.shard_append",
        "sweep.shard_fsync",
        "sweep.merge",
    ];
    let direct_ns: u64 = direct.iter().map(|n| a(n).self_ns).sum();
    let io_ns: u64 = [
        "sweep.manifest_write",
        "sweep.shard_open",
        "sweep.shard_append",
        "sweep.shard_fsync",
        "sweep.merge",
    ]
    .iter()
    .map(|n| a(n).total_ns)
    .sum();
    let wall_ns = wall_s * 1e9;
    let threads = THREADS as f64;

    let mut m = Metrics::default();
    crate::push_solver_layers(&mut m, &log);
    m.push("engine.batch_ms", a("engine.batch").mean_ms(), "ms");
    m.push(
        "engine.task_overhead_us",
        (busy_ns - work_ns as f64) / ledger.tasks.max(1) as f64 / 1e3,
        "us",
    );
    m.push("engine.busy_share", busy_ns / (threads * batch_ns), "share");
    m.push(
        "engine.ref_hit_ratio",
        ledger.ref_hits as f64 / ledger.tasks.max(1) as f64,
        "share",
    );
    m.push(
        "engine.steal_hit_ratio",
        ledger.steal_hits as f64 / ledger.steal_attempts.max(1) as f64,
        "share",
    );
    m.push("sweep.format_us", a("sweep.format").mean_ms() * 1e3, "us");
    m.push(
        "sweep.shard_append_us",
        a("sweep.shard_append").mean_ms() * 1e3,
        "us",
    );
    m.push(
        "sweep.shard_fsync_ms",
        a("sweep.shard_fsync").mean_ms(),
        "ms",
    );
    let chunk_ms = a("sweep.manifest_write");
    m.push("sweep.manifest_write_ms", chunk_ms.mean_ms(), "ms");
    let xs: Vec<f64> = io.iter().map(|c| c.index as f64).collect();
    let ys: Vec<f64> = io.iter().map(|c| c.manifest_ms * 1e3).collect();
    m.push(
        "sweep.manifest_write_slope_us",
        stats::slope(&xs, &ys),
        "us/chunk",
    );
    m.push("sweep.merge_ms", a("sweep.merge").mean_ms(), "ms");
    m.push("sweep.io_share", io_ns as f64 / wall_ns, "share");
    m.push(
        "attributed",
        (direct_ns as f64 + busy_ns / threads) / wall_ns,
        "share",
    );
    m.push(
        "trace_overhead",
        traced_row_s / untraced_row_s - 1.0,
        "share",
    );

    let mut notes = vec![
        format!("traced replica    {iter} sweeps, {rows} rows, {wall_s:.3} s wall (side pass excluded)"),
        format!("untraced baseline {} sweeps, {} rows, {:.3} s", base.walls_ms.len(), base.rows, base.wall_s),
        format!(
            "engine ledger     batch {:.1} ms on {THREADS} threads, 1-thread busy {:.1} ms, solver+cert spans {:.1} ms, {} tasks",
            batch_ns / 1e6,
            busy_ns / 1e6,
            work_ns as f64 / 1e6,
            ledger.tasks
        ),
    ];
    notes.extend(io_growth(&io));
    let mut out = RunOutput::new(m, rows, fails, notes);
    out.logs.push(log);
    out
}

/// Shard fsync and manifest write time against the chunk index, by decile
/// of the index range, since the manifest grows with every chunk.
fn io_growth(io: &[ChunkIo]) -> Vec<String> {
    let Some(max) = io.iter().map(|c| c.index).max() else {
        return Vec::new();
    };
    let mut lines = vec!["chunk-index decile   chunks  fsync_ms  manifest_write_ms".to_string()];
    for d in 0..10 {
        let lo = max * d / 10;
        let hi = if d == 9 { max + 1 } else { max * (d + 1) / 10 };
        let sel: Vec<&ChunkIo> = io
            .iter()
            .filter(|c| c.index >= lo && c.index < hi)
            .collect();
        if sel.is_empty() {
            continue;
        }
        let f: Vec<f64> = sel.iter().map(|c| c.fsync_ms).collect();
        let w: Vec<f64> = sel.iter().map(|c| c.manifest_ms).collect();
        lines.push(format!(
            "  [{lo:>5}, {hi:>5})   {:>6}  {:>8.4}  {:>8.4}",
            sel.len(),
            stats::mean(&f),
            stats::mean(&w)
        ));
    }
    lines
}
