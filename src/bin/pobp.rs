//! `pobp` — command-line front end for the Price-of-Bounded-Preemption
//! library.
//!
//! ```text
//! pobp gen --kind fig2 --n 8                      # emit an instance (text format)
//! pobp gen --kind random --n 50 --seed 3
//! pobp gen --kind fig4 --k 2 --depth 3
//! pobp solve --k 1 --alg combined < jobs.txt      # schedule an instance
//! pobp solve --k 2 --alg reduction --gantt < jobs.txt
//! pobp price --k 1 < jobs.txt                     # exact price (small instances)
//! ```
//!
//! The instance format is the one of `pobp::prelude::{write_jobs, parse_jobs}`:
//! one `release deadline length value` line per job.

use pobp::cli::{flag_value, has_flag, only_flags, parse_num_list_strict, parse_num_strict};
use pobp::instances::{check_zoo_cell, fig4_size, CellSizeError};
use pobp::serve::job::MAX_JOB_N;
use pobp::prelude::*;
use pobp::core::json::Json;
use pobp::sweep::rows::format_row;
use std::io::Read;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--obs`/`--obs-out` arm the counter aggregate for the whole command,
    // which reports after it (`emit_obs_report`).
    let _obs = (has_flag(&args, "--obs") || has_flag(&args, "--obs-out")).then(pobp::obs::arm);
    let code = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("solve") => cmd_solve(&args[1..]),
        Some("price") => cmd_price(&args[1..]),
        Some("sim") => cmd_sim(&args[1..]),
        Some("choose-k") => cmd_choose_k(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("online") => cmd_online(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
    .and_then(|()| emit_obs_report(&args))
    .map_or_else(
        |e| {
            eprintln!("error: {e}");
            1
        },
        |()| 0,
    );
    std::process::exit(code);
}

/// Handles the global `--obs` / `--obs-out FILE` flags after a successful
/// command: dump the JSON counter report (docs/observability.md) of
/// everything the command counted to stderr, or to FILE. `--obs-out`
/// without a value is an error, not a silent no-op.
fn emit_obs_report(args: &[String]) -> Result<(), String> {
    if let Some(path) = flag_value(args, "--obs-out")? {
        std::fs::write(&path, pobp::obs::report_json())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote obs report to {path}");
    } else if has_flag(args, "--obs") {
        eprintln!("{}", pobp::obs::report_json());
    }
    Ok(())
}

/// [`only_flags`] with the global `--obs` switch and `--obs-out` value
/// flag, which every command honours ([`emit_obs_report`]).
fn known_flags(args: &[String], values: &[&str], switches: &[&str]) -> Result<(), String> {
    only_flags(args, &[values, &["--obs-out"]].concat(), &[switches, &["--obs"]].concat())
}

/// A zoo cell a command cannot build, as an error naming the flag at fault.
fn flag_error(e: CellSizeError) -> String {
    format!("invalid value for --{}: {}", e.field, e.reason)
}

/// `--trace FILE` (Chrome trace-event JSON) and `--trace-logical FILE` of
/// `solve`, `sweep` and `online`, read before any work (not globally: `sim
/// --trace` is an unrelated boolean flag). Asking for either arms the full
/// trace record until the files are written.
struct TraceFiles {
    chrome: Option<String>,
    logical: Option<String>,
    _armed: Option<pobp::trace::Armed>,
}

impl TraceFiles {
    fn arm(args: &[String]) -> Result<TraceFiles, String> {
        let chrome = flag_value(args, "--trace")?;
        let logical = flag_value(args, "--trace-logical")?;
        Ok(TraceFiles {
            _armed: (chrome.is_some() || logical.is_some())
                .then(|| pobp::trace::arm(pobp::trace::Sink::Record)),
            chrome,
            logical,
        })
    }

    /// Writes the requested files from everything recorded since
    /// [`TraceFiles::arm`].
    fn write(self) -> Result<(), String> {
        if self.chrome.is_none() && self.logical.is_none() {
            return Ok(());
        }
        let events = pobp::trace::drain();
        if let Some(path) = &self.chrome {
            std::fs::write(path, pobp::trace::chrome_json(&events))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote Chrome trace to {path} ({} events)", events.len());
        }
        if let Some(path) = &self.logical {
            std::fs::write(path, pobp::trace::logical_text(&events))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote logical trace to {path}");
        }
        Ok(())
    }
}

const USAGE: &str = "\
pobp — The Price of Bounded Preemption (SPAA'18) toolbox

USAGE:
  pobp gen --kind <fig2|fig4|random|periodic> [--n N] [--k K] [--depth L] [--seed S]
  pobp solve --k K [--alg <reduction|combined|lsa|k0>] [--gantt] [--svg FILE]
             [--trace FILE]
  pobp price --k K                                                  (instance on stdin)
  pobp sim --policy <edf|budget|nonpre> [--k K] [--delta D]         (instance on stdin)
  pobp choose-k --delta D [--kmax K]                                (instance on stdin)
  pobp replay --plan FILE --delta D                                 (instance on stdin)
  pobp sweep [--n LIST] [--k LIST] [--seeds S] [--alg A] [--threads N]
             [--deadline-ms MS] [--machines M] [--exact-ref] [--no-cache]
             [--retries R] [--degrade] [--progress]
             [--out DIR] [--resume] [--chunk-cells N] [--max-chunks N]
             [--trace FILE] [--trace-logical FILE]
                                                 (grid sweep, JSON lines on stdout
                                                  or crash-safe shards under --out)
  pobp online [--alg <djn|greedy|edf|all>] [--families LIST] [--n LIST]
              [--k LIST] [--seeds S] [--threads N] [--exact-ref] [--no-cache]
              [--retries R] [--degrade] [--deadline-ms MS] [--progress]
              [--trace FILE] [--trace-logical FILE]
                                                 (competitive-ratio lab, JSON lines)
  pobp serve [--addr HOST:PORT] [--dir DIR] [--workers N] [--queue-cap N]
             [--degrade] [--compact-every N]
             [--metrics-addr HOST:PORT] [--flight-dir DIR]
                                                 (scheduling daemon, docs/serve.md)

Any command also accepts --obs (print the JSON counter report to stderr) or
--obs-out FILE (write it to FILE); see docs/observability.md. A flag the
command does not know, a repeated flag, and any other argument that is not
a flag's value are errors.

solve, sweep and online accept --trace FILE (Chrome trace-event JSON — open
in Perfetto / chrome://tracing) and --trace-logical FILE (the deterministic
logical trace: ordering and phase transitions, timestamps stripped,
byte-identical across --threads). sweep --progress draws a live stderr
meter (rows done/total, throughput, running p50 task latency,
degrade/cert-fail counts); with --out, one line of the whole sweep's
chunks and rows done.

sweep runs the (n, k, seed) grid through the parallel batch engine
(docs/engine.md): one JSON line per task on stdout, in deterministic grid
order regardless of --threads; the batch summary goes to stderr. LIST
flags take comma-separated values (e.g. --n 20,40 --k 0,1,2); --seeds S
sweeps seeds 0..S. --alg is one of reduction|combined|lsa|k0 (plus the
test-only `panic`, which exercises panic isolation). --degrade arms the
graceful-degradation ladder (docs/robustness.md): tasks that exhaust
retries or overrun --deadline-ms fall back to the polynomial algorithm and
report status \"degraded\" instead of failing.

sweep --out DIR switches to the crash-safe sharded mode (docs/sweeps.md):
the grid is split into content-addressed chunks of --chunk-cells (n, seed)
cells, each chunk's rows stream to DIR/shard-NNNNN.jsonl, and progress is
checkpointed in DIR/manifest.json (a header, then one fsynced record line
appended per finished chunk). A killed sweep
continues with --resume — completed chunks are digest-verified and
skipped, torn shard tails are healed, only missing rows are recomputed —
and the final DIR/merged.jsonl is byte-identical to an uninterrupted run
(any --threads). --max-chunks N stops after N chunks (still resumable).

serve starts the persistent scheduling daemon (docs/serve.md): named solve
jobs over newline-delimited JSON on TCP, a bounded priority queue with
structured rejections, per-job cancel, content-keyed result reuse, and a
durable journal in --dir that survives kill -9 (acknowledged jobs and
finished results are recovered on restart). Drive it with pobp-client,
and watch it live with `pobp-client top`, which polls the stats op
(counters, levels, uptime, job latency and per-algorithm counts).
--metrics-addr exposes the same reading as a Prometheus scrape endpoint
of cumulative counters and levels (docs/observability.md). --flight-dir
collects bounded flight-recorder dumps (Chrome trace JSON) on panics,
cert failures, journal poisoning, or an explicit dump-flight op.

online runs the online-arrival competitive-ratio lab (docs/online.md): jobs
are revealed at release, commitments are irrevocable, and each job carries
the per-job preemption budget k. The sweep crosses --families (zoo families
periodic|bursty|fig2|fig4|random) with --n/--k/--seeds, runs each online
algorithm (--alg djn|greedy|edf, or all) *and* a paired offline OPT_k
oracle task through the batch engine, and emits one JSON line per online
row with the certified oracle value, the empirical competitive ratio
oracle/value, and the (1+sqrt(P))^2 reference bound. Rows are byte-identical
across --threads. The oracle is the certified Theorem-4.2 reduction value,
upgraded to the exact OPT_k on instances small enough for the exact solver.

sweep, online and serve also accept the fault-injection flags
  --chaos SPEC      comma-separated site:rate entries, e.g.
                    panic:0.25,deadline:1,corrupt-ref:0.5 with sites
                    panic|flaky|delay|cancel|deadline|corrupt-ref
                    |io-short-write|io-fsync|io-rename|io-torn-tail|io-disk-full
                    (the pseudo-site delay-ms:N sets the delay duration);
                    each site at most once
  --chaos-seed S    seed of the fault plan (default 0; needs --chaos); the
                    same seed over the same grid injects the same faults on
                    any --threads
The io-* sites fire inside the sweep shard writer and the serve journal
(docs/sweeps.md); the rest fire inside the engine (docs/robustness.md).
Without --chaos no site fires and every output is unchanged.
";

fn cmd_gen(args: &[String]) -> Result<(), String> {
    known_flags(args, &["--kind", "--n", "--k", "--depth", "--seed"], &[])?;
    let kind = flag_value(args, "--kind")?.ok_or("gen needs --kind")?;
    let jobs = match kind.as_str() {
        "fig2" => {
            let n: u32 = parse_num_strict(args, "--n", 8u32)?;
            check_zoo_cell(ZooFamily::Fig2, n as usize, 0, usize::MAX).map_err(flag_error)?;
            Fig2Instance::new(n).build()
        }
        "fig4" => {
            let k: u32 = parse_num_strict(args, "--k", 1u32)?;
            let depth: u32 = parse_num_strict(args, "--depth", 3u32)?;
            if let Err(rule) = fig4_size(k, depth) {
                // The depth is at fault unless even this k's depth-1 cell breaks.
                let (field, got) =
                    if fig4_size(k, depth.min(1)).is_err() { ("k", k) } else { ("depth", depth) };
                let reason = format!("too large for family fig4: {rule} (got {got})");
                return Err(flag_error(CellSizeError { field, reason }));
            }
            Fig4Instance::for_k(k.max(1), depth).build().jobs
        }
        "random" => {
            let n: usize = parse_num_strict(args, "--n", 30usize)?;
            let seed: u64 = parse_num_strict(args, "--seed", 0u64)?;
            RandomWorkload::standard(n).generate(seed)
        }
        "periodic" => {
            let seed: u64 = parse_num_strict(args, "--seed", 0u64)?;
            // A few standard tasks, jittered by the seed.
            let s = seed as i64 % 5;
            TaskSet::new(vec![
                PeriodicTask { wcet: 2 + s % 2, period: 10, deadline: 7, value: 5.0, offset: 0 },
                PeriodicTask { wcet: 4, period: 15, deadline: 15, value: 7.0, offset: 1 + s },
                PeriodicTask { wcet: 6, period: 30, deadline: 24, value: 9.0, offset: 2 },
            ])
            .unroll_hyperperiod()
            .0
        }
        other => return Err(format!("unknown --kind {other}")),
    };
    print!("{}", write_jobs(&jobs));
    Ok(())
}

fn read_stdin_jobs() -> Result<JobSet, String> {
    let mut text = String::new();
    std::io::stdin()
        .read_to_string(&mut text)
        .map_err(|e| format!("reading stdin: {e}"))?;
    let jobs = parse_jobs(&text)?;
    if jobs.is_empty() {
        return Err("no jobs on stdin (pipe an instance, e.g. from `pobp gen`)".into());
    }
    Ok(jobs)
}

fn cmd_solve(args: &[String]) -> Result<(), String> {
    known_flags(
        args,
        &["--k", "--alg", "--svg", "--out", "--trace", "--trace-logical"],
        &["--gantt"],
    )?;
    let trace = TraceFiles::arm(args)?;
    let k: u32 = parse_num_strict(args, "--k", 1u32)?;
    let alg = flag_value(args, "--alg")?.unwrap_or_else(|| "combined".into());
    let svg_out = flag_value(args, "--svg")?;
    let schedule_out = flag_value(args, "--out")?;
    let jobs = read_stdin_jobs()?;
    let ids: Vec<JobId> = jobs.ids().collect();

    let schedule = {
        // Tag the whole solve as one task span so `--trace` output groups
        // the algorithm-stage timers under it.
        let _task = pobp::trace::task_scope(0, &alg);
        match alg.as_str() {
            "reduction" => {
                let inf = greedy_unbounded(&jobs, &ids);
                reduce_to_k_bounded(&jobs, &inf.schedule, k)
                    .map_err(|e| e.to_string())?
                    .schedule
            }
            "combined" => combined_from_scratch(&jobs, &ids, k).chosen,
            "lsa" => lsa_cs(&jobs, &ids, k).schedule,
            "k0" => schedule_k0(&jobs, &ids).schedule,
            other => return Err(format!("unknown --alg {other}")),
        }
    };
    let effective_k = if alg == "k0" { 0 } else { k };
    schedule
        .verify(&jobs, Some(effective_k))
        .map_err(|e| format!("internal: produced infeasible schedule: {e}"))?;

    let stats = schedule_stats(&jobs, &schedule);
    println!(
        "algorithm {alg}, k = {effective_k}: scheduled {}/{} jobs, value {} ({:.0}% of total), \
         {} preemptions",
        stats.scheduled,
        jobs.len(),
        stats.value,
        stats.value_fraction * 100.0,
        stats.total_preemptions,
    );
    for id in schedule.scheduled_ids() {
        let segs = schedule.segments(id).expect("scheduled");
        let pretty: Vec<String> =
            segs.iter().map(|s| format!("[{}, {})", s.start, s.end)).collect();
        println!("  {id}: {}", pretty.join(" "));
    }
    if has_flag(args, "--gantt") {
        println!();
        print!("{}", render_gantt(&jobs, &schedule, RenderOptions::default()));
    }
    if let Some(path) = svg_out {
        let svg = render_svg(&jobs, &schedule, SvgOptions::default());
        std::fs::write(&path, svg).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = schedule_out {
        std::fs::write(&path, write_schedule(&schedule))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    trace.write()
}

fn cmd_price(args: &[String]) -> Result<(), String> {
    known_flags(args, &["--k"], &[])?;
    let k: u32 = parse_num_strict(args, "--k", 1u32)?;
    let jobs = read_stdin_jobs()?;
    if jobs.len() > 20 {
        return Err(format!(
            "exact price needs a small instance (n ≤ 20), got n = {}",
            jobs.len()
        ));
    }
    let ids: Vec<JobId> = jobs.ids().collect();
    let opt = opt_unbounded(&jobs, &ids);
    println!("OPT_∞ = {} ({} jobs)", opt.value, opt.subset.len());
    let red = reduce_to_k_bounded(&jobs, &opt.schedule, k).map_err(|e| e.to_string())?;
    println!("reduction value at k = {k}: {}", red.schedule.value(&jobs));
    let k0 = opt_nonpreemptive(&jobs, &ids);
    println!("OPT_0 (exact) = {}", k0.value);
    println!(
        "price bracket at k = {k}: [{:.3}, {:.3}]   (OPT_∞/OPT_k ∈ [OPT_∞/OPT_∞, OPT_∞/alg])",
        1.0,
        opt.value / red.schedule.value(&jobs).max(f64::MIN_POSITIVE)
    );
    println!("price at k = 0 (exact): {:.3}", opt.value / k0.value.max(f64::MIN_POSITIVE));
    println!(
        "bounds: log_(k+1) n = {:.2}, min(n, 3·log2 P) = {:.2}",
        loss_bound(jobs.len(), k.max(1)),
        (jobs.len() as f64).min(3.0 * jobs.length_ratio().unwrap_or(1.0).log2().max(1.0)),
    );
    Ok(())
}

fn cmd_sim(args: &[String]) -> Result<(), String> {
    known_flags(args, &["--policy", "--k", "--delta"], &["--trace"])?;
    let delta: i64 = parse_num_strict(args, "--delta", 0i64)?;
    let k: u32 = parse_num_strict(args, "--k", 1u32)?;
    let policy = match flag_value(args, "--policy")?.as_deref().unwrap_or("edf") {
        "edf" => Policy::Edf,
        "budget" => Policy::EdfBudget(k),
        "nonpre" => Policy::NonPreemptive,
        other => return Err(format!("unknown --policy {other}")),
    };
    let jobs = read_stdin_jobs()?;
    let ids: Vec<JobId> = jobs.ids().collect();
    let out = execute_online(&jobs, &ids, SimConfig { policy, switch_cost: delta });
    out.trace.check().map_err(|e| format!("internal: inconsistent trace: {e}"))?;
    println!(
        "policy {policy:?}, switch cost {delta}: completed {}/{} jobs, value {} of {}",
        out.schedule.len(),
        jobs.len(),
        out.value(&jobs),
        jobs.total_value(),
    );
    println!(
        "switches {}, overhead {} ticks, useful work {} ticks, wasted work {} ticks",
        out.trace.switches(),
        out.trace.overhead_time(),
        out.trace.work_time(),
        out.trace.work_time()
            - out
                .schedule
                .scheduled_ids()
                .map(|j| jobs.job(j).length)
                .sum::<i64>(),
    );
    if !out.dropped.is_empty() {
        let names: Vec<String> = out.dropped.iter().map(|j| j.to_string()).collect();
        println!("dropped: {}", names.join(" "));
    }
    if has_flag(args, "--trace") {
        for (t, e) in &out.trace.events {
            println!("{t:>6}  {e:?}");
        }
    }
    Ok(())
}

fn cmd_choose_k(args: &[String]) -> Result<(), String> {
    known_flags(args, &["--delta", "--kmax"], &[])?;
    let delta: i64 = parse_num_strict(args, "--delta", 2i64)?;
    let k_max: u32 = parse_num_strict(args, "--kmax", 4u32)?;
    let jobs = read_stdin_jobs()?;
    let ids: Vec<JobId> = jobs.ids().collect();
    let inf = greedy_unbounded(&jobs, &ids);
    // One schedule-forest pass serves every k in the table; the greedy
    // reference is an EDF output, its own laminarization.
    let table = choose_k(&jobs, &ReductionPlan::from_edf(&jobs, &inf.schedule), delta, k_max);
    println!(" k | planned value | replayed value @ δ={delta}");
    println!("---+---------------+------------------------");
    for row in &table.rows {
        println!(" {} | {:13} | {}", row.k, row.planned_value, row.replayed_value);
    }
    let choice = table.chosen();
    println!(
        "\nrecommendation: k = {} (replayed value {}, vs {} planned)",
        choice.k, choice.replayed_value, choice.planned_value
    );
    Ok(())
}

/// `pobp sweep`: expand an (n, k, seed) grid into solver tasks and run them
/// through the parallel batch engine — one JSON line per task on stdout,
/// or, with `--out DIR`, streamed to crash-safe shard files with a
/// checkpoint manifest and `--resume` support (docs/sweeps.md).
///
/// Output lines are a pure function of the grid — no durations, no cache
/// flags — so `--threads 4` and `--threads 1` emit byte-identical bytes
/// (the determinism contract of docs/engine.md), and a killed `--out`
/// sweep resumes to the same merged bytes. The batch summary goes to
/// stderr.
fn cmd_sweep(args: &[String]) -> Result<(), String> {
    known_flags(
        args,
        &[
            "--n", "--k", "--seeds", "--alg", "--threads", "--deadline-ms", "--machines",
            "--retries", "--out", "--chunk-cells", "--max-chunks", "--trace", "--trace-logical",
            "--chaos", "--chaos-seed",
        ],
        &["--exact-ref", "--no-cache", "--degrade", "--progress", "--resume"],
    )?;
    let ns: Vec<usize> = parse_num_list_strict(args, "--n", &[20, 40])?;
    let ks: Vec<u32> = parse_num_list_strict(args, "--k", &[0, 1, 2, 4])?;
    let seed_count: u64 = parse_num_strict(args, "--seeds", 5u64)?;
    let threads: usize = parse_num_strict(args, "--threads", 0usize)?;
    let deadline_ms: u64 = parse_num_strict(args, "--deadline-ms", 0u64)?;
    let machines: usize = parse_num_strict(args, "--machines", 1usize)?;
    let retries: u32 = parse_num_strict(args, "--retries", 1u32)?;
    let chunk_cells: usize = parse_num_strict(args, "--chunk-cells", 8usize)?;
    let max_chunks: usize = parse_num_strict(args, "--max-chunks", 0usize)?;
    let out_dir = flag_value(args, "--out")?;
    let resume = has_flag(args, "--resume");
    if resume && out_dir.is_none() {
        return Err("--resume needs --out DIR (the checkpoint directory)".into());
    }
    let alg_name = flag_value(args, "--alg")?.unwrap_or_else(|| "reduction".into());
    let algo = Algo::parse(&alg_name)
        .ok_or_else(|| format!("unknown --alg {alg_name} (try reduction|combined|lsa|k0)"))?;
    let exact_ref = has_flag(args, "--exact-ref");
    if machines == 0 {
        return Err("--machines must be at least 1".into());
    }
    let chaos = chaos_plan(args)?;

    let seeds: Vec<u64> = (0..seed_count).collect();
    if ns.is_empty() || ks.is_empty() || seeds.is_empty() {
        return Err("empty grid: every one of --n/--k/--seeds needs at least one value".into());
    }
    let cfg = EngineConfig {
        threads,
        deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        max_retries: retries,
        use_cache: !has_flag(args, "--no-cache"),
        degrade: has_flag(args, "--degrade"),
        progress: has_flag(args, "--progress"),
        chaos,
        ..EngineConfig::default()
    };
    let trace = TraceFiles::arm(args)?;

    if let Some(dir) = out_dir {
        // Sharded, checkpointed mode: rows go to shard files under DIR,
        // progress to manifest.json, and — once every chunk is recorded —
        // the digest-verified merge to DIR/merged.jsonl.
        let sweep_cfg = pobp::sweep::SweepConfig {
            spec: pobp::sweep::SweepSpec {
                ns,
                ks,
                seeds,
                algo,
                machines,
                exact_ref,
                chunk_cells,
            },
            engine: cfg,
            resume,
            max_chunks: (max_chunks > 0).then_some(max_chunks),
        };
        let out = pobp::sweep::run_sweep(std::path::Path::new(&dir), &sweep_cfg)?;
        let s = out.stats;
        eprintln!(
            "sweep: {}/{} chunks done ({} new, {} skipped), {} rows written, \
             {} rows recovered, {} torn bytes healed; engine: {} tasks ({} run, {} degraded, \
             {} cert-failed, {} panicked, {} retries) on {} threads",
            out.chunks_skipped + out.chunks_completed,
            out.chunks_total,
            out.chunks_completed,
            out.chunks_skipped,
            out.rows_written,
            out.rows_recovered,
            out.torn_bytes,
            s.tasks,
            s.run,
            s.degraded,
            s.cert_failed,
            s.panicked,
            s.retried,
            if threads == 0 { "auto".to_string() } else { threads.to_string() },
        );
        match &out.merged {
            Some(path) => eprintln!("sweep: merged output at {}", path.display()),
            None => eprintln!("sweep: incomplete — rerun with --resume to continue"),
        }
        return trace.write();
    }

    let grid = GridSpec { ns: ns.clone(), ks: ks.clone(), seeds, algo, machines, exact_ref };
    let batch = pobp::engine::run_batch(&grid.tasks(), cfg);

    // Rebuild the grid coordinates in task order (ns × seeds × ks — the
    // GridSpec expansion order) and emit one JSON line per report, through
    // the same formatter the shard writer uses (byte-identical rows).
    let mut coords = Vec::with_capacity(grid.len());
    for &n in &ns {
        for &seed in &grid.seeds {
            for &k in &ks {
                coords.push((n, k, seed));
            }
        }
    }
    for (&(n, k, seed), report) in coords.iter().zip(&batch.reports) {
        println!("{}", format_row(n, k, seed, algo, machines, report));
    }
    let s = batch.stats;
    eprintln!(
        "sweep: {} tasks ({} run, {} degraded, {} cert-failed, {} panicked, \
         {} timed out, {} cancelled, {} retries, {} ref-cache hits, \
         {} steals/{} probes) on {} threads",
        s.tasks,
        s.run,
        s.degraded,
        s.cert_failed,
        s.panicked,
        s.timed_out,
        s.cancelled,
        s.retried,
        s.ref_cache_hits,
        s.steal_hits,
        s.steal_attempts,
        if threads == 0 { "auto".to_string() } else { threads.to_string() },
    );
    trace.write()
}

/// `pobp online`: the competitive-ratio lab. Runs the batch of an
/// [`OnlineLab`] over the instance-zoo families and `--n/--k/--seeds`
/// through the engine and emits one JSON line per lab row: certified value,
/// oracle value and kind, the empirical ratio `oracle / value`, and the
/// `(1+√P)²` reference bound.
///
/// Like `sweep`, stdout rows are a pure function of the request — no
/// durations, no cache flags — so `--threads 1` and `--threads 4` emit
/// byte-identical bytes.
fn cmd_online(args: &[String]) -> Result<(), String> {
    known_flags(
        args,
        &[
            "--alg", "--families", "--n", "--k", "--seeds", "--threads", "--retries",
            "--deadline-ms", "--trace", "--trace-logical", "--chaos", "--chaos-seed",
        ],
        &["--exact-ref", "--no-cache", "--degrade", "--progress"],
    )?;
    let families: Vec<ZooFamily> = match flag_value(args, "--families")? {
        Some(v) => v
            .split(',')
            .map(|s| {
                let s = s.trim();
                ZooFamily::parse(s).ok_or_else(|| {
                    format!("unknown family {s:?} (try periodic|bursty|fig2|fig4|random)")
                })
            })
            .collect::<Result<_, _>>()?,
        None => ZOO_FAMILIES.to_vec(),
    };
    let ns: Vec<usize> = parse_num_list_strict(args, "--n", &[8, 16])?;
    let ks: Vec<u32> = parse_num_list_strict(args, "--k", &[1, 2])?;
    let seed_count: u64 = parse_num_strict(args, "--seeds", 3u64)?;
    let threads: usize = parse_num_strict(args, "--threads", 0usize)?;
    let deadline_ms: u64 = parse_num_strict(args, "--deadline-ms", 0u64)?;
    let retries: u32 = parse_num_strict(args, "--retries", 1u32)?;
    let algs: Vec<Algo> = match flag_value(args, "--alg")?.as_deref().unwrap_or("all") {
        "all" => vec![Algo::OnlineDjn, Algo::OnlineGreedy, Algo::OnlineEdf],
        name => {
            let long = format!("online-{name}");
            let algo = Algo::parse(&long)
                .or_else(|| Algo::parse(name))
                .filter(|a| a.is_online())
                .ok_or_else(|| format!("unknown --alg {name} (try djn|greedy|edf|all)"))?;
            vec![algo]
        }
    };
    if families.is_empty() || ns.is_empty() || ks.is_empty() || seed_count == 0 {
        return Err("empty grid: every one of --families/--n/--k/--seeds needs a value".into());
    }
    // Every cell must build within the daemon's job cap, before any work.
    for &family in &families {
        for &n in &ns {
            for &k in &ks {
                check_zoo_cell(family, n, k, MAX_JOB_N).map_err(flag_error)?;
            }
        }
    }
    let chaos = chaos_plan(args)?;
    let trace = TraceFiles::arm(args)?;

    let lab = OnlineLab {
        families,
        ns,
        ks,
        seeds: (0..seed_count).collect(),
        algs,
        exact_ref: has_flag(args, "--exact-ref"),
    };
    let tasks = lab.tasks();
    let cfg = EngineConfig {
        threads,
        deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        max_retries: retries,
        use_cache: !has_flag(args, "--no-cache"),
        degrade: has_flag(args, "--degrade"),
        progress: has_flag(args, "--progress"),
        chaos,
        ..EngineConfig::default()
    };
    let batch = pobp::engine::run_batch(&tasks, cfg);

    // Everything emitted below is certified output — a pure function of
    // the request.
    for row in lab.rows(&tasks, &batch.reports) {
        let result = &row.report.result;
        let mut line = format!(
            "{{\"family\":\"{}\",\"n\":{},\"k\":{},\"seed\":{},\"alg\":\"{}\",\"status\":\"{}\"",
            row.family,
            row.n,
            row.k,
            row.seed,
            row.alg.name(),
            result.status(),
        );
        match result {
            TaskResult::Done(out) | TaskResult::Degraded { output: out, .. } => {
                if let TaskResult::Degraded { fallback, cause, .. } = result {
                    line.push_str(&format!(
                        ",\"fallback\":\"{}\",\"cause\":\"{}\"",
                        fallback.name(),
                        cause.name(),
                    ));
                }
                line.push_str(&format!(
                    ",\"value\":{},\"scheduled\":{},\"preemptions\":{}",
                    out.alg_value, out.scheduled, out.preemptions,
                ));
                if let Some((oracle, kind)) = row.oracle {
                    line.push_str(&format!(",\"oracle\":{oracle},\"oracle_kind\":\"{kind}\""));
                }
                if let Some(ratio) = row.ratio {
                    line.push_str(&format!(",\"ratio\":{ratio}"));
                }
                line.push_str(&format!(",\"bound\":{}", row.bound));
            }
            TaskResult::CertFailed { stage, reason } => {
                line.push_str(&format!(
                    ",\"stage\":\"{}\",\"reason\":{}",
                    stage.name(),
                    Json::Str(reason.clone()),
                ));
            }
            TaskResult::Panicked { message } => {
                line.push_str(&format!(",\"message\":{}", Json::Str(message.clone())));
            }
            TaskResult::TimedOut | TaskResult::Cancelled => {}
        }
        line.push('}');
        println!("{line}");
    }
    let s = batch.stats;
    eprintln!(
        "online: {} tasks ({} oracle cells, {} run, {} degraded, {} cert-failed, \
         {} panicked, {} timed out, {} cancelled) on {} threads",
        s.tasks,
        lab.cells().count(),
        s.run,
        s.degraded,
        s.cert_failed,
        s.panicked,
        s.timed_out,
        s.cancelled,
        if threads == 0 { "auto".to_string() } else { threads.to_string() },
    );
    trace.write()
}

/// `--chaos SPEC` / `--chaos-seed S` of `sweep`, `online` and `serve`: the
/// fault plan to arm, if any. A seed without a plan would run fault-free,
/// so it is refused.
fn chaos_plan(args: &[String]) -> Result<Option<std::sync::Arc<FaultPlan>>, String> {
    let seed: u64 = parse_num_strict(args, "--chaos-seed", 0u64)?;
    match flag_value(args, "--chaos")? {
        Some(spec) => Ok(Some(std::sync::Arc::new(FaultPlan::parse(&spec, seed)?))),
        None if has_flag(args, "--chaos-seed") => Err("--chaos-seed needs --chaos SPEC".into()),
        None => Ok(None),
    }
}

/// `pobp serve`: the persistent scheduling daemon (docs/serve.md). Binds
/// the address (and `--metrics-addr`, if given), recovers the registry from
/// `--dir`, prints the two startup lines (`listening on` / `recovered`),
/// and blocks until a client sends the `shutdown` op. `--addr` with port
/// `0` lets the OS pick (scripts scrape the printed address).
fn cmd_serve(args: &[String]) -> Result<(), String> {
    known_flags(
        args,
        &[
            "--addr", "--dir", "--workers", "--queue-cap", "--compact-every", "--metrics-addr",
            "--flight-dir", "--trace", "--trace-logical", "--chaos", "--chaos-seed",
        ],
        &["--degrade"],
    )?;
    let addr = flag_value(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7411".into());
    let dir = flag_value(args, "--dir")?.unwrap_or_else(|| "pobp-serve-registry".into());
    let chaos = chaos_plan(args)?;
    // A full trace record would grow for as long as the daemon runs; its
    // trace surface is the bounded --flight-dir ring.
    if has_flag(args, "--trace") || has_flag(args, "--trace-logical") {
        return Err("serve records no --trace/--trace-logical; use --flight-dir".into());
    }
    let metrics_addr = flag_value(args, "--metrics-addr")?;
    let flight_dir = flag_value(args, "--flight-dir")?;
    let cfg = pobp::serve::ServiceConfig {
        dir: dir.into(),
        workers: parse_num_strict(args, "--workers", 2usize)?.max(1),
        queue_cap: parse_num_strict(args, "--queue-cap", 64usize)?.max(1),
        degrade: has_flag(args, "--degrade"),
        compact_every: parse_num_strict(args, "--compact-every", 256u64)?,
        chaos,
        telemetry: pobp::serve::TelemetryOptions {
            flight_dir: flight_dir.map(std::path::PathBuf::from),
            metrics_addr,
        },
    };
    pobp::serve::run_server(&addr, cfg).map_err(|e| format!("serve: {e}"))
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    known_flags(args, &["--plan", "--delta"], &[])?;
    let delta: i64 = parse_num_strict(args, "--delta", 0i64)?;
    let plan_path = flag_value(args, "--plan")?.ok_or("replay needs --plan FILE")?;
    let jobs = read_stdin_jobs()?;
    let plan_text =
        std::fs::read_to_string(&plan_path).map_err(|e| format!("reading {plan_path}: {e}"))?;
    let plan = parse_schedule(&plan_text)?;
    plan.verify(&jobs, None)
        .map_err(|e| format!("plan is infeasible for this instance: {e}"))?;
    let out = replay_with_overhead(&jobs, &plan, delta);
    println!(
        "replayed plan at switch cost {delta}: completed {}/{} planned jobs, value {} of {}",
        out.schedule.len(),
        plan.len(),
        out.value(&jobs),
        plan.value(&jobs),
    );
    println!(
        "switches {}, overhead {} ticks",
        out.trace.switches(),
        out.trace.overhead_time()
    );
    if !out.dropped.is_empty() {
        let names: Vec<String> = out.dropped.iter().map(|j| j.to_string()).collect();
        println!("dropped: {}", names.join(" "));
    }
    Ok(())
}
