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

use pobp::cli::{
    flag, flag_value, has_flag, instrument_flags, parse_num, parse_num_list_strict,
    parse_num_strict,
};
use pobp::prelude::*;
use pobp::sweep::rows::{format_row, json_escape};
use std::io::Read;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
            print!("{}", usage());
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{}", usage())),
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
/// command: dump the JSON counter report (docs/observability.md) to stderr,
/// or to FILE. With the `instrument` feature off the report is emitted all
/// the same, carrying `"obs_enabled": false` and empty sections.
/// `--obs-out` without a value is an error, not a silent no-op.
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

/// `--trace FILE` (Chrome trace-event JSON) and `--trace-logical FILE` of
/// `solve`, `sweep` and `online`, read before any work (not globally: `sim
/// --trace` is an unrelated boolean flag). Asking for either arms the full
/// trace record until the files are written.
struct TraceFiles {
    chrome: Option<String>,
    logical: Option<String>,
    #[cfg(feature = "instrument")]
    _armed: Option<pobp::trace::Armed>,
}

impl TraceFiles {
    fn arm(args: &[String]) -> Result<TraceFiles, String> {
        let [chrome, logical] = instrument_flags(args, ["--trace", "--trace-logical"])?;
        Ok(TraceFiles {
            #[cfg(feature = "instrument")]
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
        #[cfg(feature = "instrument")]
        {
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
             [--engine-threads N] [--degrade] [--compact-every N]
             [--metrics-addr HOST:PORT] [--sample-ms MS] [--flight-dir DIR]
                                                 (scheduling daemon, docs/serve.md)

Any command also accepts --obs (print the JSON counter report to stderr) or
--obs-out FILE (write it to FILE). Counters require building with
`--features instrument`; see docs/observability.md.

solve, sweep and online accept --trace FILE (Chrome trace-event JSON — open
in Perfetto / chrome://tracing) and --trace-logical FILE (the deterministic
logical trace: ordering and phase transitions, timestamps stripped,
byte-identical across --threads). Both need a binary built with
`--features instrument`. sweep --progress draws a live stderr meter (rows
done/total, throughput, running p50 task latency, degrade/cert-fail
counts).

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
checkpointed in DIR/manifest.json (tmp/fsync/rename). A killed sweep
continues with --resume — completed chunks are digest-verified and
skipped, torn shard tails are healed, only missing rows are recomputed —
and the final DIR/merged.jsonl is byte-identical to an uninterrupted run
(any --threads). --max-chunks N stops after N chunks (still resumable).

serve starts the persistent scheduling daemon (docs/serve.md): named solve
jobs over newline-delimited JSON on TCP, a bounded priority queue with
structured rejections, per-job cancel, content-keyed result reuse, and a
durable journal in --dir that survives kill -9 (acknowledged jobs and
finished results are recovered on restart). Drive it with pobp-client.
With `--features instrument` the daemon also serves live telemetry
(docs/observability.md): --metrics-addr exposes a Prometheus scrape
endpoint, --sample-ms sets the windowed sampler period, and --flight-dir
collects bounded flight-recorder dumps (Chrome trace JSON) on panics,
cert failures, journal poisoning, or an explicit dump-flight op; watch it
live with `pobp-client top`.

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
";

/// The full usage text; chaos-build binaries append the `--chaos` section.
fn usage() -> String {
    #[cfg(feature = "chaos")]
    {
        format!("{USAGE}{}", pobp::engine::chaos::CLI_USAGE)
    }
    #[cfg(not(feature = "chaos"))]
    {
        USAGE.to_string()
    }
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let kind = flag(args, "--kind").ok_or("gen needs --kind")?;
    let jobs = match kind.as_str() {
        "fig2" => {
            let n: u32 = parse_num(args, "--n", 8u32)?;
            Fig2Instance::new(n).build()
        }
        "fig4" => {
            let k: u32 = parse_num(args, "--k", 1u32)?;
            let depth: u32 = parse_num(args, "--depth", 3u32)?;
            Fig4Instance::for_k(k.max(1), depth).build().jobs
        }
        "random" => {
            let n: usize = parse_num(args, "--n", 30usize)?;
            let seed: u64 = parse_num(args, "--seed", 0u64)?;
            RandomWorkload::standard(n).generate(seed)
        }
        "periodic" => {
            let seed: u64 = parse_num(args, "--seed", 0u64)?;
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
    let trace = TraceFiles::arm(args)?;
    let k: u32 = parse_num(args, "--k", 1u32)?;
    let alg = flag(args, "--alg").unwrap_or_else(|| "combined".into());
    let jobs = read_stdin_jobs()?;
    let ids: Vec<JobId> = jobs.ids().collect();

    let schedule = {
        // Tag the whole solve as one task span so `--trace` output groups
        // the algorithm-stage timers under it (no-op without the feature).
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
    if let Some(path) = flag(args, "--svg") {
        let svg = render_svg(&jobs, &schedule, SvgOptions::default());
        std::fs::write(&path, svg).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = flag(args, "--out") {
        std::fs::write(&path, write_schedule(&schedule))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    trace.write()
}

fn cmd_price(args: &[String]) -> Result<(), String> {
    let k: u32 = parse_num(args, "--k", 1u32)?;
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
    let delta: i64 = parse_num(args, "--delta", 0i64)?;
    let k: u32 = parse_num(args, "--k", 1u32)?;
    let policy = match flag(args, "--policy").as_deref().unwrap_or("edf") {
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
    let delta: i64 = parse_num(args, "--delta", 2i64)?;
    let k_max: u32 = parse_num(args, "--kmax", 4u32)?;
    let jobs = read_stdin_jobs()?;
    let ids: Vec<JobId> = jobs.ids().collect();
    let inf = greedy_unbounded(&jobs, &ids);
    println!(" k | planned value | replayed value @ δ={delta}");
    println!("---+---------------+------------------------");
    // One laminarize + schedule-forest pass serves every k in the table.
    let red_plan = ReductionPlan::new(&jobs, &inf.schedule).map_err(|e| e.to_string())?;
    let mut ws = SolveWorkspace::new();
    for k in 0..=k_max {
        let plan = red_plan.solve_ws(&jobs, k, KbasSolver::Tm, &mut ws).schedule;
        let replayed = replay_with_overhead(&jobs, &plan, delta);
        println!(
            " {k} | {:13} | {}",
            plan.value(&jobs),
            replayed.value(&jobs)
        );
    }
    let choice = choose_k(&jobs, &inf.schedule, delta, k_max);
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
    let alg_name = flag(args, "--alg").unwrap_or_else(|| "reduction".into());
    let algo = Algo::parse(&alg_name)
        .ok_or_else(|| format!("unknown --alg {alg_name} (try reduction|combined|lsa|k0)"))?;
    let exact_ref = has_flag(args, "--exact-ref");
    if machines == 0 {
        return Err("--machines must be at least 1".into());
    }
    #[cfg(not(feature = "chaos"))]
    if flag(args, "--chaos").is_some() || flag(args, "--chaos-seed").is_some() {
        return Err("--chaos/--chaos-seed need a binary built with --features chaos".into());
    }
    #[cfg(feature = "chaos")]
    let chaos_plan = {
        let chaos_seed: u64 = parse_num_strict(args, "--chaos-seed", 0u64)?;
        flag_value(args, "--chaos")?
            .map(|spec| FaultPlan::parse(&spec, chaos_seed))
            .transpose()?
    };

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
            #[cfg(feature = "chaos")]
            chaos: chaos_plan.map(std::sync::Arc::new),
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
    #[cfg(feature = "chaos")]
    let batch = match chaos_plan {
        Some(plan) => Engine::with_chaos(cfg, plan).run_batch(&grid.tasks()),
        None => pobp::engine::run_batch(&grid.tasks(), cfg),
    };
    #[cfg(not(feature = "chaos"))]
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
        "sweep: {} tasks ({} run, {} cached, {} degraded, {} cert-failed, {} panicked, \
         {} timed out, {} cancelled, {} retries, {} ref-cache hits, \
         {} steals/{} probes) on {} threads",
        s.tasks,
        s.run,
        s.cached,
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

/// `pobp online`: the competitive-ratio lab. Crosses the instance-zoo
/// families with `--n/--k/--seeds`, pairs every online task with an offline
/// `OPT_k` oracle task (`Algo::Reduction` — the engine certifies the
/// denominator), runs the whole batch through the engine, and emits one
/// JSON line per online row: certified value, oracle value (upgraded to the
/// exact `OPT_k` where `opt_k_bounded_fits`), the empirical ratio
/// `oracle / value`, and the `(1+√P)²` reference bound.
///
/// Like `sweep`, stdout rows are a pure function of the request — no
/// durations, no cache flags — so `--threads 1` and `--threads 4` emit
/// byte-identical bytes.
fn cmd_online(args: &[String]) -> Result<(), String> {
    let families: Vec<ZooFamily> = match flag(args, "--families") {
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
    let exact_ref = has_flag(args, "--exact-ref");
    let algs: Vec<Algo> = match flag(args, "--alg").as_deref().unwrap_or("all") {
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
    #[cfg(not(feature = "chaos"))]
    if flag(args, "--chaos").is_some() || flag(args, "--chaos-seed").is_some() {
        return Err("--chaos/--chaos-seed need a binary built with --features chaos".into());
    }
    #[cfg(feature = "chaos")]
    let chaos_plan = {
        let chaos_seed: u64 = parse_num_strict(args, "--chaos-seed", 0u64)?;
        flag_value(args, "--chaos")?
            .map(|spec| FaultPlan::parse(&spec, chaos_seed))
            .transpose()?
    };
    let trace = TraceFiles::arm(args)?;

    // Row metadata, parallel to the task batch. `alg == None` marks the
    // oracle task that opens each (family, n, seed, k) cell.
    struct Row {
        family: ZooFamily,
        n: usize,
        k: u32,
        seed: u64,
        alg: Option<Algo>,
        bound: f64,
        exact: Option<f64>,
    }
    let mut tasks: Vec<SolveTask> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    for &family in &families {
        for &n in &ns {
            for seed in 0..seed_count {
                for &k in &ks {
                    let instance = zoo_instance(family, n, k, seed);
                    let ids: Vec<JobId> = instance.ids().collect();
                    let bound = djn_ratio_bound(instance.length_ratio().unwrap_or(1.0));
                    // The exact OPT_k upgrade, where the state space allows.
                    let exact = opt_k_bounded_fits(&instance, &ids)
                        .then(|| opt_k_bounded_small(&instance, &ids, k));
                    let label = |alg: &str| format!("{family} n={n} k={k} seed={seed} {alg}");
                    tasks.push(SolveTask {
                        instance: instance.clone(),
                        k,
                        machines: 1,
                        algo: Algo::Reduction,
                        exact_ref,
                        label: label("oracle"),
                    });
                    rows.push(Row { family, n, k, seed, alg: None, bound, exact });
                    for &alg in &algs {
                        tasks.push(SolveTask {
                            instance: instance.clone(),
                            k,
                            machines: 1,
                            algo: alg,
                            exact_ref,
                            label: label(alg.name()),
                        });
                        rows.push(Row { family, n, k, seed, alg: Some(alg), bound, exact });
                    }
                }
            }
        }
    }

    let cfg = EngineConfig {
        threads,
        deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        max_retries: retries,
        use_cache: !has_flag(args, "--no-cache"),
        degrade: has_flag(args, "--degrade"),
        progress: has_flag(args, "--progress"),
        ..EngineConfig::default()
    };
    #[cfg(feature = "chaos")]
    let batch = match chaos_plan {
        Some(plan) => Engine::with_chaos(cfg, plan).run_batch(&tasks),
        None => pobp::engine::run_batch(&tasks, cfg),
    };
    #[cfg(not(feature = "chaos"))]
    let batch = pobp::engine::run_batch(&tasks, cfg);

    // Walk reports cell by cell: the oracle row opens the cell, the online
    // rows that follow consume its certified value.
    let mut oracle: Option<(f64, &'static str)> = None;
    for (row, report) in rows.iter().zip(&batch.reports) {
        let Some(alg) = row.alg else {
            // The reduction value is a certified lower bound on OPT_k; the
            // exact solver (when available) is OPT_k itself — take the max
            // so the denominator is the best certified knowledge.
            oracle = report.result.output().map(|out| match row.exact {
                Some(e) if e >= out.alg_value => (e, "exact"),
                _ => (out.alg_value, "reduction"),
            });
            continue;
        };
        // No `attempts` here, deliberately: a task answered from the result
        // cache reports 0 attempts, and *which* duplicate zoo cell wins the
        // race to populate the cache depends on scheduling order (fig2/fig4
        // repeat their instance across seeds). Everything emitted below is
        // certified output — a pure function of the request.
        let mut line = format!(
            "{{\"family\":\"{}\",\"n\":{},\"k\":{},\"seed\":{},\"alg\":\"{}\",\"status\":\"{}\"",
            row.family,
            row.n,
            row.k,
            row.seed,
            alg.name(),
            report.result.status(),
        );
        match &report.result {
            TaskResult::Done(out) | TaskResult::Degraded { output: out, .. } => {
                if let TaskResult::Degraded { fallback, cause, .. } = &report.result {
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
                if let Some((oracle_value, kind)) = oracle {
                    line.push_str(&format!(
                        ",\"oracle\":{oracle_value},\"oracle_kind\":\"{kind}\""
                    ));
                    if out.alg_value > 0.0 {
                        line.push_str(&format!(",\"ratio\":{}", oracle_value / out.alg_value));
                    }
                }
                line.push_str(&format!(",\"bound\":{}", row.bound));
            }
            TaskResult::CertFailed { stage, reason } => {
                line.push_str(&format!(
                    ",\"stage\":\"{}\",\"reason\":\"{}\"",
                    stage.name(),
                    json_escape(reason),
                ));
            }
            TaskResult::Panicked { message } => {
                line.push_str(&format!(",\"message\":\"{}\"", json_escape(message)));
            }
            TaskResult::TimedOut | TaskResult::Cancelled => {}
        }
        line.push('}');
        println!("{line}");
    }
    let s = batch.stats;
    eprintln!(
        "online: {} tasks ({} oracle cells, {} run, {} cached, {} degraded, {} cert-failed, \
         {} panicked, {} timed out, {} cancelled) on {} threads",
        s.tasks,
        rows.iter().filter(|r| r.alg.is_none()).count(),
        s.run,
        s.cached,
        s.degraded,
        s.cert_failed,
        s.panicked,
        s.timed_out,
        s.cancelled,
        if threads == 0 { "auto".to_string() } else { threads.to_string() },
    );
    trace.write()
}

/// `pobp serve`: the persistent scheduling daemon (docs/serve.md). Binds
/// the address, recovers the registry from `--dir`, prints the two startup
/// lines (`listening on` / `recovered`), and blocks until a client sends
/// the `shutdown` op. `--addr` with port `0` lets the OS pick (scripts
/// scrape the printed address).
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let addr = flag_value(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7411".into());
    let dir = flag_value(args, "--dir")?.unwrap_or_else(|| "pobp-serve-registry".into());
    #[cfg(not(feature = "chaos"))]
    if flag(args, "--chaos").is_some() || flag(args, "--chaos-seed").is_some() {
        return Err("--chaos/--chaos-seed need a binary built with --features chaos".into());
    }
    #[cfg(feature = "chaos")]
    let chaos_plan = {
        let chaos_seed: u64 = parse_num_strict(args, "--chaos-seed", 0u64)?;
        flag_value(args, "--chaos")?
            .map(|spec| FaultPlan::parse(&spec, chaos_seed))
            .transpose()?
    };
    // A full trace record would grow for as long as the daemon runs; its
    // trace surface is the bounded --flight-dir ring.
    if has_flag(args, "--trace") || has_flag(args, "--trace-logical") {
        return Err("serve records no --trace/--trace-logical; use --flight-dir".into());
    }
    // A default build refuses these here, so there their values go unused.
    #[cfg_attr(not(feature = "instrument"), allow(unused_variables))]
    let [metrics_addr, _, flight_dir] =
        instrument_flags(args, ["--metrics-addr", "--sample-ms", "--flight-dir"])?;
    #[cfg_attr(not(feature = "instrument"), allow(unused_variables))]
    let sample_ms: u64 = parse_num_strict(args, "--sample-ms", 1000u64)?;
    let cfg = pobp::serve::ServiceConfig {
        dir: dir.into(),
        workers: parse_num_strict(args, "--workers", 2usize)?.max(1),
        queue_cap: parse_num_strict(args, "--queue-cap", 64usize)?.max(1),
        engine_threads: parse_num_strict(args, "--engine-threads", 1usize)?,
        degrade: has_flag(args, "--degrade"),
        compact_every: parse_num_strict(args, "--compact-every", 256u64)?,
        #[cfg(feature = "chaos")]
        chaos: chaos_plan.map(std::sync::Arc::new),
        #[cfg(feature = "instrument")]
        telemetry: pobp::serve::TelemetryOptions {
            sample_ms,
            flight_dir: flight_dir.map(std::path::PathBuf::from),
            metrics_addr,
            ..pobp::serve::TelemetryOptions::default()
        },
    };
    pobp::serve::run_server(&addr, cfg).map_err(|e| format!("serve: {e}"))
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let delta: i64 = parse_num(args, "--delta", 0i64)?;
    let plan_path = flag(args, "--plan").ok_or("replay needs --plan FILE")?;
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
