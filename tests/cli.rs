//! End-to-end tests of the `pobp` CLI binary (spawned as a subprocess).

use std::io::Write;
use std::process::{Command, Stdio};

fn pobp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pobp"))
}

fn run_with_stdin(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = pobp()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pobp");
    // A command that rejects its flags exits before reading stdin; the
    // failed write is then expected, and the exit status tells the story.
    let _ = child.stdin.as_mut().expect("stdin").write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn run(args: &[&str]) -> (String, String, bool) {
    run_with_stdin(args, "")
}

#[test]
fn help_prints_usage() {
    let (out, _, ok) = run(&["help"]);
    assert!(ok);
    assert!(out.contains("USAGE"));
    assert!(out.contains("pobp gen"));
}

#[test]
fn help_lists_the_serve_daemon() {
    let (out, _, ok) = run(&["help"]);
    assert!(ok);
    assert!(out.contains("pobp serve"), "usage must list the daemon:\n{out}");
    assert!(out.contains("pobp-client"), "usage must point at the client:\n{out}");
}

#[test]
fn serve_flag_errors_are_loud_and_never_bind() {
    for (args, flag) in [
        (&["serve", "--queue-cap"][..], "--queue-cap"),
        (&["serve", "--compact-every", "soon", "--addr", "127.0.0.1:0"][..], "--compact-every"),
        // Telemetry flags: a missing value or a non-numeric value must
        // fail before any socket is bound, naming the flag.
        (&["serve", "--metrics-addr"][..], "--metrics-addr"),
        (&["serve", "--sample-ms", "fast", "--addr", "127.0.0.1:0"][..], "--sample-ms"),
        (&["serve", "--flight-dir"][..], "--flight-dir"),
        // A full trace record would grow for as long as the daemon runs:
        // refused in every build.
        (&["serve", "--trace", "t.json", "--addr", "127.0.0.1:0"][..], "--trace"),
        (&["serve", "--trace-logical", "t.txt", "--addr", "127.0.0.1:0"][..], "--trace-logical"),
    ] {
        let (out, err, ok) = run(args);
        assert!(!ok, "{args:?} must fail");
        assert!(err.contains(flag), "error must name {flag}: {err}");
        assert!(!out.contains("serve: listening"), "{args:?} must not bind: {out}");
    }
}

/// Default (instrument-less) builds refuse the telemetry flags loudly
/// instead of silently ignoring them.
#[cfg(not(feature = "instrument"))]
#[test]
fn telemetry_flags_require_the_instrument_feature() {
    for args in [
        &["serve", "--metrics-addr", "127.0.0.1:0"][..],
        &["serve", "--sample-ms", "500"][..],
        &["serve", "--flight-dir", "flights"][..],
    ] {
        let (_, err, ok) = run(args);
        assert!(!ok, "{args:?} must fail in a default build");
        assert!(err.contains("--features instrument"), "error must say how to enable: {err}");
    }
}

#[test]
fn unknown_command_fails() {
    let (_, err, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
}

#[test]
fn gen_fig2_emits_parseable_instance() {
    let (out, _, ok) = run(&["gen", "--kind", "fig2", "--n", "5"]);
    assert!(ok);
    let jobs = pobp::prelude::parse_jobs(&out).expect("CLI output parses");
    assert_eq!(jobs.len(), 5);
}

#[test]
fn gen_rejects_unknown_kind() {
    let (_, err, ok) = run(&["gen", "--kind", "nope"]);
    assert!(!ok);
    assert!(err.contains("unknown --kind"));
}

#[test]
fn solve_pipeline_works() {
    let (instance, _, ok) = run(&["gen", "--kind", "fig2", "--n", "6"]);
    assert!(ok);
    for alg in ["reduction", "combined", "lsa", "k0"] {
        let (out, err, ok) =
            run_with_stdin(&["solve", "--k", "1", "--alg", alg], &instance);
        assert!(ok, "alg={alg}: {err}");
        assert!(out.contains("scheduled"), "alg={alg}");
    }
    // The reduction at k = 1 schedules all 6 (Figure 2 needs one preemption).
    let (out, _, _) = run_with_stdin(&["solve", "--k", "1", "--alg", "reduction"], &instance);
    assert!(out.contains("scheduled 6/6"), "{out}");
}

#[test]
fn solve_gantt_renders() {
    let (instance, _, _) = run(&["gen", "--kind", "fig2", "--n", "4"]);
    let (out, _, ok) = run_with_stdin(
        &["solve", "--k", "1", "--alg", "reduction", "--gantt"],
        &instance,
    );
    assert!(ok);
    assert!(out.contains('#'), "gantt bars expected:\n{out}");
}

#[test]
fn solve_rejects_empty_stdin() {
    let (_, err, ok) = run_with_stdin(&["solve", "--k", "1"], "");
    assert!(!ok);
    assert!(err.contains("no jobs"));
}

#[test]
fn solve_rejects_malformed_instance() {
    let (_, err, ok) = run_with_stdin(&["solve", "--k", "1"], "1 2 3\n");
    assert!(!ok);
    assert!(err.contains("4 fields"));
}

#[test]
fn price_reports_brackets() {
    let (instance, _, _) = run(&["gen", "--kind", "fig2", "--n", "5"]);
    let (out, _, ok) = run_with_stdin(&["price", "--k", "1"], &instance);
    assert!(ok);
    assert!(out.contains("OPT_∞ = 5"));
    assert!(out.contains("OPT_0 (exact) = 1"));
    assert!(out.contains("price at k = 0 (exact): 5.000"));
}

#[test]
fn price_rejects_large_instances() {
    let (instance, _, _) = run(&["gen", "--kind", "random", "--n", "30"]);
    let (_, err, ok) = run_with_stdin(&["price", "--k", "1"], &instance);
    assert!(!ok);
    assert!(err.contains("small instance"));
}

#[test]
fn sim_reports_switch_accounting() {
    let (instance, _, _) = run(&["gen", "--kind", "periodic"]);
    let (out, _, ok) = run_with_stdin(
        &["sim", "--policy", "budget", "--k", "1", "--delta", "2"],
        &instance,
    );
    assert!(ok, "{out}");
    assert!(out.contains("switch cost 2"));
    assert!(out.contains("switches"));
}

#[test]
fn sim_trace_flag_dumps_events() {
    let (instance, _, _) = run(&["gen", "--kind", "fig2", "--n", "3"]);
    let (out, _, ok) = run_with_stdin(&["sim", "--policy", "edf", "--trace"], &instance);
    assert!(ok);
    assert!(out.contains("Start"), "{out}");
    assert!(out.contains("Complete"), "{out}");
}

#[test]
fn gen_solve_roundtrip_all_kinds() {
    for kind in ["fig2", "fig4", "random", "periodic"] {
        let (instance, err, ok) = run(&["gen", "--kind", kind]);
        assert!(ok, "gen {kind}: {err}");
        let (out, err, ok) = run_with_stdin(&["solve", "--k", "2"], &instance);
        assert!(ok, "solve {kind}: {err}");
        assert!(out.contains("scheduled"), "{kind}: {out}");
    }
}

#[test]
fn solve_svg_writes_file() {
    let dir = std::env::temp_dir().join(format!("pobp-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sched.svg");
    let (instance, _, _) = run(&["gen", "--kind", "fig2", "--n", "4"]);
    let (out, err, ok) = run_with_stdin(
        &["solve", "--k", "1", "--alg", "reduction", "--svg", path.to_str().unwrap()],
        &instance,
    );
    assert!(ok, "{err}");
    assert!(out.contains("wrote"));
    let svg = std::fs::read_to_string(&path).unwrap();
    assert!(svg.starts_with("<svg"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn choose_k_recommends() {
    let (instance, _, _) = run(&["gen", "--kind", "periodic"]);
    let (out, err, ok) = run_with_stdin(&["choose-k", "--delta", "3", "--kmax", "3"], &instance);
    assert!(ok, "{err}");
    assert!(out.contains("recommendation: k ="), "{out}");
}

#[test]
fn solve_out_then_replay_pipeline() {
    let dir = std::env::temp_dir().join(format!("pobp-replay-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let plan = dir.join("plan.txt");
    let (instance, _, _) = run(&["gen", "--kind", "periodic"]);
    let (out, err, ok) = run_with_stdin(
        &["solve", "--k", "1", "--alg", "reduction", "--out", plan.to_str().unwrap()],
        &instance,
    );
    assert!(ok, "{err}");
    assert!(out.contains("wrote"));
    let (out, err, ok) = run_with_stdin(
        &["replay", "--plan", plan.to_str().unwrap(), "--delta", "1"],
        &instance,
    );
    assert!(ok, "{err}");
    assert!(out.contains("replayed plan"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_out_without_a_value_errors() {
    // `--obs-out` as the last argument used to silently succeed without
    // writing anything; it must be a loud usage error.
    let (_, err, ok) = run(&["gen", "--kind", "fig2", "--n", "4", "--obs-out"]);
    assert!(!ok);
    assert!(err.contains("--obs-out needs a value"), "{err}");
    // …and `--obs-out --obs` used to write a file literally named `--obs`.
    let (_, err, ok) = run(&["gen", "--kind", "fig2", "--n", "4", "--obs-out", "--obs"]);
    assert!(!ok);
    assert!(err.contains("--obs-out needs a value"), "{err}");
}

#[test]
fn obs_out_unwritable_path_errors() {
    let (_, err, ok) = run(&[
        "gen",
        "--kind",
        "fig2",
        "--n",
        "4",
        "--obs-out",
        "/nonexistent-dir-pobp-test/report.json",
    ]);
    assert!(!ok);
    assert!(err.contains("writing"), "{err}");
}

/// `sweep --trace` / `--trace-logical`: with an `instrument` build the
/// files are written (Chrome JSON + logical text); without, the flags are a
/// loud feature-gate error — never a silent no-op.
#[test]
fn sweep_trace_flags_respect_the_feature_gate() {
    let dir = std::env::temp_dir().join(format!("pobp-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let chrome = dir.join("trace.json");
    let logical = dir.join("trace.txt");
    let args = [
        "sweep",
        "--n",
        "8",
        "--k",
        "0,1",
        "--seeds",
        "1",
        "--threads",
        "2",
        "--trace",
        chrome.to_str().unwrap(),
        "--trace-logical",
        logical.to_str().unwrap(),
    ];
    let (_, err, ok) = run(&args);
    if pobp::obs::enabled() {
        assert!(ok, "{err}");
        let json = std::fs::read_to_string(&chrome).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        let text = std::fs::read_to_string(&logical).unwrap();
        assert!(text.starts_with("# pobp logical trace v1"), "{text}");
        assert!(text.contains("begin task"), "{text}");
    } else {
        assert!(!ok);
        assert!(err.contains("--features instrument"), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `solve --trace` is checked before any work: a default build refuses it
/// without writing `--out`; an `instrument` build writes both files.
#[test]
fn solve_trace_flag_is_checked_before_any_output() {
    let dir = std::env::temp_dir().join(format!("pobp-solve-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (chrome, plan) = (dir.join("t.json"), dir.join("s.txt"));
    let (instance, _, _) = run(&["gen", "--kind", "fig2", "--n", "4"]);
    let args = ["solve", "--trace", chrome.to_str().unwrap(), "--out", plan.to_str().unwrap()];
    let (_, err, ok) = run_with_stdin(&args, &instance);
    if pobp::obs::enabled() {
        assert!(ok, "{err}");
        assert!(std::fs::read_to_string(&chrome).unwrap().contains("\"name\":\"task\""));
        assert!(plan.exists());
    } else {
        assert!(!ok);
        assert!(err.contains("--trace needs a binary built with --features instrument"), "{err}");
        assert!(!plan.exists(), "a refused solve must not write --out");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_trace_without_a_value_errors_before_running() {
    let (_, err, ok) = run(&["sweep", "--n", "8", "--k", "1", "--seeds", "1", "--trace"]);
    assert!(!ok);
    assert!(err.contains("--trace needs a value"), "{err}");
}

/// `pobp online` emits one JSON row per (cell, algorithm) with the oracle
/// denominator and the empirical competitive ratio (docs/online.md).
#[test]
fn online_emits_ratio_rows_per_algorithm() {
    let (out, err, ok) =
        run(&["online", "--families", "periodic,fig2", "--n", "6", "--k", "1", "--seeds", "1"]);
    assert!(ok, "{err}");
    let rows: Vec<&str> = out.lines().collect();
    // 2 families × 1 n × 1 seed × 1 k × 3 algorithms.
    assert_eq!(rows.len(), 6, "{out}");
    for alg in ["online-djn", "online-greedy", "online-edf"] {
        assert!(out.contains(&format!("\"alg\":\"{alg}\"")), "missing {alg}:\n{out}");
    }
    for field in ["\"oracle\":", "\"oracle_kind\":", "\"ratio\":", "\"bound\":", "\"preemptions\":"]
    {
        assert!(out.contains(field), "missing {field}:\n{out}");
    }
    assert!(err.contains("oracle cells"), "{err}");
}

#[test]
fn online_single_alg_filter_works() {
    let (out, err, ok) =
        run(&["online", "--families", "random", "--n", "5", "--k", "0", "--seeds", "2", "--alg",
            "djn"]);
    assert!(ok, "{err}");
    assert_eq!(out.lines().count(), 2, "{out}");
    assert!(out.contains("\"alg\":\"online-djn\""));
    assert!(!out.contains("online-greedy"));
}

#[test]
fn online_rejects_unknown_family_and_alg() {
    let (_, err, ok) = run(&["online", "--families", "nope"]);
    assert!(!ok);
    assert!(err.contains("unknown family"), "{err}");
    let (_, err, ok) = run(&["online", "--alg", "nope"]);
    assert!(!ok);
    assert!(err.contains("unknown --alg"), "{err}");
}

/// The competitive-ratio table is byte-identical across thread counts —
/// the acceptance bar for the online lab (docs/engine.md discipline).
#[test]
fn online_output_is_thread_count_invariant() {
    let args = |threads: &'static str| {
        ["online", "--n", "5,8", "--k", "0,1", "--seeds", "2", "--threads", threads]
    };
    let (seq, err, ok) = run(&args("1"));
    assert!(ok, "{err}");
    let (par, err, ok) = run(&args("4"));
    assert!(ok, "{err}");
    assert_eq!(seq, par);
}

/// Every emitted ratio respects the (1+√P)² reference bound recorded in the
/// same row (the e13 gate, end-to-end through the CLI).
#[test]
fn online_ratios_stay_under_the_recorded_bound() {
    let (out, err, ok) = run(&["online", "--n", "6,9", "--k", "1", "--seeds", "2"]);
    assert!(ok, "{err}");
    let grab = |row: &str, key: &str| -> Option<f64> {
        let rest = &row[row.find(key)? + key.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    let mut checked = 0;
    for row in out.lines() {
        if let (Some(ratio), Some(bound)) = (grab(row, "\"ratio\":"), grab(row, "\"bound\":")) {
            assert!(ratio <= bound, "ratio {ratio} escapes bound {bound}: {row}");
            checked += 1;
        }
    }
    assert!(checked > 0, "no ratio rows:\n{out}");
}

#[test]
fn online_trace_flags_respect_the_feature_gate() {
    let dir = std::env::temp_dir().join(format!("pobp-online-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let logical = dir.join("online.txt");
    let args = [
        "online",
        "--families",
        "random",
        "--n",
        "5",
        "--k",
        "1",
        "--seeds",
        "1",
        "--trace-logical",
        logical.to_str().unwrap(),
    ];
    let (_, err, ok) = run(&args);
    if pobp::obs::enabled() {
        assert!(ok, "{err}");
        let text = std::fs::read_to_string(&logical).unwrap();
        assert!(text.contains("online."), "expected online.* instants:\n{text}");
    } else {
        assert!(!ok);
        assert!(err.contains("--features instrument"), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_progress_renders_a_meter() {
    let (_, err, ok) = run(&["sweep", "--n", "8,12", "--k", "0,1", "--seeds", "2", "--progress"]);
    assert!(ok, "{err}");
    assert!(err.contains("progress:"), "{err}");
    assert!(err.contains("rows/s"), "{err}");
    assert!(err.contains("p50"), "{err}");
}

#[test]
fn sweep_and_online_numeric_flag_errors_are_loud_and_never_run() {
    // A numeric flag that trails (or swallows the next flag) must fail
    // naming the flag, before any solving starts — the strict-parsing
    // contract `pobp serve` already follows.
    for (args, flag) in [
        (&["sweep", "--seeds"][..], "--seeds"),
        (&["sweep", "--n"][..], "--n"),
        (&["sweep", "--threads", "--n", "8"][..], "--threads"),
        (&["sweep", "--chunk-cells", "many", "--out", "x"][..], "--chunk-cells"),
        (&["sweep", "--max-chunks"][..], "--max-chunks"),
        (&["online", "--seeds"][..], "--seeds"),
        (&["online", "--k", "--seeds", "1"][..], "--k"),
        (&["online", "--deadline-ms", "fast"][..], "--deadline-ms"),
    ] {
        let (out, err, ok) = run(args);
        assert!(!ok, "{args:?} must fail");
        assert!(err.contains(flag), "error must name {flag}: {err}");
        assert!(out.is_empty(), "{args:?} must not emit rows: {out}");
    }
}

#[test]
fn sweep_resume_requires_an_out_dir() {
    let (_, err, ok) = run(&["sweep", "--resume", "--n", "8", "--k", "0", "--seeds", "1"]);
    assert!(!ok);
    assert!(err.contains("--resume needs --out"), "{err}");
}

#[test]
fn sweep_sharded_mode_merges_byte_identical_to_stdout_mode() {
    let dir = std::env::temp_dir().join(format!("pobp-cli-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let grid = &["--n", "8,10", "--k", "0,1", "--seeds", "2"];

    let (stdout_rows, _, ok) = run(&[&["sweep"], grid as &[&str]].concat());
    assert!(ok);

    let dir_s = dir.to_str().unwrap();
    let sharded = [
        &["sweep"],
        grid as &[&str],
        &["--out", dir_s, "--chunk-cells", "1", "--threads", "2"],
    ]
    .concat();
    let (out, err, ok) = run(&sharded);
    assert!(ok, "{err}");
    assert!(out.is_empty(), "sharded mode keeps stdout clean: {out}");
    assert!(err.contains("merged output at"), "{err}");
    let merged = std::fs::read_to_string(dir.join("merged.jsonl")).unwrap();
    assert_eq!(merged, stdout_rows, "merged shards must equal the streaming rows");

    // Re-running into the same directory without --resume is refused…
    let (_, err, ok) = run(&sharded);
    assert!(!ok);
    assert!(err.contains("--resume"), "{err}");
    // …and --resume over a complete sweep recomputes nothing.
    let resumed = [&sharded[..], &["--resume"]].concat();
    let (_, err, ok) = run(&resumed);
    assert!(ok, "{err}");
    assert!(err.contains("0 rows written"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_killed_by_chunk_budget_resumes_to_the_full_merge() {
    let dir = std::env::temp_dir().join(format!("pobp-cli-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    let base = &[
        "sweep", "--n", "8,10", "--k", "0,1", "--seeds", "2", "--out", dir_s, "--chunk-cells", "1",
    ];

    let first = [&base[..], &["--max-chunks", "1"]].concat();
    let (_, err, ok) = run(&first);
    assert!(ok, "{err}");
    assert!(err.contains("incomplete — rerun with --resume"), "{err}");
    assert!(!dir.join("merged.jsonl").exists());

    let resumed = [&base[..], &["--resume", "--threads", "4"]].concat();
    let (_, err, ok) = run(&resumed);
    assert!(ok, "{err}");
    assert!(err.contains("merged output at"), "{err}");
    assert!(err.contains("1 skipped"), "the finished chunk is not recomputed: {err}");

    // The interrupted-then-resumed merge equals an uninterrupted run's.
    let clean_dir = std::env::temp_dir().join(format!("pobp-cli-resume-c-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&clean_dir);
    let clean = [
        "sweep", "--n", "8,10", "--k", "0,1", "--seeds", "2",
        "--out", clean_dir.to_str().unwrap(), "--chunk-cells", "1",
    ];
    let (_, err, ok) = run(&clean);
    assert!(ok, "{err}");
    assert_eq!(
        std::fs::read(dir.join("merged.jsonl")).unwrap(),
        std::fs::read(clean_dir.join("merged.jsonl")).unwrap(),
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&clean_dir).ok();
}
