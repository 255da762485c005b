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
        // Telemetry flags: a missing value, or a flag the daemon does not
        // have, must fail before any socket is bound, naming the flag.
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

/// The bytes of the `pobp` binary under test, decoded lossily: every ASCII
/// run survives intact, so `contains` finds an ASCII marker wherever
/// `strings` piped into `grep` would.
fn pobp_binary_text() -> String {
    let bytes = std::fs::read(env!("CARGO_BIN_EXE_pobp")).expect("read the pobp binary");
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The binary carries the trace recorder: its exporter (`traceEvents`) and
/// the engine's event names (`task.enqueue`).
#[test]
fn binary_carries_the_trace_recorder() {
    let binary = pobp_binary_text();
    for marker in ["traceEvents", "task.enqueue"] {
        assert!(binary.contains(marker), "the binary lacks {marker:?}");
    }
}

/// Every command refuses a flag it does not read, before any work: exit 1,
/// the flag named, nothing on stdout, and no daemon bound.
#[test]
fn every_command_refuses_an_unknown_flag() {
    for cmd in ["gen", "solve", "price", "sim", "choose-k", "replay", "sweep", "online", "serve"] {
        // `--addr` keeps a `serve` that failed to refuse off the default port.
        let out = pobp().args([cmd, "--bogus", "--addr", "127.0.0.1:0"]).output().unwrap();
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(1), "{cmd} --bogus: {stderr}");
        assert!(stderr.contains("unknown flag --bogus"), "{cmd}: {stderr}");
        assert!(stdout.is_empty(), "{cmd} --bogus must not run: {stdout}");
    }
    // A near-miss of a real flag is not silently dropped for its default.
    let (out, err, ok) = run(&["sweep", "--n", "8", "--k", "0", "--seeds", "1", "--thread", "4"]);
    assert!(!ok && err.contains("unknown flag --thread"), "{err}");
    assert!(out.is_empty(), "{out}");
    // `--sample-ms` is unknown to the daemon in every build.
    let (out, err, ok) = run(&["serve", "--sample-ms", "500", "--addr", "127.0.0.1:0"]);
    assert!(!ok && err.contains("unknown flag --sample-ms"), "{err}");
    assert!(!out.contains("serve: listening"), "{out}");
}

/// Every command refuses a repeated flag, and an argument that is neither a
/// flag nor a flag's value, before any work: exit 1, the argument named,
/// nothing on stdout, and no daemon bound.
#[test]
fn every_command_refuses_a_repeated_flag_or_a_stray_argument() {
    let refused = |args: &[&str], named: &str| {
        let out = pobp().args(args).output().unwrap();
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} must not run: {stdout}");
    };
    for cmd in ["gen", "solve", "price", "sim", "choose-k", "replay", "sweep", "online", "serve"] {
        // `--addr` keeps a `serve` that failed to refuse off the default port.
        let addr: &[&str] = if cmd == "serve" { &["--addr", "127.0.0.1:0"] } else { &[] };
        refused(&[&[cmd, "--obs", "--obs"], addr].concat(), "repeated flag --obs");
        refused(&[&[cmd, "stray"], addr].concat(), "unexpected argument \"stray\"");
    }
    // A second `--n` is not dropped for the first, and a trailing word does
    // not ride along with a grid that would otherwise run.
    let grid = ["sweep", "--n", "8", "--k", "0", "--seeds", "1"];
    refused(&[&grid[..], &["--n", "12"]].concat(), "repeated flag --n");
    refused(&[&grid[..], &["stray"]].concat(), "unexpected argument \"stray\"");
    // A switch takes no value: the word after it is an argument of its own.
    refused(&["online", "--degrade", "yes", "--n", "4"], "unexpected argument \"yes\"");
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

/// A Figure 2 or Figure 4 cell that cannot be built is a usage error (exit
/// 1) naming the flag, not a panic (exit 101), before any output.
#[test]
fn gen_and_online_refuse_zoo_cells_they_cannot_build() {
    for (args, named) in [
        (&["gen", "--kind", "fig2", "--n", "64"][..], "--n"),
        (&["gen", "--kind", "fig2", "--n", "0"][..], "--n"),
        (&["online", "--families", "fig2", "--n", "64"][..], "--n"),
        (&["online", "--families", "periodic,fig4", "--n", "8", "--k", "500000"][..], "--k"),
        (&["online", "--families", "fig4", "--k", "2147483648"][..], "--k"),
        (&["gen", "--kind", "fig4", "--k", "2", "--depth", "30"][..], "--depth"),
        (&["gen", "--kind", "fig4", "--k", "2147483648", "--depth", "1"][..], "--k"),
        (&["gen", "--kind", "fig4", "--k", "1", "--depth", "17"][..], "--depth"),
    ] {
        let out = pobp().args(args).output().expect("run pobp");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(&format!("invalid value for {named}")), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} wrote output before refusing");
    }
    // The edges that build still do.
    let (out, err, ok) = run(&["gen", "--kind", "fig2", "--n", "62"]);
    assert!(ok, "{err}");
    assert_eq!(out.lines().filter(|l| !l.starts_with('#')).count(), 62);
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

/// A trailing `--delta` is a usage error, not a silent run at switch cost 0.
#[test]
fn sim_delta_without_a_value_errors() {
    let (instance, _, _) = run(&["gen", "--kind", "periodic"]);
    let (out, err, ok) =
        run_with_stdin(&["sim", "--policy", "budget", "--k", "1", "--delta"], &instance);
    assert!(!ok, "a trailing --delta was accepted:\n{out}");
    assert!(err.contains("--delta needs a value"), "{err}");
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

/// `--svg` followed by another flag is a usage error before any output,
/// not an SVG written to a file named after that flag.
#[test]
fn solve_svg_without_a_value_errors_before_any_output() {
    let (instance, _, _) = run(&["gen", "--kind", "fig2", "--n", "4"]);
    let (out, err, ok) = run_with_stdin(&["solve", "--k", "1", "--svg", "--gantt"], &instance);
    assert!(!ok, "--svg took --gantt as its value:\n{out}");
    assert!(err.contains("--svg needs a value"), "{err}");
    assert!(out.is_empty(), "{out}");
}

#[test]
fn choose_k_recommends() {
    let (instance, _, _) = run(&["gen", "--kind", "periodic"]);
    let (out, err, ok) = run_with_stdin(&["choose-k", "--delta", "3", "--kmax", "3"], &instance);
    assert!(ok, "{err}");
    assert!(out.contains("recommendation: k ="), "{out}");
}

/// `pobp choose-k` computes its table once: one reduction per row of the
/// table it prints, each from the greedy reference's own schedule forest,
/// with no laminarize.
#[test]
fn choose_k_solves_each_row_once() {
    use pobp::core::json::Json;
    let (instance, _, _) = run(&["gen", "--kind", "random", "--n", "200", "--seed", "5"]);
    let args = ["choose-k", "--delta", "2", "--kmax", "4", "--obs"];
    let (out, err, ok) = run_with_stdin(&args, &instance);
    assert!(ok, "{err}");
    let rows = out.lines().filter(|l| (0..=4).any(|k| l.starts_with(&format!(" {k} | ")))).count();
    assert_eq!(rows, 5, "{out}");
    let report = Json::parse(err.trim()).expect("the obs report parses as JSON");
    let count = |name: &str| {
        report.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
    };
    assert_eq!(count("sched.reduction.runs"), 5, "{err}");
    assert_eq!(count("sched.laminarize.runs"), 0, "{err}");
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

/// `sweep --trace` and `--trace-logical` in one run write both files:
/// Chrome JSON and the logical text.
#[test]
fn sweep_trace_flags_write_both_files() {
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
    assert!(ok, "{err}");
    let json = std::fs::read_to_string(&chrome).unwrap();
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    let text = std::fs::read_to_string(&logical).unwrap();
    assert!(text.starts_with("# pobp logical trace v1"), "{text}");
    assert!(text.contains("begin task"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `sweep --trace` writes Chrome trace-event JSON: a non-empty
/// `traceEvents` array whose every event is a `B`, `E` or `i` phase, with
/// `task` spans among them.
#[test]
fn sweep_trace_is_chrome_trace_event_json() {
    use pobp::core::json::Json;
    let path = std::env::temp_dir().join(format!("pobp-chrome-{}.json", std::process::id()));
    let (_, err, ok) = run(&[
        "sweep", "--n", "12,16", "--k", "0,1,2", "--seeds", "4", "--threads", "4", "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let doc = Json::parse(&text).expect("the trace parses as JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("a traceEvents array");
    assert!(!events.is_empty(), "empty trace");
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str);
        assert!(matches!(ph, Some("B" | "E" | "i")), "phase {ph:?}: {event}");
    }
    let name = |e: &Json| e.get("name").and_then(Json::as_str) == Some("task");
    assert!(events.iter().any(name), "no task spans");
}

/// Runs `pobp ARGS --trace-logical FILE` and returns the logical trace.
fn logical_trace(tag: &str, args: &[&str]) -> String {
    let path = std::env::temp_dir().join(format!("pobp-logical-{tag}-{}.txt", std::process::id()));
    let (_, err, ok) = run(&[args, &["--trace-logical", path.to_str().unwrap()]].concat());
    assert!(ok, "{err}");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    text
}

/// The `(length, FNV-1a)` of a logical trace, the form its pins take.
fn trace_digest(text: &str) -> (usize, u64) {
    (text.len(), pobp::sweep::plan::fnv1a(text.as_bytes()))
}

/// The sweep whose logical trace is pinned, and the `(length, FNV-1a)` of
/// that trace.
const TRACED_SWEEP: [&str; 7] = ["sweep", "--n", "12,16", "--k", "0,1,2", "--seeds", "4"];
const TRACED_SWEEP_PIN: (usize, u64) = (3578, 0x26e6_a145_2126_6796);

/// Checks that `TRACED_SWEEP` plus `extra` writes the pinned logical trace
/// at `--threads 1` and `4`.
fn check_traced_sweep(tag: &str, extra: &[&str]) {
    let grid = [&TRACED_SWEEP[..], extra].concat();
    let seq = logical_trace(&format!("{tag}-t1"), &[&grid[..], &["--threads", "1"]].concat());
    let par = logical_trace(&format!("{tag}-t4"), &[&grid[..], &["--threads", "4"]].concat());
    assert!(seq.contains("begin task"), "{seq}");
    assert_eq!(seq, par, "{extra:?}: logical traces differ across thread counts");
    assert_eq!(trace_digest(&seq), TRACED_SWEEP_PIN, "{extra:?}: {seq}");
}

/// A sweep's logical trace is the same bytes at `--threads 1` and `4`,
/// pinned.
#[test]
fn sweep_logical_trace_is_thread_count_invariant() {
    check_traced_sweep("sweep", &[]);
}

/// ...and so it is under injected panics, flaky attempts and forced
/// deadlines with the degradation ladder armed, whose `chaos.` events the
/// trace records; pinned the same way.
#[test]
fn chaos_sweep_logical_trace_is_thread_count_invariant() {
    let grid = [
        "sweep", "--n", "12,16", "--k", "0,1,2", "--seeds", "4", "--degrade", "--chaos",
        "panic:0.4,flaky:0.4,deadline:0.4", "--chaos-seed", "42",
    ];
    let seq = logical_trace("chaos-t1", &[&grid[..], &["--threads", "1"]].concat());
    let par = logical_trace("chaos-t4", &[&grid[..], &["--threads", "4"]].concat());
    assert!(par.contains("chaos."), "no chaos events traced:\n{par}");
    assert_eq!(seq, par, "chaotic logical traces differ across thread counts");
    assert_eq!(trace_digest(&seq), (7063, 0x9b83_b6c6_d2f6_a4d5), "{seq}");
}

/// `solve --trace` writes its Chrome trace beside the solve's `--out`.
#[test]
fn solve_trace_flag_is_checked_before_any_output() {
    let dir = std::env::temp_dir().join(format!("pobp-solve-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (chrome, plan) = (dir.join("t.json"), dir.join("s.txt"));
    let (instance, _, _) = run(&["gen", "--kind", "fig2", "--n", "4"]);
    let args = ["solve", "--trace", chrome.to_str().unwrap(), "--out", plan.to_str().unwrap()];
    let (_, err, ok) = run_with_stdin(&args, &instance);
    assert!(ok, "{err}");
    assert!(std::fs::read_to_string(&chrome).unwrap().contains("\"name\":\"task\""));
    assert!(plan.exists());
    // A `--trace` without its value is refused before `--out` is written.
    std::fs::remove_file(&plan).unwrap();
    let args = ["solve", "--out", plan.to_str().unwrap(), "--trace"];
    let (_, err, ok) = run_with_stdin(&args, &instance);
    assert!(!ok);
    assert!(err.contains("--trace needs a value"), "{err}");
    assert!(!plan.exists(), "a refused solve must not write --out");
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

/// `pobp online --trace-logical` is byte-identical at `--threads 1` and `4`
/// with the cache on, although fig2/fig4 repeat their cells across seeds:
/// every task makes its own attempt, so every online row traces its run.
#[test]
fn online_logical_trace_is_thread_count_invariant() {
    let dir = std::env::temp_dir().join(format!("pobp-online-logical-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_at = |threads: &str| {
        let path = dir.join(format!("t{threads}.txt"));
        let (rows, err, ok) = run(&[
            "online", "--n", "8,12", "--k", "0,1,2", "--seeds", "3", "--threads", threads,
            "--trace-logical", path.to_str().unwrap(),
        ]);
        assert!(ok, "{err}");
        (rows, std::fs::read_to_string(&path).unwrap())
    };
    let (rows, seq) = trace_at("1");
    let (_, par) = trace_at("4");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(seq, par, "logical traces differ across thread counts");
    // 5 families × 2 n × 3 seeds × 3 k cells, each an oracle task plus
    // one task per online algorithm.
    assert_eq!(rows.lines().count(), 270);
    assert_eq!(seq.lines().filter(|l| l.contains(" online.done")).count(), 270);
    assert_eq!(seq.lines().filter(|l| l.ends_with(" begin attempt")).count(), 360);
}

/// `online --trace-logical` records the online executors' `online.*`
/// instants.
#[test]
fn online_trace_logical_records_online_events() {
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
    assert!(ok, "{err}");
    let text = std::fs::read_to_string(&logical).unwrap();
    assert!(text.contains("online."), "expected online.* instants:\n{text}");
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

/// A sharded sweep runs one engine batch per chunk, but `--progress` draws
/// one meter over the whole sweep: its chunks and its rows, not a meter
/// per chunk that each ends at the chunk's rows.
#[test]
fn sharded_sweep_progress_counts_the_whole_sweep() {
    let dir = std::env::temp_dir().join(format!("pobp-cli-progress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (out, err, ok) = run(&[
        "sweep", "--n", "20", "--k", "0,1", "--seeds", "40", "--chunk-cells", "8", "--out",
        dir.to_str().unwrap(), "--progress",
    ]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(ok, "{err}");
    assert!(out.is_empty(), "{out}");
    assert!(err.contains("progress: 5/5 chunks | 80/80 rows"), "{err}");
    assert!(!err.contains("16/16 rows"), "a per-chunk meter was drawn: {err}");
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

/// A sweep's stdout does not depend on the thread count: on small cells
/// of every default algorithm, and on n = 250 reduction cells, whose
/// `OPT_∞` reference is the probe-based greedy.
#[test]
fn sweep_output_is_thread_count_invariant() {
    for grid in [
        &["--n", "12,16", "--k", "0,1,2", "--seeds", "4"][..],
        &["--n", "250", "--alg", "reduction", "--k", "1,2", "--seeds", "2"][..],
    ] {
        let (par, err, ok) = run(&[&["sweep"], grid, &["--threads", "4"]].concat());
        assert!(ok, "{err}");
        let (seq, err, ok) = run(&[&["sweep"], grid, &["--threads", "1"]].concat());
        assert!(ok, "{err}");
        assert!(!seq.is_empty(), "sweep {grid:?} printed no rows");
        assert_eq!(par, seq, "sweep {grid:?}: --threads 4 and --threads 1 differ");
    }
}

/// The engine reuses a reduction's `k`-independent prefix across a k row
/// only when the cache hands every task of the row the same reference;
/// `--no-cache` rebuilds it per task. Either way the rows are the same.
#[test]
fn sweep_reduction_rows_do_not_depend_on_the_cache() {
    let grid = ["sweep", "--n", "250", "--alg", "reduction", "--k", "1,2,4", "--seeds", "2"];
    for threads in ["1", "4"] {
        let (cached, err, ok) = run(&[&grid[..], &["--threads", threads]].concat());
        assert!(ok, "{err}");
        let ok_rows = cached.lines().filter(|row| row.contains("\"status\":\"ok\"")).count();
        assert_eq!(ok_rows, 6, "{cached}");
        let (uncached, err, ok) = run(&[&grid[..], &["--threads", threads, "--no-cache"]].concat());
        assert!(ok, "{err}");
        assert_eq!(cached, uncached, "--threads {threads}: --no-cache changed the rows");
    }
}

/// A panicking algorithm fails only its own tasks: the batch completes,
/// exits 0, and reports one `panicked` row per task.
#[test]
fn sweep_isolates_panics_per_task() {
    let (out, err, ok) =
        run(&["sweep", "--n", "8", "--k", "1", "--seeds", "3", "--alg", "panic", "--threads", "2"]);
    assert!(ok, "{err}");
    let panicked = out.lines().filter(|row| row.contains("\"status\":\"panicked\"")).count();
    assert_eq!(panicked, 3, "{out}");
}

/// The sharded sweep grids whose merges are pinned, each with the length
/// and FNV-1a digest of a default release binary's `merged.jsonl`. The
/// grids also pin the solvers' bytes: reduction at n = 12 and 16, where
/// the left-merge places a handful of jobs; at n = 250, where it places
/// hundreds, on one machine and on two; and combined, whose strict branch
/// runs the left-merge too.
fn sharded_sweep_pins() -> [(Vec<&'static str>, (usize, u64)); 4] {
    let reduction_250 = ["--alg", "reduction", "--n", "250", "--k", "1,2,4", "--seeds", "2"];
    [
        (vec!["--n", "12,16", "--k", "0,1,2", "--seeds", "4"], (3972, 0x3f01_edf4_0c2c_e45c)),
        (reduction_250.to_vec(), (1046, 0x22a6_5d3f_20da_1875)),
        ([&reduction_250[..], &["--machines", "2"]].concat(), (1050, 0xc5de_6864_6eb7_210b)),
        (
            vec!["--alg", "combined", "--n", "20,40", "--k", "0,1,2,4", "--seeds", "8"],
            (10627, 0xa420_1e2f_037b_e6a1),
        ),
    ]
}

/// Runs every pinned sharded sweep plus `extra` at `--threads` 1 and 4,
/// checks each `merged.jsonl` against its pin with no file beside it that
/// a build adds (there is no `heartbeat.json`), and returns each run's
/// stderr.
fn check_sharded_sweeps(tag: &str, extra: &[&str]) -> Vec<String> {
    let mut stderrs = Vec::new();
    for (i, (grid, pin)) in sharded_sweep_pins().iter().enumerate() {
        for threads in ["1", "4"] {
            let dir = std::env::temp_dir()
                .join(format!("pobp-cli-{tag}-{i}-t{threads}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let out = ["--chunk-cells", "2", "--threads", threads, "--out", dir.to_str().unwrap()];
            let (_, err, ok) = run(&[&["sweep"], &grid[..], &out, extra].concat());
            assert!(ok, "{err}");
            let merged = std::fs::read(dir.join("merged.jsonl")).unwrap();
            let digest = (merged.len(), pobp::sweep::plan::fnv1a(&merged));
            assert_eq!(digest, *pin, "{grid:?} {extra:?} --threads {threads}");
            assert!(!dir.join("heartbeat.json").exists(), "{grid:?} --threads {threads}");
            std::fs::remove_dir_all(&dir).ok();
            stderrs.push(err);
        }
    }
    stderrs
}

/// Telemetry never changes results: a sharded sweep's `merged.jsonl` is the
/// same bytes at `--threads` 1 and 4, pinned.
#[test]
fn sharded_sweep_bytes_do_not_depend_on_the_build() {
    check_sharded_sweeps("build", &[]);
}

/// `--obs` arms the counter aggregate and changes no output byte: the
/// pinned sharded merges and logical trace stay the same bytes, and a
/// `solve` and an `online` print the same stdout, while each run's report
/// carries counters.
#[test]
fn obs_changes_no_output_byte() {
    let counted = |err: &str, name: &str| err.contains(&format!("\"{name}\": "));
    for err in check_sharded_sweeps("obs", &["--obs"]) {
        assert!(counted(&err, "engine.tasks.run"), "no counter report: {err}");
    }
    check_traced_sweep("obs", &["--obs"]);
    let (instance, _, _) = run(&["gen", "--kind", "random", "--n", "40", "--seed", "3"]);
    let solve = ["solve", "--k", "1", "--alg", "reduction", "--gantt"];
    let online = ["online", "--n", "5,8", "--k", "0,1", "--seeds", "2", "--threads", "2"];
    for (args, stdin, counter) in
        [(&solve[..], &instance, "sched.reduction.runs"), (&online[..], &String::new(), "online.runs")]
    {
        let (plain, err, ok) = run_with_stdin(args, stdin);
        assert!(ok, "{err}");
        assert!(!plain.is_empty(), "{args:?} printed nothing");
        let (observed, err, ok) = run_with_stdin(&[args, &["--obs"]].concat(), stdin);
        assert!(ok, "{err}");
        assert_eq!(plain, observed, "{args:?}: --obs changed stdout");
        assert!(counted(&err, counter), "{args:?}: no {counter} in the report: {err}");
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

/// `kill -9` mid-sweep, then `--resume`: the merge equals an uninterrupted
/// run's. The sweep is killed as soon as its manifest holds a complete
/// chunk record (a header line and a record line, both newline-ended), so
/// the kill lands while chunks remain (the test fails if the sweep finishes
/// first). Each life runs at a different thread count.
#[test]
fn sweep_killed_mid_run_resumes_to_the_full_merge() {
    let tmp = |tag: &str| {
        std::env::temp_dir().join(format!("pobp-cli-kill-{tag}-{}", std::process::id()))
    };
    let grid = [
        "sweep", "--n", "1000", "--alg", "reduction", "--k", "1,2", "--seeds", "24",
        "--chunk-cells", "1",
    ];
    let clean_dir = tmp("clean");
    let _ = std::fs::remove_dir_all(&clean_dir);
    let (_, err, ok) = run(&[&grid[..], &["--out", clean_dir.to_str().unwrap()]].concat());
    assert!(ok, "{err}");
    let clean = std::fs::read(clean_dir.join("merged.jsonl")).unwrap();

    for (killed_at, resumed_at) in [("4", "1"), ("1", "4")] {
        let dir = tmp(killed_at);
        let _ = std::fs::remove_dir_all(&dir);
        let out = [&grid[..], &["--out", dir.to_str().unwrap()]].concat();
        let mut child = pobp()
            .args(&out)
            .args(["--threads", killed_at])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn pobp sweep");
        let manifest = dir.join("manifest.json");
        let recorded = || {
            std::fs::read(&manifest)
                .is_ok_and(|m| m.iter().filter(|&&b| b == b'\n').count() >= 2)
        };
        while !recorded() {
            assert!(
                child.try_wait().expect("poll the sweep").is_none(),
                "the sweep exited before its manifest recorded a chunk"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        child.kill().expect("kill -9 the sweep");
        child.wait().expect("reap the sweep");
        assert!(
            !dir.join("merged.jsonl").exists(),
            "the sweep finished before the kill; the resume path did not run"
        );

        let (_, err, ok) = run(&[&out[..], &["--threads", resumed_at, "--resume"]].concat());
        assert!(ok, "{err}");
        let skipped = err
            .split_once(" skipped")
            .and_then(|(head, _)| head.rsplit(' ').next())
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap_or_else(|| panic!("no skipped count in: {err}"));
        assert!(skipped >= 1, "the resume recomputed every chunk: {err}");
        assert_eq!(std::fs::read(dir.join("merged.jsonl")).unwrap(), clean);
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&clean_dir).ok();
}

/// Every IO fault site, armed at rate 1, kills a sharded sweep at its
/// first guarded op that draws the site; a disarmed rerun converges to the
/// merge of a never-faulted run. The fresh manifest's header is written by
/// atomic replace, whose tmp write draws io-disk-full, io-short-write and
/// io-fsync and whose rename draws io-rename: those four die before any
/// manifest exists, and the rerun starts fresh. io-torn-tail is drawn
/// only by line appends, so it gets past the header, dies on the first
/// shard row, and the rerun resumes.
#[test]
fn every_io_fault_site_kills_a_sharded_sweep_and_a_disarmed_rerun_converges() {
    let tmp = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("pobp-cli-io-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let grid = ["sweep", "--n", "10,14", "--k", "0,1", "--seeds", "2", "--chunk-cells", "1"];
    let clean_dir = tmp("clean");
    let (_, err, ok) = run(&[&grid[..], &["--out", clean_dir.to_str().unwrap()]].concat());
    assert!(ok, "{err}");
    let clean = std::fs::read(clean_dir.join("merged.jsonl")).unwrap();

    for site in ["io-short-write", "io-fsync", "io-rename", "io-torn-tail", "io-disk-full"] {
        let dir = tmp(site);
        let out = [&grid[..], &["--out", dir.to_str().unwrap()]].concat();
        let chaos = format!("{site}:1");
        let (_, err, ok) = run(&[&out[..], &["--chaos", &chaos, "--chaos-seed", "3"]].concat());
        assert!(!ok, "{site}: a rate-1 fault did not fail the sweep");
        assert!(err.contains(&format!("chaos: injected io fault (site={site})")), "{site}: {err}");
        let checkpointed = dir.join("manifest.json").exists();
        assert_eq!(checkpointed, site == "io-torn-tail", "{site}: where the sweep died");
        let rerun = if checkpointed { [&out[..], &["--resume"]].concat() } else { out };
        let (_, err, ok) = run(&rerun);
        assert!(ok, "{site}: {err}");
        assert_eq!(std::fs::read(dir.join("merged.jsonl")).unwrap(), clean, "{site}");
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&clean_dir).ok();
}

/// A faulty sweep dies at the same deterministic point on any thread
/// count: the directories it leaves are byte-identical, file by file.
#[test]
fn faulty_sweeps_die_at_the_same_point_on_any_thread_count() {
    let leave = |threads: &str| {
        let dir = std::env::temp_dir()
            .join(format!("pobp-cli-io-det-{threads}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (_, _, ok) = run(&[
            "sweep", "--n", "10,14", "--k", "0,1", "--seeds", "2", "--chunk-cells", "1",
            "--threads", threads, "--out", dir.to_str().unwrap(),
            "--chaos", "io-torn-tail:0.5", "--chaos-seed", "9",
        ]);
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap()))
            .collect();
        files.sort();
        std::fs::remove_dir_all(&dir).ok();
        (ok, files)
    };
    let (ok1, files1) = leave("1");
    let (ok4, files4) = leave("4");
    assert!(!files1.is_empty(), "the sweep left no files");
    assert_eq!(ok1, ok4);
    assert!(files1 == files4, "the faulty sweep's directories differ across thread counts");
}

/// The grid of the chaos sweeps below: 12 cells, 4 of them `k = 0`.
const CHAOS_GRID: [&str; 7] = ["sweep", "--n", "10,14", "--k", "0,1,2", "--seeds", "2"];

/// Rows of a chaos sweep over [`CHAOS_GRID`] carrying `needle`.
fn count_rows(rows: &str, needle: &str) -> usize {
    rows.lines().filter(|row| row.contains(needle)).count()
}

/// A reference corrupted at every put never reaches an output row: every
/// row is `cert_failed`, none `ok`.
#[test]
fn chaos_corrupted_references_are_cert_failed_never_a_wrong_row() {
    let (out, err, ok) =
        run(&[&CHAOS_GRID[..], &["--chaos", "corrupt-ref:1", "--chaos-seed", "7"]].concat());
    assert!(ok, "{err}");
    assert_eq!(count_rows(&out, "\"status\":\"cert_failed\""), 12, "{out}");
    assert_eq!(count_rows(&out, "\"status\":\"ok\""), 0, "{out}");
}

/// Forced deadlines under `--degrade` leave every row a certified
/// polynomial rescue: `k0` for the `k = 0` cells, `lsa` for the rest.
#[test]
fn chaos_forced_deadlines_degrade_every_row() {
    let chaos = ["--chaos", "deadline:1", "--chaos-seed", "7", "--degrade"];
    let (out, err, ok) = run(&[&CHAOS_GRID[..], &chaos].concat());
    assert!(ok, "{err}");
    assert_eq!(count_rows(&out, "\"status\":\"degraded\""), 12, "{out}");
    assert_eq!(count_rows(&out, "\"fallback\":\"k0\""), 4, "{out}");
    assert_eq!(count_rows(&out, "\"fallback\":\"lsa\""), 8, "{out}");
    assert_eq!(count_rows(&out, "\"status\":\"timed_out\""), 0, "{out}");
    assert_eq!(count_rows(&out, "\"status\":\"cert_failed\""), 0, "{out}");
}

/// A partial panic rate gives mixed per-row outcomes, the same ones on
/// every run of the same seed.
#[test]
fn chaos_partial_panic_rate_gives_mixed_rows() {
    let chaos = ["--chaos", "panic:0.3", "--chaos-seed", "2", "--retries", "1"];
    let (out, err, ok) = run(&[&CHAOS_GRID[..], &chaos].concat());
    assert!(ok, "{err}");
    assert_eq!(count_rows(&out, "\"status\":\"ok\""), 7, "{out}");
    assert_eq!(count_rows(&out, "\"status\":\"panicked\""), 5, "{out}");
}

/// A chaotic sweep's rows do not depend on the thread count.
#[test]
fn chaos_sweep_output_is_thread_count_invariant() {
    let sweep = [
        "sweep", "--n", "12,16", "--k", "0,1,2", "--seeds", "4", "--degrade",
        "--chaos", "panic:0.4,flaky:0.4,deadline:0.4,corrupt-ref:0.4", "--chaos-seed", "42",
    ];
    let (par, err, ok) = run(&[&sweep[..], &["--threads", "4"]].concat());
    assert!(ok, "{err}");
    let (seq, err, ok) = run(&[&sweep[..], &["--threads", "1"]].concat());
    assert!(ok, "{err}");
    assert_eq!(seq.lines().count(), 24, "{seq}");
    assert_eq!(par, seq, "the chaotic sweep differs between --threads 4 and --threads 1");
}

/// A plan armed with every rate at 0 fires no site and so changes no
/// byte: over [`CHAOS_GRID`], at `--threads` 1 and 4, the streamed rows
/// and the sharded `merged.jsonl` and `manifest.json` are those of the
/// same sweep without `--chaos`.
#[test]
fn unfired_chaos_plan_is_inert() {
    let unfired =
        ["--chaos", "panic:0,corrupt-ref:0,io-fsync:0,io-torn-tail:0", "--chaos-seed", "9"];
    for threads in ["1", "4"] {
        let grid = [&CHAOS_GRID[..], &["--threads", threads]].concat();
        let (plain, err, ok) = run(&grid);
        assert!(ok, "{err}");
        let (armed, err, ok) = run(&[&grid[..], &unfired].concat());
        assert!(ok, "{err}");
        assert_eq!(armed, plain, "--threads {threads}: the streamed rows differ");
        let sharded = |tag: &str, chaos: &[&str]| {
            let dir = std::env::temp_dir()
                .join(format!("pobp-cli-inert-{tag}-t{threads}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let out = ["--out", dir.to_str().unwrap(), "--chunk-cells", "1"];
            let (_, err, ok) = run(&[&grid[..], &out, chaos].concat());
            assert!(ok, "{err}");
            let files = ["merged.jsonl", "manifest.json"].map(|f| std::fs::read(dir.join(f)));
            std::fs::remove_dir_all(&dir).ok();
            files.map(|f| f.expect("the sweep wrote its merge and manifest"))
        };
        let (armed, plain) = (sharded("armed", &unfired), sharded("plain", &[]));
        assert!(armed == plain, "--threads {threads}: the sharded files differ");
    }
}

/// A chaos seed without a plan would run fault-free: `sweep`, `online`
/// and `serve` refuse it before any work, with nothing on stdout and no
/// daemon bound.
#[test]
fn chaos_seed_without_chaos_is_refused() {
    for args in [
        &["sweep", "--n", "8", "--k", "0,1", "--seeds", "1", "--chaos-seed", "3"][..],
        &["online", "--n", "8", "--k", "1", "--seeds", "1", "--chaos-seed", "3"][..],
        &["serve", "--chaos-seed", "3", "--addr", "127.0.0.1:0"][..],
    ] {
        let out = pobp().args(args).output().expect("run pobp");
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("--chaos-seed needs --chaos SPEC"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} must not run: {stdout}");
    }
}
