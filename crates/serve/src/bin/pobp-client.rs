//! `pobp-client`: command-line client for the `pobp serve` daemon.
//!
//! Every subcommand prints exactly one JSON object to stdout (the daemon's
//! response, or the soak report) so scripts can pipe it straight into a
//! JSON tool. Outcomes are distinguished by exit code:
//!
//! * `0` — success (job done or degraded-but-certified, op accepted).
//! * `1` — usage error or transport failure (no daemon, bad flags).
//! * `3` — the daemon rejected the submission (structured backpressure).
//! * `4` — the job finished `failed` or `cancelled`, or a soak invariant
//!   was violated.
//! * `5` — the job failed the certification trust boundary
//!   (`cert_failed`).
//!
//! See `docs/serve.md` for the protocol and the full flag reference.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pobp_core::cli::{flag_value, has_flag, needs_instrument, parse_num_strict};
use pobp_serve::json::{obj, Json};
use pobp_serve::soak::{run_soak, SoakConfig};
use pobp_serve::Client;

const EXIT_OK: i32 = 0;
const EXIT_USAGE: i32 = 1;
const EXIT_REJECTED: i32 = 3;
const EXIT_FAILED: i32 = 4;
const EXIT_CERT_FAILED: i32 = 5;

fn usage() {
    eprintln!(
        "pobp-client — client for the pobp serve daemon (docs/serve.md)

USAGE:
    pobp-client <command> [--addr HOST:PORT] [flags]

COMMANDS:
    ping                         is a daemon answering?
    submit [spec flags] [--wait] submit one job
    status --id N                one job's record
    result --id N [--wait]       a finished job's result
    list [--status S] [--limit N]
    cancel --id N
    stats                        daemon counters and queue depths
    top [--interval-ms MS] [--count N]
                                 live telemetry view (top and dump-flight
                                 need --features instrument builds)
    dump-flight                  ask the daemon to write a flight dump
    shutdown [--cancel]          stop the daemon (drains by default)
    soak --seconds N --seed S [--journal DIR] [--expect-restart]

SPEC FLAGS (submit):
    --name TAG --alg A --n N --k K --seed S --machines M
    --exact-ref --family F --priority P --deadline-ms MS

Exit codes: 0 ok, 1 usage/transport, 3 rejected, 4 failed/cancelled,
5 cert_failed."
    );
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        usage();
        return EXIT_USAGE;
    };
    if matches!(cmd.as_str(), "top" | "dump-flight") && !pobp_core::obs::enabled() {
        return usage_err(&needs_instrument(&cmd));
    }
    let addr = match flag_value(&args, "--addr") {
        Ok(v) => v.unwrap_or_else(|| "127.0.0.1:7411".into()),
        Err(e) => return usage_err(&e),
    };
    let client = Client::new(&addr, Duration::from_secs(10));
    match cmd.as_str() {
        "ping" => {
            let ok = client.ping();
            println!("{}", obj([("ok", Json::Bool(ok)), ("addr", Json::Str(addr))]));
            if ok {
                EXIT_OK
            } else {
                EXIT_USAGE
            }
        }
        "submit" => cmd_submit(&client, &args),
        "status" => cmd_simple_id(&client, &args, |c, id| c.status(id)),
        "result" => cmd_result(&client, &args),
        "list" => cmd_list(&client, &args),
        "cancel" => cmd_simple_id(&client, &args, |c, id| c.cancel(id)),
        "stats" => print_response(client.stats()),
        #[cfg(feature = "instrument")]
        "top" => cmd_top(&client, &args),
        #[cfg(feature = "instrument")]
        "dump-flight" => print_response(client.dump_flight()),
        "shutdown" => print_response(client.shutdown(!has_flag(&args, "--cancel"))),
        "soak" => cmd_soak(&addr, &args),
        other => {
            eprintln!("pobp-client: unknown command {other:?}");
            usage();
            EXIT_USAGE
        }
    }
}

fn usage_err(msg: &str) -> i32 {
    eprintln!("pobp-client: {msg}");
    EXIT_USAGE
}

/// Prints the response object and maps it to an exit code.
fn print_response(resp: std::io::Result<Json>) -> i32 {
    match resp {
        Ok(v) => {
            println!("{v}");
            if v.get("ok").and_then(Json::as_bool) == Some(true) {
                EXIT_OK
            } else if v.get("rejected").and_then(Json::as_bool) == Some(true) {
                EXIT_REJECTED
            } else {
                EXIT_USAGE
            }
        }
        Err(e) => usage_err(&format!("transport error: {e}")),
    }
}

/// Builds the spec object from `submit` flags.
fn spec_from_flags(args: &[String]) -> Result<Json, String> {
    let mut pairs: Vec<(String, Json)> = Vec::new();
    if let Some(name) = flag_value(args, "--name")? {
        pairs.push(("name".into(), Json::Str(name)));
    }
    if let Some(alg) = flag_value(args, "--alg")? {
        pairs.push(("alg".into(), Json::Str(alg)));
    }
    for (flag_name, key) in [
        ("--n", "n"),
        ("--k", "k"),
        ("--seed", "seed"),
        ("--machines", "machines"),
        ("--deadline-ms", "deadline_ms"),
    ] {
        if let Some(v) = flag_value(args, flag_name)? {
            let num: u64 = v
                .parse()
                .map_err(|e| format!("invalid value for {flag_name}: {e} (got {v:?})"))?;
            pairs.push((key.into(), Json::Num(num as f64)));
        }
    }
    let priority: i64 = parse_num_strict(args, "--priority", 0)?;
    if priority != 0 {
        pairs.push(("priority".into(), Json::Num(priority as f64)));
    }
    if has_flag(args, "--exact-ref") {
        pairs.push(("exact_ref".into(), Json::Bool(true)));
    }
    if let Some(family) = flag_value(args, "--family")? {
        pairs.push(("family".into(), Json::Str(family)));
    }
    Ok(Json::Obj(pairs))
}

/// Exit code for a terminal job status (inspecting the result object to
/// tell `cert_failed` apart from the other failures).
fn exit_for_terminal(status: &str, result: Option<&Json>) -> i32 {
    match status {
        "done" | "degraded" => EXIT_OK,
        "cancelled" => EXIT_FAILED,
        _ => {
            let kind = result.and_then(|r| r.get("status")).and_then(Json::as_str);
            if kind == Some("cert_failed") {
                EXIT_CERT_FAILED
            } else {
                EXIT_FAILED
            }
        }
    }
}

/// Polls `result` until the job is terminal, then prints that response.
fn wait_for_result(client: &Client, id: u64, timeout: Duration) -> i32 {
    let deadline = Instant::now() + timeout;
    loop {
        match client.result(id) {
            Ok(v) => {
                if v.get("ok").and_then(Json::as_bool) == Some(true) {
                    println!("{v}");
                    let status = v.get("status").and_then(Json::as_str).unwrap_or("?");
                    return exit_for_terminal(status, v.get("result"));
                }
                // "not finished" — keep polling.
            }
            Err(e) => return usage_err(&format!("transport error: {e}")),
        }
        if Instant::now() >= deadline {
            return usage_err(&format!("job {id} not finished within {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn cmd_submit(client: &Client, args: &[String]) -> i32 {
    let spec = match spec_from_flags(args) {
        Ok(s) => s,
        Err(e) => return usage_err(&e),
    };
    let resp = match client.submit(spec) {
        Ok(r) => r,
        Err(e) => return usage_err(&format!("transport error: {e}")),
    };
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        println!("{resp}");
        return if resp.get("rejected").and_then(Json::as_bool) == Some(true) {
            EXIT_REJECTED
        } else {
            EXIT_USAGE
        };
    }
    let id = resp.get("id").and_then(Json::as_u64).unwrap_or(0);
    if has_flag(args, "--wait") {
        let timeout = match parse_num_strict(args, "--wait-secs", 300u64) {
            Ok(s) => Duration::from_secs(s),
            Err(e) => return usage_err(&e),
        };
        wait_for_result(client, id, timeout)
    } else {
        println!("{resp}");
        EXIT_OK
    }
}

fn cmd_result(client: &Client, args: &[String]) -> i32 {
    let id = match parse_num_strict(args, "--id", u64::MAX) {
        Ok(u64::MAX) => return usage_err("result needs --id N"),
        Ok(id) => id,
        Err(e) => return usage_err(&e),
    };
    if has_flag(args, "--wait") {
        let timeout = match parse_num_strict(args, "--wait-secs", 300u64) {
            Ok(s) => Duration::from_secs(s),
            Err(e) => return usage_err(&e),
        };
        return wait_for_result(client, id, timeout);
    }
    match client.result(id) {
        Ok(v) => {
            println!("{v}");
            if v.get("ok").and_then(Json::as_bool) == Some(true) {
                let status = v.get("status").and_then(Json::as_str).unwrap_or("?");
                exit_for_terminal(status, v.get("result"))
            } else {
                EXIT_USAGE
            }
        }
        Err(e) => usage_err(&format!("transport error: {e}")),
    }
}

fn cmd_simple_id(
    client: &Client,
    args: &[String],
    op: impl Fn(&Client, u64) -> std::io::Result<Json>,
) -> i32 {
    let id = match parse_num_strict(args, "--id", u64::MAX) {
        Ok(u64::MAX) => return usage_err("this command needs --id N"),
        Ok(id) => id,
        Err(e) => return usage_err(&e),
    };
    print_response(op(client, id))
}

fn cmd_list(client: &Client, args: &[String]) -> i32 {
    let mut pairs = vec![("op".into(), Json::Str("list".into()))];
    match flag_value(args, "--status") {
        Ok(Some(s)) => pairs.push(("status".into(), Json::Str(s))),
        Ok(None) => {}
        Err(e) => return usage_err(&e),
    }
    match parse_num_strict(args, "--limit", 1000u64) {
        Ok(limit) => pairs.push(("limit".into(), Json::Num(limit as f64))),
        Err(e) => return usage_err(&e),
    }
    print_response(client.request(&Json::Obj(pairs)))
}

/// `top`: poll the daemon's `metrics` op and render a live dashboard.
///
/// On a TTY the view repaints in place (ANSI clear); piped output gets one
/// plain block per tick so CI can run `top --count 1` and grep the text.
/// `--count 0` (the default) polls until interrupted.
#[cfg(feature = "instrument")]
fn cmd_top(client: &Client, args: &[String]) -> i32 {
    use std::io::{IsTerminal, Write as _};
    let interval = match parse_num_strict(args, "--interval-ms", 1000u64) {
        Ok(ms) => Duration::from_millis(ms.max(50)),
        Err(e) => return usage_err(&e),
    };
    let count: u64 = match parse_num_strict(args, "--count", 0u64) {
        Ok(c) => c,
        Err(e) => return usage_err(&e),
    };
    let live = std::io::stdout().is_terminal();
    let mut ticks = 0u64;
    loop {
        let resp = match client.metrics() {
            Ok(v) => v,
            Err(e) => return usage_err(&format!("transport error: {e}")),
        };
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            eprintln!("pobp-client top: daemon refused the metrics op: {resp}");
            return EXIT_USAGE;
        }
        let Some(m) = resp.get("metrics") else {
            eprintln!("pobp-client top: malformed metrics response: {resp}");
            return EXIT_USAGE;
        };
        if live {
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_top(m));
        let _ = std::io::stdout().flush();
        ticks += 1;
        if count != 0 && ticks >= count {
            return EXIT_OK;
        }
        std::thread::sleep(interval);
    }
}

/// Formats one `metrics` payload as the `top` text block.
#[cfg(feature = "instrument")]
fn render_top(m: &Json) -> String {
    let num = |key: &str| m.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let rate = |key: &str| {
        m.get("rates")
            .and_then(|r| r.get(key))
            .and_then(Json::as_f64)
            .map_or_else(|| "   -".into(), |v| format!("{v:.1}/s"))
    };
    let ratio = |key: &str| {
        m.get(key)
            .and_then(Json::as_f64)
            .map_or_else(|| "   -".into(), |v| format!("{:.1}%", v * 100.0))
    };
    let mut out = String::new();
    out.push_str(&format!(
        "pobp serve - up {:.1}s   window {:.1}s over {} samples @ {}ms\n",
        num("uptime_ms") / 1000.0,
        num("window_secs"),
        num("samples"),
        num("sample_ms"),
    ));
    out.push_str(&format!(
        "queue    {:>4} / {} queued   {:>3} running   {:>5} jobs   journal {:.1} KiB\n",
        num("queued"),
        num("queue_cap"),
        num("running"),
        num("jobs"),
        num("journal_bytes") / 1024.0,
    ));
    if m.get("journal_poisoned").and_then(Json::as_bool) == Some(true) {
        out.push_str("!! journal poisoned: appends failing, daemon is read-only\n");
    }
    out.push_str(&format!(
        "rates    accepted {}   finished {}   rejected {}   cache-hits {}\n",
        rate("accepted_per_s"),
        rate("finished_per_s"),
        rate("rejected_per_s"),
        rate("cache_hits_per_s"),
    ));
    out.push_str(&format!(
        "ratios   cache-hit {}   degrade {}\n",
        ratio("cache_hit_ratio"),
        ratio("degrade_ratio"),
    ));
    let lat = |q: &str| {
        m.get("latency_ms").and_then(|l| l.get(q)).and_then(Json::as_f64).unwrap_or(0.0)
    };
    out.push_str(&format!(
        "latency  p50 {:.0}ms   p90 {:.0}ms   p99 {:.0}ms   ({} jobs measured)\n",
        lat("p50"),
        lat("p90"),
        lat("p99"),
        lat("count"),
    ));
    if let Some(Json::Obj(algs)) = m.get("per_alg") {
        if !algs.is_empty() {
            out.push_str("per-alg\n");
            for (alg, v) in algs {
                let done = v.get("done").and_then(Json::as_f64).unwrap_or(0.0);
                out.push_str(&format!("  {alg:<14} {done:>6} done\n"));
            }
        }
    }
    out
}

fn cmd_soak(addr: &str, args: &[String]) -> i32 {
    let seconds = match parse_num_strict(args, "--seconds", 30u64) {
        Ok(s) => s,
        Err(e) => return usage_err(&e),
    };
    let seed = match parse_num_strict(args, "--seed", 0u64) {
        Ok(s) => s,
        Err(e) => return usage_err(&e),
    };
    let journal_dir = match flag_value(args, "--journal") {
        Ok(v) => v.map(PathBuf::from),
        Err(e) => return usage_err(&e),
    };
    let cfg = SoakConfig {
        addr: addr.to_string(),
        seconds,
        seed,
        journal_dir,
        expect_restart: has_flag(args, "--expect-restart"),
    };
    match run_soak(&cfg) {
        Ok(report) => {
            let mut out = report.to_json();
            if let Json::Obj(pairs) = &mut out {
                pairs.insert(0, ("ok".into(), Json::Bool(true)));
            }
            println!("{out}");
            EXIT_OK
        }
        Err(e) => {
            println!("{}", obj([("ok", Json::Bool(false)), ("error", Json::Str(e.clone()))]));
            eprintln!("pobp-client soak: {e}");
            EXIT_FAILED
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_statuses_map_to_documented_exit_codes() {
        assert_eq!(exit_for_terminal("done", None), EXIT_OK);
        assert_eq!(exit_for_terminal("degraded", None), EXIT_OK);
        assert_eq!(exit_for_terminal("cancelled", None), EXIT_FAILED);
        assert_eq!(exit_for_terminal("failed", None), EXIT_FAILED);
        let cert = obj([("status", Json::Str("cert_failed".into()))]);
        assert_eq!(exit_for_terminal("failed", Some(&cert)), EXIT_CERT_FAILED);
        let panicked = obj([("status", Json::Str("panicked".into()))]);
        assert_eq!(exit_for_terminal("failed", Some(&panicked)), EXIT_FAILED);
    }

    #[test]
    fn spec_flags_round_trip_into_the_submit_object() {
        let args: Vec<String> = [
            "--name", "t", "--alg", "lsa", "--n", "12", "--k", "2", "--seed", "9",
            "--priority", "-3", "--exact-ref", "--family", "bursty",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let spec = spec_from_flags(&args).unwrap();
        assert_eq!(spec.get("alg").and_then(Json::as_str), Some("lsa"));
        assert_eq!(spec.get("n").and_then(Json::as_u64), Some(12));
        assert_eq!(spec.get("priority").and_then(Json::as_f64), Some(-3.0));
        assert_eq!(spec.get("exact_ref").and_then(Json::as_bool), Some(true));
        assert_eq!(spec.get("family").and_then(Json::as_str), Some("bursty"));
        // A flag missing its value is a loud error naming the flag.
        let bad: Vec<String> = ["--n"].iter().map(|s| s.to_string()).collect();
        assert!(spec_from_flags(&bad).unwrap_err().contains("--n"));
    }
}
