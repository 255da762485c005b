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

use pobp_core::cli::{flag_value, has_flag, only_flags, parse_num_strict};
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
    stats                        daemon counters, queue depths, uptime,
                                 job latency and per-algorithm counts
    top [--interval-ms MS] [--count N]
                                 live view of stats, with rates
    dump-flight                  ask the daemon to write a flight dump
                                 (needs a daemon run with --flight-dir)
    shutdown [--cancel]          stop the daemon (drains by default)
    soak --seconds N --seed S [--journal DIR] [--expect-restart]

SPEC FLAGS (submit):
    --name TAG --alg A --n N --k K --seed S --machines M
    --exact-ref --family F --priority P --deadline-ms MS

A flag the command does not know, a repeated flag, and any other argument
that is not a flag's value are usage errors.

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
    if let Some((values, switches)) = command_flags(&cmd) {
        if let Err(e) = only_flags(&args[1..], &[values, &["--addr"]].concat(), switches) {
            return usage_err(&e);
        }
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
        "top" => cmd_top(&client, &args),
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

/// The flags each command reads besides the global `--addr`, as (flags
/// that take a value, switches); `None` for an unknown command.
fn command_flags(cmd: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match cmd {
        "ping" | "stats" | "dump-flight" => (&[], &[]),
        "submit" => (
            &[
                "--name", "--alg", "--n", "--k", "--seed", "--machines", "--deadline-ms",
                "--priority", "--family", "--wait-secs",
            ],
            &["--exact-ref", "--wait"],
        ),
        "status" | "cancel" => (&["--id"], &[]),
        "result" => (&["--id", "--wait-secs"], &["--wait"]),
        "list" => (&["--status", "--limit"], &[]),
        "top" => (&["--interval-ms", "--count"], &[]),
        "shutdown" => (&[], &["--cancel"]),
        "soak" => (&["--seconds", "--seed", "--journal"], &["--expect-restart"]),
        _ => return None,
    })
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

/// Prints a `result` response and maps it to an exit code: a finished job's
/// by its status, anything else a usage error.
fn print_result(v: &Json) -> i32 {
    println!("{v}");
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return EXIT_USAGE;
    }
    let status = v.get("status").and_then(Json::as_str).unwrap_or("?");
    exit_for_terminal(status, v.get("result"))
}

/// `--wait`: polls `result` until the job is terminal or `--wait-secs`
/// (default 300) pass, then prints that response.
fn wait_for_result(client: &Client, args: &[String], id: u64) -> i32 {
    let timeout = match parse_num_strict(args, "--wait-secs", 300u64) {
        Ok(s) => Duration::from_secs(s),
        Err(e) => return usage_err(&e),
    };
    let deadline = Instant::now() + timeout;
    loop {
        match client.result(id) {
            Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => return print_result(&v),
            // "not finished" — keep polling.
            Ok(_) => {}
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
        wait_for_result(client, args, id)
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
        return wait_for_result(client, args, id);
    }
    match client.result(id) {
        Ok(v) => print_result(&v),
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

/// `top`: poll the daemon's `stats` op and render a live dashboard, with
/// rates over the interval between two consecutive polls.
///
/// On a TTY the view repaints in place (ANSI clear); piped output gets one
/// plain block per tick so a script can run `top --count 2` and grep the
/// text. `--count 0` (the default) polls until interrupted.
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
    let mut prev: Option<Json> = None;
    loop {
        let resp = match client.stats() {
            Ok(v) => v,
            Err(e) => return usage_err(&format!("transport error: {e}")),
        };
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            eprintln!("pobp-client top: daemon refused the stats op: {resp}");
            return EXIT_USAGE;
        }
        let Some(m) = resp.get("stats") else {
            eprintln!("pobp-client top: malformed stats response: {resp}");
            return EXIT_USAGE;
        };
        if live {
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_top(m, prev.as_ref()));
        prev = Some(m.clone());
        let _ = std::io::stdout().flush();
        ticks += 1;
        if count != 0 && ticks >= count {
            return EXIT_OK;
        }
        std::thread::sleep(interval);
    }
}

/// A number of a `stats` payload; `finished` sums the four terminal
/// statuses.
fn stat(stats: &Json, key: &str) -> f64 {
    let get = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    match key {
        "finished" => ["done", "degraded", "failed", "cancelled"].into_iter().map(get).sum(),
        _ => get(key),
    }
}

/// Formats one `stats` payload as the `top` text block. Rates and ratios
/// are counter deltas against `prev`, the payload of the previous poll,
/// over the uptime between the two; each prints `-` on the first frame,
/// and a ratio also when its denominator did not move.
fn render_top(m: &Json, prev: Option<&Json>) -> String {
    let num = |key: &str| stat(m, key);
    // The seconds since the previous poll, and the counter deltas over
    // them: none on the first poll, or across a daemon restart (uptime went
    // back).
    let secs = prev
        .and_then(|before| before.get("uptime_ms").and_then(Json::as_f64))
        .map(|before_ms| (num("uptime_ms") - before_ms) / 1000.0)
        .filter(|s| *s > 0.0);
    let delta = |key: &str| secs.and(prev).map(|before| stat(m, key) - stat(before, key));
    let dash = || "   -".to_string();
    let rate = |key: &str| match (delta(key), secs) {
        (Some(d), Some(s)) => format!("{:.1}/s", d / s),
        _ => dash(),
    };
    let ratio = |part: &str, whole: &str| match (delta(part), delta(whole)) {
        (Some(p), Some(w)) if w > 0.0 => format!("{:.1}%", p / w * 100.0),
        _ => dash(),
    };
    let mut out = String::new();
    out.push_str(&format!(
        "pobp serve - up {:.1}s   rates over the last {}\n",
        num("uptime_ms") / 1000.0,
        secs.map_or_else(|| "-".to_string(), |s| format!("{s:.1}s")),
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
        rate("accepted"),
        rate("finished"),
        rate("rejected"),
        rate("cache_hits"),
    ));
    out.push_str(&format!(
        "ratios   cache-hit {}   degrade {}\n",
        ratio("cache_hits", "accepted"),
        ratio("degraded", "finished"),
    ));
    // Legible below a millisecond too: `192µs`, `1.5ms`.
    let latency = m.get("latency_ms").unwrap_or(&Json::Null);
    let ms = |q: &str| match stat(latency, q) {
        ms if ms < 1.0 => format!("{:.0}µs", ms * 1000.0),
        ms => format!("{ms:.1}ms"),
    };
    out.push_str(&format!(
        "latency  p50 {}   p90 {}   p99 {}   ({} jobs measured)\n",
        ms("p50"),
        ms("p90"),
        ms("p99"),
        stat(latency, "count"),
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

    #[test]
    fn top_derives_rates_from_two_consecutive_polls() {
        /// A `stats` payload with only what `top`'s rates and ratios read;
        /// `finished` splits as done plus one cancelled job, which `top`
        /// sums back.
        fn payload(uptime_ms: u64, accepted: u64, finished: u64, cache_hits: u64) -> Json {
            let cancelled = finished.min(1);
            obj([
                ("uptime_ms", uptime_ms),
                ("accepted", accepted),
                ("cache_hits", cache_hits),
                ("done", finished - cancelled),
                ("cancelled", cancelled),
            ]
            .map(|(k, v)| (k, Json::Num(v as f64))))
        }
        let line = |frame: &str, head: &str| {
            frame.lines().find(|l| l.starts_with(head)).unwrap_or_default().to_string()
        };
        let first = payload(10_000, 6, 3, 1);
        let second = payload(12_000, 10, 5, 2);
        // The first frame has nothing to difference against.
        let frame = render_top(&first, None);
        assert!(frame.contains("rates over the last -"), "{frame}");
        let rates = line(&frame, "rates");
        assert!(!rates.contains("/s") && rates.matches(" -").count() == 4, "{rates}");
        let ratios = line(&frame, "ratios");
        assert!(!ratios.contains('%') && ratios.matches(" -").count() == 2, "{ratios}");
        // 2 s later: +4 accepted, +2 finished, +1 cache hit.
        let frame = render_top(&second, Some(&first));
        assert!(frame.contains("rates over the last 2.0s"), "{frame}");
        let rates = line(&frame, "rates");
        assert!(rates.contains("accepted 2.0/s") && rates.contains("finished 1.0/s"), "{rates}");
        assert!(rates.contains("rejected 0.0/s") && rates.contains("cache-hits 0.5/s"), "{rates}");
        let ratios = line(&frame, "ratios");
        assert!(ratios.contains("cache-hit 25.0%") && ratios.contains("degrade 0.0%"), "{ratios}");
        // Nothing moved: rates are zero, and ratios have no denominator.
        let third = payload(13_000, 10, 5, 2);
        let frame = render_top(&third, Some(&second));
        let rates = line(&frame, "rates");
        assert!(rates.contains("accepted 0.0/s"), "{rates}");
        let ratios = line(&frame, "ratios");
        assert_eq!(ratios.matches(" -").count(), 2, "{ratios}");
        // Across a daemon restart (uptime went back) nothing is differenced.
        let frame = render_top(&payload(500, 1, 0, 0), Some(&third));
        assert!(frame.contains("rates over the last -"), "{frame}");
        assert_eq!(line(&frame, "rates").matches(" -").count(), 4, "{frame}");
        assert_eq!(line(&frame, "ratios").matches(" -").count(), 2, "{frame}");
    }

    #[test]
    fn top_prints_sub_millisecond_latency_in_microseconds() {
        let latency = obj([("count", 20.0), ("p50", 0.192), ("p90", 0.95), ("p99", 2.5)]
            .map(|(k, v)| (k, Json::Num(v))));
        let frame = render_top(&obj([("latency_ms", latency)]), None);
        let line = frame.lines().find(|l| l.starts_with("latency")).unwrap_or_default();
        assert!(line.contains("p50 192µs   p90 950µs   p99 2.5ms"), "{line}");
        assert!(line.contains("(20 jobs measured)"), "{line}");
    }
}
