//! The sweep row format: one JSON line per grid cell.
//!
//! One function, [`format_row`], produces the line for a `(n, k, seed)`
//! cell from its [`TaskReport`] — used by the `pobp sweep` stdout path and
//! the shard writer alike, so a sharded sweep's merged output is
//! byte-identical to the streaming one.
//!
//! Rows are a **pure function of the request**: no durations, no cache
//! flags, no thread ids. That is the determinism contract that makes
//! `--threads 1` and `--threads 4` byte-identical, and — because a resumed
//! sweep recomputes exactly the missing cells — what makes a `--resume`
//! after `kill -9` converge to the uninterrupted bytes (docs/sweeps.md).
//! (`attempts` qualifies: every task makes its own attempts, and chaos
//! retries are content-keyed.)

use pobp_core::json::Json;
use pobp_engine::{Algo, SolveOutput, TaskReport, TaskResult};

/// Formats the JSON line of one sweep cell.
pub fn format_row(
    n: usize,
    k: u32,
    seed: u64,
    algo: Algo,
    machines: usize,
    report: &TaskReport,
) -> String {
    let mut line = format!(
        "{{\"n\":{n},\"k\":{k},\"seed\":{seed},\"alg\":\"{}\",\"machines\":{machines},\
         \"status\":\"{}\",\"attempts\":{}",
        algo.name(),
        report.result.status(),
        report.attempts,
    );
    match &report.result {
        TaskResult::Done(out) => push_output_fields(&mut line, out),
        TaskResult::Degraded { fallback, cause, output } => {
            line.push_str(&format!(
                ",\"fallback\":\"{}\",\"cause\":\"{}\"",
                fallback.name(),
                cause.name(),
            ));
            push_output_fields(&mut line, output);
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
    line
}

/// Appends the certified output fields shared by `ok` and `degraded` rows.
pub fn push_output_fields(line: &mut String, out: &SolveOutput) {
    line.push_str(&format!(
        ",\"value\":{},\"ref_value\":{},\"scheduled\":{},\"preemptions\":{}",
        out.alg_value, out.ref_value, out.scheduled, out.preemptions,
    ));
    if let Some(p) = out.price() {
        line.push_str(&format!(",\"price\":{p}"));
    }
}
