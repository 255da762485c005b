//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, over a plain TCP
//! stream. Every request is an object with an `"op"` field; every response
//! has `"ok"` (and, for rejections specifically, `"rejected": true` with a
//! structured reason — clients distinguish *rejected* from *errored*).
//! The full op table lives in `docs/serve.md`; this module is the single
//! place that turns protocol lines into [`Service`] calls.

use crate::job::{key_hex, JobSpec, JobStatus};
use crate::json::{obj, Json};
use crate::service::{CancelOutcome, Service, SubmitOutcome, Wake};

/// What the connection loop should do after sending the response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep reading requests.
    Continue,
    /// Stop the daemon (`drain`: finish the queue first).
    Shutdown {
        /// Whether to drain the queue before stopping.
        drain: bool,
    },
}

/// An error response.
pub fn err(msg: &str) -> Json {
    obj([("ok", Json::Bool(false)), ("error", Json::Str(msg.into()))])
}

/// Handles one request line against the service. Total: malformed input
/// produces an error response, never a panic or a dropped connection.
///
/// The [`Wake`] holds back the worker of a job this request queued: drop
/// it once the response is written, so the job does not start ahead of
/// its own ack.
pub fn handle_line<'s>(service: &'s Service, line: &str) -> (Json, Control, Wake<'s>) {
    let parsed = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return (err(&format!("bad json: {e}")), Control::Continue, Wake::none()),
    };
    let Some(op) = parsed.get("op").and_then(Json::as_str) else {
        return (err("missing op"), Control::Continue, Wake::none());
    };
    if op == "submit" {
        let (response, wake) = handle_submit(service, &parsed);
        return (response, Control::Continue, wake);
    }
    let (response, control) = match op {
        "ping" => (obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))]), Control::Continue),
        "status" => (handle_status(service, &parsed), Control::Continue),
        "result" => (handle_result(service, &parsed), Control::Continue),
        "list" => (handle_list(service, &parsed), Control::Continue),
        "cancel" => (handle_cancel(service, &parsed), Control::Continue),
        "stats" => {
            (obj([("ok", Json::Bool(true)), ("stats", service.stats_json())]), Control::Continue)
        }
        "dump-flight" => (handle_dump_flight(service), Control::Continue),
        "shutdown" => {
            let drain = parsed.get("drain").and_then(Json::as_bool).unwrap_or(true);
            (
                obj([("ok", Json::Bool(true)), ("stopping", Json::Bool(true))]),
                Control::Shutdown { drain },
            )
        }
        other => (err(&format!("unknown op {other:?}")), Control::Continue),
    };
    (response, control, Wake::none())
}

fn handle_dump_flight(service: &Service) -> Json {
    match service.dump_flight("manual") {
        Ok(Some(path)) => obj([
            ("ok", Json::Bool(true)),
            ("path", Json::Str(path.display().to_string())),
        ]),
        Ok(None) => err("no --flight-dir configured"),
        Err(e) => err(&format!("flight dump failed: {e}")),
    }
}

fn handle_submit<'s>(service: &'s Service, req: &Json) -> (Json, Wake<'s>) {
    let Some(spec_json) = req.get("spec") else {
        return (err("submit without a spec"), Wake::none());
    };
    let spec = match JobSpec::from_json(spec_json) {
        Ok(s) => s,
        Err(e) => return (err(&format!("bad spec: {e}")), Wake::none()),
    };
    let (outcome, wake) = match service.admit(spec) {
        Ok(admitted) => admitted,
        Err(e) => return (err(&format!("journal write failed: {e}")), Wake::none()),
    };
    let response = match outcome {
        SubmitOutcome::Accepted { id, status, key, cached } => obj([
            ("ok", Json::Bool(true)),
            ("id", Json::Num(id as f64)),
            ("status", Json::Str(status.name().into())),
            ("key", Json::Str(key_hex(key))),
            ("cached", Json::Bool(cached)),
        ]),
        SubmitOutcome::Rejected { reason, queue_depth } => obj([
            ("ok", Json::Bool(false)),
            ("rejected", Json::Bool(true)),
            ("reason", Json::Str(reason.into())),
            ("queue_depth", Json::Num(queue_depth as f64)),
        ]),
    };
    (response, wake)
}

fn req_id(req: &Json) -> Result<u64, Json> {
    req.get("id").and_then(Json::as_u64).ok_or_else(|| err("missing id"))
}

fn handle_status(service: &Service, req: &Json) -> Json {
    let id = match req_id(req) {
        Ok(id) => id,
        Err(e) => return e,
    };
    match service.job(id) {
        Some(job) => obj([("ok", Json::Bool(true)), ("job", job.to_json())]),
        None => err("not_found"),
    }
}

fn handle_result(service: &Service, req: &Json) -> Json {
    let id = match req_id(req) {
        Ok(id) => id,
        Err(e) => return e,
    };
    let Some(job) = service.job(id) else { return err("not_found") };
    if !job.status.is_terminal() {
        return obj([
            ("ok", Json::Bool(false)),
            ("error", Json::Str("not finished".into())),
            ("status", Json::Str(job.status.name().into())),
        ]);
    }
    let mut pairs = vec![
        ("ok".into(), Json::Bool(true)),
        ("id".into(), Json::Num(job.id as f64)),
        ("status".into(), Json::Str(job.status.name().into())),
        ("key".into(), Json::Str(key_hex(job.key))),
    ];
    if let Some(result) = &job.result {
        pairs.push(("result".into(), result.clone()));
    }
    Json::Obj(pairs)
}

fn handle_list(service: &Service, req: &Json) -> Json {
    let status = match req.get("status").and_then(Json::as_str) {
        None => None,
        Some(s) => match JobStatus::parse(s) {
            Some(st) => Some(st),
            None => return err(&format!("unknown status {s:?}")),
        },
    };
    let limit = req.get("limit").and_then(Json::as_u64).unwrap_or(1000) as usize;
    let jobs = service.list(status, limit);
    obj([
        ("ok", Json::Bool(true)),
        ("count", Json::Num(jobs.len() as f64)),
        ("jobs", Json::Arr(jobs.iter().map(|j| j.to_json()).collect())),
    ])
}

fn handle_cancel(service: &Service, req: &Json) -> Json {
    let id = match req_id(req) {
        Ok(id) => id,
        Err(e) => return e,
    };
    match service.cancel(id) {
        CancelOutcome::NotFound => err("not_found"),
        CancelOutcome::AlreadyTerminal(status) => obj([
            ("ok", Json::Bool(true)),
            ("id", Json::Num(id as f64)),
            ("cancelled", Json::Bool(false)),
            ("status", Json::Str(status.name().into())),
        ]),
        CancelOutcome::CancelledQueued => obj([
            ("ok", Json::Bool(true)),
            ("id", Json::Num(id as f64)),
            ("cancelled", Json::Bool(true)),
            ("status", Json::Str("cancelled".into())),
        ]),
        CancelOutcome::SignalledRunning => obj([
            ("ok", Json::Bool(true)),
            ("id", Json::Num(id as f64)),
            ("cancelled", Json::Bool(true)),
            ("status", Json::Str("cancelling".into())),
        ]),
    }
}
