//! The service's job model: what a named solve job is, its lifecycle
//! states, and the content key that makes results reusable across requests.
//!
//! A [`JobSpec`] names one solver cell — the same `(alg, n, k, seed,
//! machines, exact_ref, family)` coordinates `pobp sweep` / `pobp online`
//! iterate over — plus service-level fields the engine never sees: a
//! free-form `name`, an admission `priority`, and an optional per-job
//! solve `deadline_ms`. The daemon turns an admitted spec into exactly one
//! engine [`SolveTask`] and the task's terminal
//! [`TaskResult`](pobp_engine::TaskResult) into the job's terminal
//! [`JobStatus`].
//!
//! The [content key](JobSpec::content_key) hashes what the *solver* sees —
//! the generated instance bytes and the solving parameters, not the name or
//! priority — so two differently-named submissions of the same cell share
//! one result (`serve.cache.hits`), both within a daemon's lifetime and
//! across `kill -9` restarts (the registry journal persists results by
//! key; see `docs/serve.md`).

use pobp_engine::{instance_hash, Algo, SolveTask};
use pobp_instances::{check_zoo_cell, zoo_instance, RandomWorkload, ZooFamily};

use crate::json::Json;

/// Hard cap on `n` accepted over the wire, so a hostile request cannot ask
/// the daemon to materialise an absurd instance.
pub const MAX_JOB_N: usize = 100_000;

/// One named solve job: a solver cell plus service-level metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Free-form client tag, echoed in every view of the job. Not
    /// interpreted and not part of the content key.
    pub name: String,
    /// The algorithm to run (any [`Algo`] except the test-only `panic`,
    /// which is admitted — the soak harness uses it to exercise failure
    /// paths — but never cached).
    pub alg: Algo,
    /// Instance size.
    pub n: usize,
    /// Preemption budget.
    pub k: u32,
    /// Workload seed.
    pub seed: u64,
    /// Machines (`1` = single machine).
    pub machines: usize,
    /// Whether the exact `OPT_∞` reference is used (see
    /// [`SolveTask::exact_ref`]).
    pub exact_ref: bool,
    /// Instance family: a zoo family (`docs/online.md`), or `None` for the
    /// standard random workload `pobp sweep` uses.
    pub family: Option<ZooFamily>,
    /// Admission priority: higher runs first; ties break FIFO by job id.
    pub priority: i64,
    /// Optional per-job wall-clock solve deadline, enforced cooperatively
    /// at the engine's stage-boundary yield points (with the daemon's
    /// `--degrade`, an overrun degrades to the polynomial fallback instead
    /// of failing).
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// A minimal spec for one solver cell (no name, default priority).
    pub fn cell(alg: Algo, n: usize, k: u32, seed: u64) -> Self {
        JobSpec {
            name: String::new(),
            alg,
            n,
            k,
            seed,
            machines: 1,
            exact_ref: false,
            family: None,
            priority: 0,
            deadline_ms: None,
        }
    }

    /// Materialises the job's instance (a pure function of the spec).
    pub fn instance(&self) -> pobp_core::JobSet {
        match self.family {
            Some(f) => zoo_instance(f, self.n, self.k, self.seed),
            None => RandomWorkload::standard(self.n).generate(self.seed),
        }
    }

    /// The engine task this spec runs.
    pub fn task(&self) -> SolveTask {
        SolveTask {
            instance: self.instance(),
            k: self.k,
            machines: self.machines,
            algo: self.alg,
            exact_ref: self.exact_ref,
            label: self.label(),
        }
    }

    /// The label echoed through the engine report.
    pub fn label(&self) -> String {
        let fam = self.family.map(|f| format!("{f} ")).unwrap_or_default();
        format!("{}n={} k={} seed={} {}", fam, self.n, self.k, self.seed, self.alg.name())
    }

    /// Content key of the *solve* this job asks for: a hash of the
    /// materialised instance and every solver-visible parameter. Jobs with
    /// equal keys have byte-identical certified results, so the daemon may
    /// serve one from the other (`serve.cache.hits`). Name, priority, and
    /// deadline are deliberately excluded.
    pub fn content_key(&self) -> u64 {
        let mut h = instance_hash(&self.instance());
        let mut mix = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.k as u64);
        mix(self.machines as u64);
        mix(self.alg as u64);
        mix(self.exact_ref as u64);
        h
    }

    /// The spec as a protocol/journal JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("alg".into(), Json::Str(self.alg.name().into())),
            ("n".into(), Json::Num(self.n as f64)),
            ("k".into(), Json::Num(self.k as f64)),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("machines".into(), Json::Num(self.machines as f64)),
            ("exact_ref".into(), Json::Bool(self.exact_ref)),
            ("priority".into(), Json::Num(self.priority as f64)),
        ];
        if let Some(f) = self.family {
            pairs.push(("family".into(), Json::Str(f.to_string())));
        }
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline_ms".into(), Json::Num(ms as f64)));
        }
        Json::Obj(pairs)
    }

    /// Parses and validates a spec from a protocol/journal JSON object.
    /// Every rejection names the offending field.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let name = v.get("name").and_then(Json::as_str).unwrap_or("").to_string();
        let alg_name = v.get("alg").and_then(Json::as_str).unwrap_or("reduction");
        let alg = Algo::parse(alg_name).ok_or_else(|| format!("unknown alg {alg_name:?}"))?;
        let n = v.get("n").and_then(Json::as_u64).unwrap_or(20) as usize;
        if n == 0 || n > MAX_JOB_N {
            return Err(format!("n must be in 1..={MAX_JOB_N} (got {n})"));
        }
        let k = match v.get("k").and_then(Json::as_u64).unwrap_or(1) {
            k if k <= u32::MAX as u64 => k as u32,
            k => return Err(format!("k out of range (got {k})")),
        };
        let seed = v.get("seed").and_then(Json::as_u64).unwrap_or(0);
        let machines = v.get("machines").and_then(Json::as_u64).unwrap_or(1) as usize;
        if machines == 0 || machines > 1024 {
            return Err(format!("machines must be in 1..=1024 (got {machines})"));
        }
        if alg.is_online() && machines > 1 {
            return Err("online algorithms are single-machine".into());
        }
        let exact_ref = v.get("exact_ref").and_then(Json::as_bool).unwrap_or(false);
        let family = match v.get("family").and_then(Json::as_str) {
            None => None,
            Some(s) => Some(
                ZooFamily::parse(s).ok_or_else(|| format!("unknown family {s:?}"))?,
            ),
        };
        if let Some(f) = family {
            check_zoo_cell(f, n, k, MAX_JOB_N).map_err(|e| e.to_string())?;
        }
        let priority = v.get("priority").and_then(Json::as_i64).unwrap_or(0);
        let deadline_ms = match v.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(d) => match d.as_u64() {
                Some(ms) if ms >= 1 => Some(ms),
                _ => return Err("deadline_ms must be a positive integer".into()),
            },
        };
        Ok(JobSpec {
            name,
            alg,
            n,
            k,
            seed,
            machines,
            exact_ref,
            family,
            priority,
            deadline_ms,
        })
    }
}

/// Lifecycle state of a job in the registry
/// (`submit → queued → running → done/degraded/failed/cancelled`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting in the priority queue.
    Queued,
    /// Claimed by a worker; an engine is solving it.
    Running,
    /// Finished with a certified result (`TaskResult::Done`).
    Done,
    /// Finished with a certified polynomial-fallback result
    /// (`TaskResult::Degraded`).
    Degraded,
    /// Finished without a result: the engine reported `panicked`,
    /// `timed_out`, or `cert_failed` (the result JSON says which).
    Failed,
    /// Cancelled — while queued (never reached the engine) or mid-run
    /// (the per-job engine was stopped with `cancel_all`).
    Cancelled,
}

impl JobStatus {
    /// The stable lowercase name used by the protocol.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Degraded => "degraded",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    /// Parses [`JobStatus::name`] back into a variant.
    pub fn parse(s: &str) -> Option<JobStatus> {
        match s {
            "queued" => Some(JobStatus::Queued),
            "running" => Some(JobStatus::Running),
            "done" => Some(JobStatus::Done),
            "degraded" => Some(JobStatus::Degraded),
            "failed" => Some(JobStatus::Failed),
            "cancelled" => Some(JobStatus::Cancelled),
            _ => None,
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// Renders a content key as the fixed-width hex string used on the wire.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_json_roundtrips() {
        let mut spec = JobSpec::cell(Algo::Combined, 14, 2, 9);
        spec.name = "alpha".into();
        spec.priority = -3;
        spec.deadline_ms = Some(250);
        spec.family = Some(ZooFamily::parse("bursty").unwrap());
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn content_key_ignores_service_fields_but_not_solver_fields() {
        let a = JobSpec::cell(Algo::Reduction, 12, 1, 3);
        let mut b = a.clone();
        b.name = "other".into();
        b.priority = 99;
        b.deadline_ms = Some(1000);
        assert_eq!(a.content_key(), b.content_key());
        let mut c = a.clone();
        c.k = 2;
        assert_ne!(a.content_key(), c.content_key());
        let mut d = a.clone();
        d.alg = Algo::LsaCs;
        assert_ne!(a.content_key(), d.content_key());
    }

    #[test]
    fn spec_validation_names_the_field() {
        let bad = Json::parse(r#"{"alg":"nope"}"#).unwrap();
        assert!(JobSpec::from_json(&bad).unwrap_err().contains("alg"));
        let bad = Json::parse(r#"{"n":0}"#).unwrap();
        assert!(JobSpec::from_json(&bad).unwrap_err().contains('n'));
        let bad = Json::parse(r#"{"machines":0}"#).unwrap();
        assert!(JobSpec::from_json(&bad).unwrap_err().contains("machines"));
        let bad = Json::parse(r#"{"alg":"online-djn","machines":2}"#).unwrap();
        assert!(JobSpec::from_json(&bad).unwrap_err().contains("single-machine"));
        let bad = Json::parse(r#"{"deadline_ms":0}"#).unwrap();
        assert!(JobSpec::from_json(&bad).unwrap_err().contains("deadline_ms"));
    }

    #[test]
    fn zoo_cells_that_cannot_be_built_are_refused_by_field() {
        // Each used to panic in `content_key` (fig2's `2^(n-1)` overflow,
        // fig4's wrapping `2 * k`) or build ten times `MAX_JOB_N` jobs.
        for (spec, field) in [
            (r#"{"family":"fig2","n":64}"#, "n must be in 1..=62"),
            (r#"{"family":"fig4","k":2147483648}"#, "k too large for family fig4"),
            (r#"{"family":"fig4","k":500000}"#, "k too large for family fig4"),
        ] {
            let err = JobSpec::from_json(&Json::parse(spec).unwrap()).unwrap_err();
            assert!(err.starts_with(field), "{spec}: {err}");
        }
        let fits = Json::parse(r#"{"family":"fig4","k":49999,"n":8}"#).unwrap();
        assert!(JobSpec::from_json(&fits).is_ok());
        let random = Json::parse(r#"{"n":64,"k":2147483648}"#).unwrap();
        assert!(JobSpec::from_json(&random).is_ok(), "the random workload has no zoo rule");
    }

    #[test]
    fn status_roundtrips_and_terminality() {
        for s in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Done,
            JobStatus::Degraded,
            JobStatus::Failed,
            JobStatus::Cancelled,
        ] {
            assert_eq!(JobStatus::parse(s.name()), Some(s));
            assert_eq!(s.is_terminal(), !matches!(s, JobStatus::Queued | JobStatus::Running));
        }
    }
}
