//! The durable job registry: an event-sourced map from job id to record.
//!
//! The registry is a **pure function of its event sequence**: the live
//! daemon mutates it only through [`Registry::apply`], the journal persists
//! exactly those [`Event`]s, and recovery replays them through the same
//! `apply` — so a registry recovered after `kill -9` is identical (same
//! `PartialEq` value) to the one that was lost, up to the last fully
//! written journal record. The property test in `tests/prop_journal.rs`
//! holds this invariant over arbitrary event interleavings and truncated
//! journal tails.
//!
//! `apply` is deliberately tolerant of the replay shapes crash recovery
//! produces: a `Start` for a job that is already running (the daemon
//! restarted mid-run and re-claimed it), a duplicate event tail replayed on
//! top of a snapshot that already contains it (compaction crashed between
//! the snapshot rename and the journal truncate). Transitions out of a
//! terminal state are ignored, never an error.

use std::collections::BTreeMap;

use crate::job::{key_hex, JobSpec, JobStatus};
use crate::json::{obj, Json};

/// A state transition of one job. What the journal persists.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// The job was admitted: registered as [`JobStatus::Queued`].
    Submit {
        /// Id assigned at admission (dense, starting at 1).
        id: u64,
        /// The validated spec.
        spec: JobSpec,
    },
    /// A worker claimed the job: [`JobStatus::Running`].
    Start {
        /// The claimed job.
        id: u64,
    },
    /// The job reached a terminal engine outcome. `result` is the
    /// protocol-shaped result object (carries a `status` field:
    /// `ok`/`degraded`/`panicked`/`timed_out`/`cert_failed`/`cancelled`).
    Finish {
        /// The finished job.
        id: u64,
        /// The result object served to clients.
        result: Json,
    },
    /// The job was cancelled by request.
    Cancel {
        /// The cancelled job.
        id: u64,
    },
}

impl Event {
    /// The id of the job this event concerns.
    pub fn id(&self) -> u64 {
        match self {
            Event::Submit { id, .. }
            | Event::Start { id }
            | Event::Finish { id, .. }
            | Event::Cancel { id } => *id,
        }
    }

    /// The event as a journal JSON object (without the `seq` envelope —
    /// [`crate::journal::Journal`] adds that).
    pub fn to_json(&self) -> Json {
        match self {
            Event::Submit { id, spec } => obj([
                ("ev", Json::Str("submit".into())),
                ("id", Json::Num(*id as f64)),
                ("spec", spec.to_json()),
            ]),
            Event::Start { id } => {
                obj([("ev", Json::Str("start".into())), ("id", Json::Num(*id as f64))])
            }
            Event::Finish { id, result } => obj([
                ("ev", Json::Str("finish".into())),
                ("id", Json::Num(*id as f64)),
                ("result", result.clone()),
            ]),
            Event::Cancel { id } => {
                obj([("ev", Json::Str("cancel".into())), ("id", Json::Num(*id as f64))])
            }
        }
    }

    /// Parses a journal JSON object back into an event.
    pub fn from_json(v: &Json) -> Result<Event, String> {
        let id = v.get("id").and_then(Json::as_u64).ok_or("event without a numeric id")?;
        match v.get("ev").and_then(Json::as_str) {
            Some("submit") => {
                let spec = v.get("spec").ok_or("submit without a spec")?;
                Ok(Event::Submit { id, spec: JobSpec::from_json(spec)? })
            }
            Some("start") => Ok(Event::Start { id }),
            Some("finish") => Ok(Event::Finish {
                id,
                result: v.get("result").cloned().ok_or("finish without a result")?,
            }),
            Some("cancel") => Ok(Event::Cancel { id }),
            other => Err(format!("unknown event kind {other:?}")),
        }
    }
}

/// One job's full registry record.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// The job id.
    pub id: u64,
    /// The validated spec as admitted.
    pub spec: JobSpec,
    /// The spec's [content key](JobSpec::content_key), computed once when
    /// the record is made: admission hands over the key it computed before
    /// taking the state lock, journal replay and snapshot load compute it
    /// once per record. Every later reader — replies, snapshots, the
    /// daemon's result-reuse index — reads it here instead of regenerating
    /// and hashing the instance. Derived from `spec`, so it is never
    /// persisted.
    pub key: u64,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// The terminal result object, once finished. `None` while queued or
    /// running, and for jobs cancelled before reaching the engine.
    pub result: Option<Json>,
}

impl JobRecord {
    /// The record as the protocol JSON object (`status`/`list` responses,
    /// snapshot entries).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("id".into(), Json::Num(self.id as f64)),
            ("name".into(), Json::Str(self.spec.name.clone())),
            ("status".into(), Json::Str(self.status.name().into())),
            ("key".into(), Json::Str(key_hex(self.key))),
            ("spec".into(), self.spec.to_json()),
        ];
        if let Some(r) = &self.result {
            pairs.push(("result".into(), r.clone()));
        }
        Json::Obj(pairs)
    }

    /// Parses a snapshot entry back into a record.
    pub fn from_json(v: &Json) -> Result<JobRecord, String> {
        let id = v.get("id").and_then(Json::as_u64).ok_or("record without an id")?;
        let spec = JobSpec::from_json(v.get("spec").ok_or("record without a spec")?)?;
        let status_name = v.get("status").and_then(Json::as_str).ok_or("record without a status")?;
        let status = JobStatus::parse(status_name)
            .ok_or_else(|| format!("unknown status {status_name:?}"))?;
        let key = spec.content_key();
        Ok(JobRecord { id, spec, key, status, result: v.get("result").cloned() })
    }
}

/// The in-memory registry: id → record, plus the id allocator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    jobs: BTreeMap<u64, JobRecord>,
    next_id: u64,
}

impl Registry {
    /// An empty registry (ids start at 1).
    pub fn new() -> Self {
        Registry { jobs: BTreeMap::new(), next_id: 1 }
    }

    /// Allocates the next job id (does **not** register anything — the
    /// subsequent [`Event::Submit`] does).
    pub fn allocate_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Looks up one job.
    pub fn get(&self, id: u64) -> Option<&JobRecord> {
        self.jobs.get(&id)
    }

    /// All records in id order.
    pub fn iter(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.values()
    }

    /// Number of registered jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the registry holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Applies one event. Total: invalid transitions (events for unknown
    /// ids, transitions out of a terminal state) are ignored rather than
    /// panicking — the journal is an external input after a crash.
    pub fn apply(&mut self, event: &Event) {
        match event {
            Event::Submit { id, spec } => self.insert(*id, || (spec.clone(), spec.content_key())),
            Event::Start { id } => {
                if let Some(job) = self.jobs.get_mut(id) {
                    if !job.status.is_terminal() {
                        job.status = JobStatus::Running;
                    }
                }
            }
            Event::Finish { id, result } => {
                if let Some(job) = self.jobs.get_mut(id) {
                    if !job.status.is_terminal() {
                        job.status = match result.get("status").and_then(Json::as_str) {
                            Some("ok") => JobStatus::Done,
                            Some("degraded") => JobStatus::Degraded,
                            Some("cancelled") => JobStatus::Cancelled,
                            _ => JobStatus::Failed,
                        };
                        job.result = Some(result.clone());
                    }
                }
            }
            Event::Cancel { id } => {
                if let Some(job) = self.jobs.get_mut(id) {
                    if !job.status.is_terminal() {
                        job.status = JobStatus::Cancelled;
                    }
                }
            }
        }
    }

    /// Registers an admitted job whose content key the caller already
    /// computed: the record `apply(&Event::Submit { id, spec })` makes,
    /// without regenerating and hashing the instance a second time.
    pub fn submit(&mut self, id: u64, spec: JobSpec, key: u64) {
        self.insert(id, || (spec, key));
    }

    /// Registers job `id` as queued with the spec and key `made` returns;
    /// `made` runs only when the id is new.
    fn insert(&mut self, id: u64, made: impl FnOnce() -> (JobSpec, u64)) {
        // Replays may re-submit an id the snapshot already holds; keep the
        // richer (further-progressed) record in that case.
        self.jobs.entry(id).or_insert_with(|| {
            let (spec, key) = made();
            JobRecord { id, spec, key, status: JobStatus::Queued, result: None }
        });
        self.next_id = self.next_id.max(id + 1);
    }

    /// Ids of jobs that must be re-queued after crash recovery: everything
    /// the lost daemon had admitted but not finished. Running jobs go back
    /// to [`JobStatus::Queued`] — their solve died with the process.
    pub fn recover_pending(&mut self) -> Vec<u64> {
        let mut pending = Vec::new();
        for job in self.jobs.values_mut() {
            if !job.status.is_terminal() {
                job.status = JobStatus::Queued;
                pending.push(job.id);
            }
        }
        pending
    }

    /// The registry as a snapshot JSON document (see
    /// [`crate::journal::Journal`] for when snapshots are written).
    pub fn to_snapshot_json(&self, seq: u64) -> Json {
        obj([
            ("schema", Json::Num(1.0)),
            ("seq", Json::Num(seq as f64)),
            ("next_id", Json::Num(self.next_id as f64)),
            ("jobs", Json::Arr(self.jobs.values().map(JobRecord::to_json).collect())),
        ])
    }

    /// Restores a registry from a snapshot document, returning the journal
    /// sequence number the snapshot covers.
    pub fn from_snapshot_json(v: &Json) -> Result<(Registry, u64), String> {
        let seq = v.get("seq").and_then(Json::as_u64).ok_or("snapshot without seq")?;
        let next_id = v.get("next_id").and_then(Json::as_u64).unwrap_or(1);
        let mut jobs = BTreeMap::new();
        for entry in v.get("jobs").and_then(Json::as_arr).unwrap_or(&[]) {
            let record = JobRecord::from_json(entry)?;
            jobs.insert(record.id, record);
        }
        let next_id = next_id.max(jobs.keys().next_back().map_or(0, |id| id + 1)).max(1);
        Ok((Registry { jobs, next_id }, seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pobp_engine::Algo;

    fn submit(reg: &mut Registry, prio: i64) -> u64 {
        let id = reg.allocate_id();
        let mut spec = JobSpec::cell(Algo::Reduction, 8, 1, id);
        spec.priority = prio;
        reg.apply(&Event::Submit { id, spec });
        id
    }

    fn ok_result() -> Json {
        obj([("status", Json::Str("ok".into())), ("value", Json::Num(4.0))])
    }

    #[test]
    fn lifecycle_transitions() {
        let mut reg = Registry::new();
        let id = submit(&mut reg, 0);
        assert_eq!(reg.get(id).unwrap().status, JobStatus::Queued);
        reg.apply(&Event::Start { id });
        assert_eq!(reg.get(id).unwrap().status, JobStatus::Running);
        reg.apply(&Event::Finish { id, result: ok_result() });
        let job = reg.get(id).unwrap();
        assert_eq!(job.status, JobStatus::Done);
        assert!(job.result.is_some());
        // Terminal states are sticky: late cancels and restarts are no-ops.
        reg.apply(&Event::Cancel { id });
        reg.apply(&Event::Start { id });
        assert_eq!(reg.get(id).unwrap().status, JobStatus::Done);
    }

    #[test]
    fn cancel_of_queued_job_sticks() {
        let mut reg = Registry::new();
        let id = submit(&mut reg, 0);
        reg.apply(&Event::Cancel { id });
        assert_eq!(reg.get(id).unwrap().status, JobStatus::Cancelled);
        reg.apply(&Event::Start { id });
        assert_eq!(reg.get(id).unwrap().status, JobStatus::Cancelled);
    }

    #[test]
    fn events_for_unknown_ids_are_ignored() {
        let mut reg = Registry::new();
        reg.apply(&Event::Start { id: 42 });
        reg.apply(&Event::Finish { id: 42, result: ok_result() });
        reg.apply(&Event::Cancel { id: 42 });
        assert!(reg.is_empty());
    }

    #[test]
    fn recover_pending_requeues_running_and_queued() {
        let mut reg = Registry::new();
        let a = submit(&mut reg, 0);
        let b = submit(&mut reg, 0);
        let c = submit(&mut reg, 0);
        reg.apply(&Event::Start { id: b });
        reg.apply(&Event::Finish { id: c, result: ok_result() });
        let pending = reg.recover_pending();
        assert_eq!(pending, vec![a, b]);
        assert_eq!(reg.get(a).unwrap().status, JobStatus::Queued);
        assert_eq!(reg.get(b).unwrap().status, JobStatus::Queued);
        assert_eq!(reg.get(c).unwrap().status, JobStatus::Done);
    }

    #[test]
    fn snapshot_roundtrips_and_preserves_id_allocator() {
        let mut reg = Registry::new();
        let a = submit(&mut reg, 3);
        submit(&mut reg, -1);
        reg.apply(&Event::Finish { id: a, result: ok_result() });
        let snap = reg.to_snapshot_json(17);
        let (back, seq) = Registry::from_snapshot_json(&snap).unwrap();
        assert_eq!(seq, 17);
        assert_eq!(back, reg);
        let mut back = back;
        assert_eq!(back.allocate_id(), 3);
    }

    #[test]
    fn event_json_roundtrips() {
        let mut spec = JobSpec::cell(Algo::OnlineDjn, 9, 2, 4);
        spec.name = "zeta".into();
        let events = [
            Event::Submit { id: 5, spec },
            Event::Start { id: 5 },
            Event::Finish { id: 5, result: ok_result() },
            Event::Cancel { id: 5 },
        ];
        for ev in &events {
            let back = Event::from_json(&ev.to_json()).unwrap();
            assert_eq!(&back, ev);
        }
    }
}
