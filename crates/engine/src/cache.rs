//! Content-addressed in-memory reference caching.
//!
//! Grid sweeps revisit the same instance many times — every `k` of a
//! `(n, seed) × k` grid shares the instance, and the expensive side of most
//! tasks is the unbounded reference (`OPT_∞` exact branch-and-bound, or the
//! greedy EDF baseline), which does not depend on `k` at all. The cache
//! therefore maps `(instance_hash, exact_ref)` — a content hash of the
//! instance, not task identity — to the shared unbounded reference
//! solution, so a sweep over `k ∈ {1, 2, 4, 8}` pays for `OPT_∞` once.
//!
//! Whole outputs are not cached: every task makes its own attempt, so its
//! report and its logical trace are pure functions of the task. A sweep
//! grid holds distinct cells, and the `pobp serve` daemon answers a repeat
//! of a finished job from its own content-key index, without an engine.
//!
//! Caching never changes *what* a task returns — solvers are pure, so a
//! cached reference is identical to a recomputed one — only what it costs.
//! Cache-hit accounting is reported in
//! [`EngineStats`](crate::pool::EngineStats) and the `engine.cache.*`
//! counters, never in per-task output (see the determinism contract in
//! `docs/engine.md`).
//!
//! The reduction's `k`-independent prefix (`ReductionPlan`: laminarize +
//! schedule forest) is deliberately *not* cached here. The cache is never
//! evicted, so a plan stored beside each reference would live as long as
//! the engine; a prototype that did so, while the `pobp serve` daemon still
//! shared one cache across its jobs, grew serve-mixed peak RSS from 31.6
//! to about 36 MiB. Instead each worker
//! keeps the plan of the last reference it reduced in its row memo
//! (`RowMemo` in `solve.rs`), beside the last instance hash and the last
//! certified reference: at most one of each per worker, dropped when the
//! batch ends.
//!
//! Under an armed fault plan the `corrupt-ref` site perturbs a reference
//! just before the task wrapper puts it here, decided by the entry key:
//! every consumer of a poisoned entry (including the worker that computed
//! it, which adopts the canonical entry returned by
//! [`ResultCache::put_ref`]) observes the same corrupt bytes, keeping chaos
//! runs deterministic.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use pobp_core::{trace_event, JobSet, Schedule};

use crate::task::SolveTask;

/// FNV-1a content hash of a job set: every job's release, deadline, length,
/// and value bits, in id order. Two `JobSet`s hash equal iff they contain
/// the same jobs in the same order.
pub fn instance_hash(jobs: &JobSet) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(jobs.len() as u64);
    for (_, j) in jobs.iter() {
        mix(j.release as u64);
        mix(j.deadline as u64);
        mix(j.length as u64);
        mix(j.value.to_bits());
    }
    h
}

/// `splitmix64` finalizer — the standard 64-bit avalanche mix. Shared by
/// the chaos layer's injection decisions and the sweep planner's chunk
/// keys, so both derive from one pinned bit stream.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The per-task content key: the instance content hash mixed with the
/// task's solving parameters. Content-addressed like the cache, so
/// duplicate tasks draw identical keys (chaos needs that for report
/// determinism) while distinct grid cells draw independently. The sweep
/// planner folds these keys into its chunk digests, which is what makes a
/// `--resume` able to detect a changed grid spec.
pub fn task_key(task: &SolveTask) -> u64 {
    task_key_with(instance_hash(&task.instance), task)
}

/// [`task_key`] from an already-computed `instance_hash(&task.instance)`,
/// so a `k` row, whose tasks share one instance, hashes it once.
pub fn task_key_with(inst_hash: u64, task: &SolveTask) -> u64 {
    let mut h = inst_hash;
    h ^= splitmix64(task.k as u64);
    h = h.rotate_left(17) ^ splitmix64(task.machines as u64);
    h = h.rotate_left(17) ^ splitmix64(task.algo.name().len() as u64 ^ (task.algo as u64) << 8);
    h.rotate_left(17) ^ splitmix64(task.exact_ref as u64)
}

/// The shared unbounded reference of one instance: the `∞`-preemptive
/// schedule (exact or greedy) and its value.
#[derive(Clone, Debug)]
pub struct RefSolution {
    /// The reference schedule.
    pub schedule: Schedule,
    /// Its value. For the exact branch this is `OPT_∞`; for the greedy
    /// branch it is the baseline's value (a lower bound on `OPT_∞`).
    pub value: f64,
}

/// The reference cache. Cheap to share: clone the [`Arc`] handle.
#[derive(Debug, Default)]
pub struct ResultCache {
    refs: Mutex<HashMap<(u64, bool), Arc<RefSolution>>>,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Looks up the reference layer.
    pub fn get_ref(&self, inst: u64, exact: bool) -> Option<Arc<RefSolution>> {
        self.refs.lock().unwrap().get(&(inst, exact)).cloned()
    }

    /// Stores into the reference layer, returning the canonical entry.
    ///
    /// Under a race two workers may both compute the reference; first write
    /// wins and both use the winner, so every task observing the cache sees
    /// one consistent reference solution. (Solvers are deterministic, so
    /// the racers computed identical solutions anyway.)
    pub fn put_ref(&self, inst: u64, exact: bool, sol: RefSolution) -> Arc<RefSolution> {
        // Timing-class: under a race several workers store (the winner's
        // entry survives), so store counts vary across thread counts.
        trace_event!(timing "cache.ref_store");
        self.refs
            .lock()
            .unwrap()
            .entry((inst, exact))
            .or_insert_with(|| Arc::new(sol))
            .clone()
    }

    /// Number of cached references (for reporting).
    pub fn len(&self) -> usize {
        self.refs.lock().unwrap().len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pobp_core::Job;

    fn inst(v: f64) -> JobSet {
        vec![Job::new(0, 10, 3, v), Job::new(1, 8, 2, 1.0)].into_iter().collect()
    }

    #[test]
    fn hash_is_content_addressed() {
        assert_eq!(instance_hash(&inst(2.0)), instance_hash(&inst(2.0)));
        assert_ne!(instance_hash(&inst(2.0)), instance_hash(&inst(3.0)));
        // Order matters: the hash addresses the JobSet, not the multiset.
        let a: JobSet = vec![Job::new(0, 10, 3, 2.0), Job::new(1, 8, 2, 1.0)]
            .into_iter()
            .collect();
        let b: JobSet = vec![Job::new(1, 8, 2, 1.0), Job::new(0, 10, 3, 2.0)]
            .into_iter()
            .collect();
        assert_ne!(instance_hash(&a), instance_hash(&b));
    }

    #[test]
    fn ref_layer_first_write_wins() {
        let c = ResultCache::new();
        assert!(c.get_ref(7, true).is_none());
        let first = c.put_ref(7, true, RefSolution { schedule: Schedule::new(), value: 1.0 });
        let second = c.put_ref(7, true, RefSolution { schedule: Schedule::new(), value: 2.0 });
        assert_eq!(first.value, 1.0);
        assert_eq!(second.value, 1.0);
        assert_eq!(c.get_ref(7, true).unwrap().value, 1.0);
        assert!(c.get_ref(7, false).is_none());
        assert_eq!(c.len(), 1);
    }
}
