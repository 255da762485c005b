//! Exact (exponential) reference oracles for small instances.
//!
//! The paper treats `OPT_∞` as given (Lawler's pseudo-polynomial DP [21])
//! and never needs `OPT_k` explicitly — only bounds on it. For the
//! experiments we need concrete numbers, so this module provides:
//!
//! * [`opt_unbounded`] — exact `OPT_∞` via branch-and-bound over job
//!   subsets, using the classical fact that a subset is `∞`-preemptively
//!   feasible iff EDF completes it;
//! * [`opt_nonpreemptive`] — exact `OPT_0` via the Held-Karp-style subset
//!   DP on earliest completion times;
//! * [`opt_k_bounded_small`] — exact `OPT_k` for *tiny* integer instances
//!   via a memoized tick-by-tick search.
//!
//! All three are deliberately exponential and assert small inputs; they are
//! test- and experiment-grade oracles, not production algorithms (see
//! `DESIGN.md` §4 — this is the documented substitution for Lawler's
//! unpublished implementation).

use crate::edf::{edf_schedule, feasible_by_release, release_slot};
use pobp_core::{Interval, JobId, JobSet, Schedule, SegmentSet, Time, Value};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// An exact optimum: value, chosen subset, and a witness schedule.
#[derive(Clone, Debug)]
pub struct ExactOpt {
    /// Optimal total value.
    pub value: Value,
    /// The jobs achieving it.
    pub subset: Vec<JobId>,
    /// A feasible witness schedule of `subset` (machine 0).
    pub schedule: Schedule,
}

/// Maximum candidate count accepted by [`opt_unbounded`].
pub const OPT_UNBOUNDED_LIMIT: usize = 24;

/// Exact `OPT_∞` on one machine by branch-and-bound over subsets.
///
/// Sound and complete because `∞`-preemptive feasibility is downward closed
/// and exactly decided by EDF. Jobs are branched in descending value order;
/// a branch is cut when even taking every remaining job cannot beat the
/// incumbent. Each node's feasibility check is an EDF probe that builds no
/// schedule; EDF builds the witness once, for the optimal subset.
///
/// ```
/// use pobp_core::{Job, JobId, JobSet};
/// use pobp_sched::opt_unbounded;
///
/// // Two of these three length-2 jobs fit in the shared window of 4.
/// let jobs: JobSet = vec![
///     Job::new(0, 4, 2, 5.0),
///     Job::new(0, 4, 2, 3.0),
///     Job::new(0, 4, 2, 4.0),
/// ].into_iter().collect();
/// let ids: Vec<JobId> = jobs.ids().collect();
/// let opt = opt_unbounded(&jobs, &ids);
/// assert_eq!(opt.value, 9.0); // the 5 + 4 pair
/// ```
///
/// # Panics
/// Panics when `ids.len() > OPT_UNBOUNDED_LIMIT`.
pub fn opt_unbounded(jobs: &JobSet, ids: &[JobId]) -> ExactOpt {
    assert!(
        ids.len() <= OPT_UNBOUNDED_LIMIT,
        "opt_unbounded limited to {OPT_UNBOUNDED_LIMIT} jobs, got {}",
        ids.len()
    );
    let mut order = ids.to_vec();
    order.sort_by(|&a, &b| {
        jobs.job(b)
            .value
            .partial_cmp(&jobs.job(a).value)
            .expect("finite values")
            .then(a.cmp(&b))
    });
    // Suffix sums of values for the upper bound.
    let mut suffix: Vec<Value> = vec![0.0; order.len() + 1];
    for i in (0..order.len()).rev() {
        suffix[i] = suffix[i + 1] + jobs.job(order[i]).value;
    }

    struct Search<'a> {
        jobs: &'a JobSet,
        order: &'a [JobId],
        suffix: &'a [Value],
        best_value: Value,
        /// Best subset as a bitmask over `order` indices (n ≤ 24): recording
        /// an improvement is a register copy, not a `Vec` clone.
        best_mask: u32,
        /// The included jobs, sorted by `(release, id)` as the probe wants.
        chosen: Vec<(Time, JobId)>,
        pending: BinaryHeap<Reverse<(Time, Time)>>,
    }
    impl Search<'_> {
        fn dfs(&mut self, i: usize, value: Value, mask: u32) {
            if value > self.best_value {
                self.best_value = value;
                self.best_mask = mask;
            }
            if i == self.order.len() || value + self.suffix[i] <= self.best_value {
                return;
            }
            // Include order[i] if still feasible.
            let j = self.order[i];
            let key = (self.jobs.job(j).release, j);
            let at = release_slot(&self.chosen, key);
            self.chosen.insert(at, key);
            if feasible_by_release(self.jobs, &self.chosen, &mut self.pending) {
                self.dfs(i + 1, value + self.jobs.job(j).value, mask | (1 << i));
            }
            self.chosen.remove(at);
            // Exclude.
            self.dfs(i + 1, value, mask);
        }
    }
    let mut search = Search {
        jobs,
        order: &order,
        suffix: &suffix,
        best_value: 0.0,
        best_mask: 0,
        chosen: Vec::new(),
        pending: BinaryHeap::new(),
    };
    search.dfs(0, 0.0, 0);
    let mut subset: Vec<JobId> = order
        .iter()
        .enumerate()
        .filter(|(i, _)| search.best_mask & (1 << i) != 0)
        .map(|(_, &j)| j)
        .collect();
    subset.sort_unstable();
    let schedule = edf_schedule(jobs, &subset, None).schedule;
    debug_assert!(schedule.verify(jobs, None).is_ok());
    ExactOpt { value: search.best_value, subset, schedule }
}

/// Maximum candidate count accepted by [`opt_nonpreemptive`].
pub const OPT_NONPREEMPTIVE_LIMIT: usize = 20;

/// Exact `OPT_0` (non-preemptive, en-bloc) on one machine via the subset DP
/// on earliest completion times: `f[S] = min_{j ∈ S, f[S\{j}] defined}`
/// `max(f[S\{j}], r_j) + p_j`, kept only when `≤ d_j`. Left-shifting never
/// hurts feasibility with release times, so the DP is exact.
///
/// # Panics
/// Panics when `ids.len() > OPT_NONPREEMPTIVE_LIMIT`.
pub fn opt_nonpreemptive(jobs: &JobSet, ids: &[JobId]) -> ExactOpt {
    let n = ids.len();
    assert!(
        n <= OPT_NONPREEMPTIVE_LIMIT,
        "opt_nonpreemptive limited to {OPT_NONPREEMPTIVE_LIMIT} jobs, got {n}"
    );
    // f[mask] = earliest completion of scheduling exactly `mask`; None = infeasible.
    let mut f: Vec<Option<Time>> = vec![None; 1 << n];
    // last[mask] = which job goes last in the optimal order (for recovery).
    let mut last: Vec<usize> = vec![usize::MAX; 1 << n];
    f[0] = Some(Time::MIN);
    for mask in 1usize..(1 << n) {
        for (bit, &j) in ids.iter().enumerate() {
            if mask & (1 << bit) == 0 {
                continue;
            }
            let Some(prev) = f[mask ^ (1 << bit)] else { continue };
            let job = jobs.job(j);
            let start = prev.max(job.release);
            let end = start + job.length;
            if end > job.deadline {
                continue;
            }
            if f[mask].is_none_or(|cur| end < cur) {
                f[mask] = Some(end);
                last[mask] = bit;
            }
        }
    }
    // Best-value feasible mask.
    let mut best_mask = 0usize;
    let mut best_value = 0.0f64;
    for (mask, completion) in f.iter().enumerate() {
        if completion.is_none() {
            continue;
        }
        let value: Value = ids
            .iter()
            .enumerate()
            .filter(|(bit, _)| mask & (1 << bit) != 0)
            .map(|(_, &j)| jobs.job(j).value)
            .sum();
        if value > best_value {
            best_value = value;
            best_mask = mask;
        }
    }
    // Recover the order and build the schedule.
    let mut sequence = Vec::new();
    let mut mask = best_mask;
    while mask != 0 {
        let bit = last[mask];
        sequence.push(ids[bit]);
        mask ^= 1 << bit;
    }
    sequence.reverse();
    let mut schedule = Schedule::new();
    let mut t = Time::MIN;
    for &j in &sequence {
        let job = jobs.job(j);
        let start = t.max(job.release);
        schedule.assign_single(j, SegmentSet::singleton(Interval::with_len(start, job.length)));
        t = start + job.length;
    }
    debug_assert!(schedule.verify(jobs, Some(0)).is_ok());
    let mut subset = sequence;
    subset.sort_unstable();
    ExactOpt { value: best_value, subset, schedule }
}

/// Limits for [`opt_k_bounded_small`].
pub const OPT_K_BOUNDED_MAX_JOBS: usize = 6;
/// Maximum horizon length for [`opt_k_bounded_small`].
pub const OPT_K_BOUNDED_MAX_HORIZON: Time = 48;

/// Whether `ids` of `jobs` fits inside [`opt_k_bounded_small`]'s limits
/// (`n ≤ 6`, horizon ≤ 48, lengths < 256) — i.e. whether the exact `OPT_k`
/// oracle is available for this instance. The online competitive-ratio lab
/// (`pobp online`, E13) uses this to upgrade its certified reduction-based
/// denominator to the exact one wherever the state space allows.
pub fn opt_k_bounded_fits(jobs: &JobSet, ids: &[JobId]) -> bool {
    if ids.len() > OPT_K_BOUNDED_MAX_JOBS {
        return false;
    }
    if ids.is_empty() {
        return true;
    }
    let lo = ids.iter().map(|&j| jobs.job(j).release).min().unwrap();
    let hi = ids.iter().map(|&j| jobs.job(j).deadline).max().unwrap();
    hi - lo <= OPT_K_BOUNDED_MAX_HORIZON && ids.iter().all(|&j| jobs.job(j).length < 256)
}

/// Exact `OPT_k` for *tiny* integer instances via memoized tick-by-tick
/// search: at every tick run one released, unfinished job (starting a new
/// segment costs one of its `k + 1` slots) or idle. Exponential state space
/// — strictly a test oracle.
///
/// Returns only the optimal value (no witness schedule).
///
/// # Panics
/// Panics when the instance exceeds the module limits.
pub fn opt_k_bounded_small(jobs: &JobSet, ids: &[JobId], k: u32) -> Value {
    let n = ids.len();
    assert!(n <= OPT_K_BOUNDED_MAX_JOBS, "opt_k_bounded_small: too many jobs ({n})");
    if n == 0 {
        return 0.0;
    }
    let lo = ids.iter().map(|&j| jobs.job(j).release).min().unwrap();
    let hi = ids.iter().map(|&j| jobs.job(j).deadline).max().unwrap();
    let horizon = hi - lo;
    assert!(
        horizon <= OPT_K_BOUNDED_MAX_HORIZON,
        "opt_k_bounded_small: horizon {horizon} too long"
    );
    let segs_cap = (k as usize + 1).min(31);
    let lengths: Vec<Time> = ids.iter().map(|&j| jobs.job(j).length).collect();
    assert!(lengths.iter().all(|&p| p < 256), "lengths must fit the state encoding");

    // State: (tick, remaining ticks per job, segments used per job, running
    // job), packed into one u128 — the module limits (n ≤ 6, lengths < 256,
    // segment counts ≤ 31, horizon ≤ 48) guarantee every field fits its
    // byte, so the memo key is a register copy instead of two `Vec` clones.
    fn encode(t: Time, rem: &[u8], segs: &[u8], running: u8, lo: Time) -> u128 {
        let mut key = (t - lo) as u128;
        for (i, &r) in rem.iter().enumerate() {
            key |= (r as u128) << (8 + 8 * i);
        }
        for (i, &s) in segs.iter().enumerate() {
            key |= (s as u128) << (56 + 8 * i);
        }
        key | ((running as u128) << 104)
    }
    fn dfs(
        t: Time,
        rem: &mut Vec<u8>,
        segs: &mut Vec<u8>,
        running: u8,
        ctx: &Ctx<'_>,
        memo: &mut HashMap<u128, Value>,
    ) -> Value {
        if t >= ctx.hi || rem.iter().all(|&r| r == 0) {
            return 0.0;
        }
        let key = encode(t, rem, segs, running, ctx.lo);
        if let Some(&v) = memo.get(&key) {
            return v;
        }
        // Option 1: idle this tick.
        let mut best = dfs(t + 1, rem, segs, u8::MAX, ctx, memo);
        // Option 2: run some job.
        for (i, &j) in ctx.ids.iter().enumerate() {
            if rem[i] == 0 {
                continue;
            }
            let job = ctx.jobs.job(j);
            if t < job.release || t >= job.deadline {
                continue;
            }
            let starts_segment = running != i as u8;
            if starts_segment && segs[i] as usize >= ctx.segs_cap {
                continue;
            }
            rem[i] -= 1;
            if starts_segment {
                segs[i] += 1;
            }
            let gained = if rem[i] == 0 { job.value } else { 0.0 };
            let v = gained + dfs(t + 1, rem, segs, i as u8, ctx, memo);
            if v > best {
                best = v;
            }
            if starts_segment {
                segs[i] -= 1;
            }
            rem[i] += 1;
        }
        memo.insert(key, best);
        best
    }
    struct Ctx<'a> {
        jobs: &'a JobSet,
        ids: &'a [JobId],
        lo: Time,
        hi: Time,
        segs_cap: usize,
    }
    let ctx = Ctx { jobs, ids, lo, hi, segs_cap };
    let mut rem: Vec<u8> = lengths.iter().map(|&p| p as u8).collect();
    let mut segs = vec![0u8; n];
    let mut memo = HashMap::new();
    dfs(lo, &mut rem, &mut segs, u8::MAX, &ctx, &mut memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pobp_core::Job;

    fn ids_of(n: usize) -> Vec<JobId> {
        (0..n).map(JobId).collect()
    }

    #[test]
    fn opt_unbounded_takes_everything_feasible() {
        let jobs: JobSet = vec![
            Job::new(0, 10, 3, 1.0),
            Job::new(0, 10, 3, 2.0),
            Job::new(0, 10, 3, 3.0),
        ]
        .into_iter()
        .collect();
        let opt = opt_unbounded(&jobs, &ids_of(3));
        assert_eq!(opt.value, 6.0);
        assert_eq!(opt.subset, ids_of(3));
        opt.schedule.verify(&jobs, None).unwrap();
    }

    #[test]
    fn opt_unbounded_picks_best_conflicting_subset() {
        // Three jobs in a window of 4: any two of length 2 fit; values favour
        // jobs 1 and 2.
        let jobs: JobSet = vec![
            Job::new(0, 4, 2, 5.0),
            Job::new(0, 4, 2, 3.0),
            Job::new(0, 4, 2, 4.0),
        ]
        .into_iter()
        .collect();
        let opt = opt_unbounded(&jobs, &ids_of(3));
        assert_eq!(opt.value, 9.0);
        assert_eq!(opt.subset, vec![JobId(0), JobId(2)]);
    }

    #[test]
    fn opt_unbounded_prefers_one_heavy_over_many_light() {
        let jobs: JobSet = vec![
            Job::new(0, 4, 4, 10.0),
            Job::new(0, 4, 2, 3.0),
            Job::new(0, 4, 2, 3.0),
        ]
        .into_iter()
        .collect();
        let opt = opt_unbounded(&jobs, &ids_of(3));
        assert_eq!(opt.value, 10.0);
        assert_eq!(opt.subset, vec![JobId(0)]);
    }

    #[test]
    fn opt_unbounded_empty() {
        let opt = opt_unbounded(&JobSet::new(), &[]);
        assert_eq!(opt.value, 0.0);
        assert!(opt.subset.is_empty());
    }

    #[test]
    fn opt_nonpreemptive_matches_hand_computation() {
        // Figure-2 flavoured: nested windows force preemption, so OPT_0 < OPT_∞.
        let jobs: JobSet = vec![
            Job::new(0, 7, 4, 1.0), // outer: any placement covers [3,4)
            Job::new(2, 5, 3, 1.0), // inner: covers [2,5) ⊇ [3,4)
        ]
        .into_iter()
        .collect();
        let np = opt_nonpreemptive(&jobs, &ids_of(2));
        assert_eq!(np.value, 1.0);
        let inf = opt_unbounded(&jobs, &ids_of(2));
        assert_eq!(inf.value, 2.0);
    }

    #[test]
    fn opt_nonpreemptive_sequences_with_release_times() {
        let jobs: JobSet = vec![
            Job::new(4, 10, 3, 1.0),
            Job::new(0, 5, 3, 1.0),
            Job::new(0, 20, 5, 1.0),
        ]
        .into_iter()
        .collect();
        let np = opt_nonpreemptive(&jobs, &ids_of(3));
        assert_eq!(np.value, 3.0);
        np.schedule.verify(&jobs, Some(0)).unwrap();
    }

    #[test]
    fn opt_nonpreemptive_value_choice() {
        // Window fits one of two jobs; take the valuable one.
        let jobs: JobSet = vec![Job::new(0, 3, 3, 1.0), Job::new(0, 3, 3, 7.0)]
            .into_iter()
            .collect();
        let np = opt_nonpreemptive(&jobs, &ids_of(2));
        assert_eq!(np.value, 7.0);
        assert_eq!(np.subset, vec![JobId(1)]);
    }

    #[test]
    fn sandwich_opt0_le_optk_le_optinf() {
        let jobs: JobSet = vec![
            Job::new(0, 7, 4, 2.0),
            Job::new(2, 5, 3, 3.0),
            Job::new(5, 12, 4, 1.0),
        ]
        .into_iter()
        .collect();
        let v0 = opt_nonpreemptive(&jobs, &ids_of(3)).value;
        let vinf = opt_unbounded(&jobs, &ids_of(3)).value;
        let mut prev = v0;
        for k in 0..3u32 {
            let vk = opt_k_bounded_small(&jobs, &ids_of(3), k);
            assert!(vk >= prev - 1e-9, "OPT_k not monotone at k={k}");
            assert!(vk <= vinf + 1e-9);
            prev = vk;
        }
        // k = 0 tick search equals the en-bloc DP.
        assert!((opt_k_bounded_small(&jobs, &ids_of(3), 0) - v0).abs() < 1e-9);
    }

    #[test]
    fn one_preemption_unlocks_nested_pair() {
        let jobs: JobSet = vec![
            Job::new(0, 7, 4, 1.0),
            Job::new(2, 5, 3, 1.0),
        ]
        .into_iter()
        .collect();
        assert_eq!(opt_k_bounded_small(&jobs, &ids_of(2), 0), 1.0);
        assert_eq!(opt_k_bounded_small(&jobs, &ids_of(2), 1), 2.0);
    }

    #[test]
    #[should_panic(expected = "too many jobs")]
    fn k_bounded_oracle_rejects_large_n() {
        let jobs: JobSet = (0..7).map(|_| Job::new(0, 4, 1, 1.0)).collect();
        let _ = opt_k_bounded_small(&jobs, &ids_of(7), 1);
    }
}
