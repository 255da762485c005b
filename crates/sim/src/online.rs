//! The single-machine **online executor**: jobs are revealed at their
//! release times, the scheduler commits irrevocably, every job carries a
//! per-job preemption budget `k`, and loading a job costs `δ` ticks of
//! machine time.
//!
//! One decision loop serves two entry points:
//!
//! * [`run_online`] — the **online arrival mode** at `δ = 0`, the setting of
//!   the paper's online relatives (Dürr–Jeż–Nguyen's bounded-length
//!   throughput scheduling, Baptiste–Chrobak–Dürr–Jawor–Vakhania's
//!   equal-length jobs) restricted to the paper's `k`-bounded machine model.
//!   With no switch cost it isolates the *information* price of online
//!   arrival, so its output is directly comparable to the offline `OPT_k`
//!   oracle (`pobp online`, experiment E13, `docs/online.md`).
//! * [`execute_online`] — the paper's *motivation* (§1.2) made executable:
//!   "preemption comes with a certain price tag (e.g., the sequence of
//!   operations required for a context switch)". Every change of the job
//!   on the machine costs [`SimConfig::switch_cost`] ticks under an EDF
//!   [`Policy`] (`pobp sim`, experiment E12).
//!
//! The loop's rules:
//!
//! * **Revelation.** A job `⟨r, d, p, v⟩` is unknown before time `r`. At
//!   every decision point the algorithm sees only released, incomplete,
//!   non-aborted jobs.
//! * **Irrevocability.** Machine time is never reclaimed: work performed on
//!   a job that is later aborted is wasted (value is all-or-nothing at
//!   completion, the work stays in the [`ExecTrace`]), and a preemption,
//!   once taken, is spent forever. A switch, once begun, is not revoked by
//!   a release during its `δ` ticks.
//! * **Budget.** A job may be preempted at most `k` times — it runs in at
//!   most `k + 1` segments. The executor *enforces* this online: a running
//!   job whose budget is exhausted cannot be preempted, whatever the
//!   algorithm would prefer (counted by `online.budget_blocks` /
//!   `online.djn.threshold_rejects`).
//!
//! The running job is always the one loaded on the machine and a waiting
//! job never is, so a switch is paid exactly when the chosen job is not the
//! running one, and a waiting job is hopeless once `t + δ + remaining`
//! passes its deadline. The executor is deterministic — a pure function of
//! `(jobs, subset, config)` — so engine-driven online sweeps inherit the
//! byte-identical `--threads` contract of `docs/engine.md`.

use crate::trace::{ExecEvent, ExecTrace};
use pobp_core::{obs_count, trace_event, Interval, JobId, JobSet, Schedule, SegmentSet, Time};
use std::cmp::Reverse;

/// The online algorithm an executor run follows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OnlineAlg {
    /// Commit to the most valuable feasible job and never preempt it.
    /// The non-preemptive baseline (uses no budget at all).
    Greedy,
    /// Earliest-deadline-first among feasible jobs, preempting only while
    /// the running job still has budget.
    EdfBudget,
    /// The DJN-style doubling rule: preempt the running job `c` for a
    /// waiting job `j` only when `v(j) ≥ 2·v(c)` *and* `c` has budget;
    /// at completion/abort points, start the most valuable feasible job.
    Djn,
}

/// Every algorithm, in the canonical sweep order.
pub const ONLINE_ALGS: [OnlineAlg; 3] = [OnlineAlg::Djn, OnlineAlg::Greedy, OnlineAlg::EdfBudget];

impl OnlineAlg {
    /// The stable lowercase name used by CLIs and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            OnlineAlg::Greedy => "greedy",
            OnlineAlg::EdfBudget => "edf",
            OnlineAlg::Djn => "djn",
        }
    }

    /// Parses [`OnlineAlg::name`] back into a variant.
    pub fn parse(s: &str) -> Option<OnlineAlg> {
        ONLINE_ALGS.iter().copied().find(|a| a.name() == s)
    }
}

impl std::fmt::Display for OnlineAlg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of one online-arrival run.
#[derive(Clone, Copy, Debug)]
pub struct OnlineConfig {
    /// The algorithm.
    pub alg: OnlineAlg,
    /// Per-job preemption budget `k` (a job runs in ≤ `k + 1` segments).
    pub k: u32,
}

/// The switch-cost simulator's policy: EDF under a preemption budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Preempt whenever a strictly higher-priority job is ready.
    Edf,
    /// EDF, but never preempt a job that has exhausted its `k` preemptions.
    EdfBudget(u32),
    /// Never preempt (`k = 0` online).
    NonPreemptive,
}

impl Policy {
    /// The per-job preemption budget the policy enforces.
    fn budget(self) -> u32 {
        match self {
            Policy::Edf => u32::MAX,
            Policy::EdfBudget(k) => k,
            Policy::NonPreemptive => 0,
        }
    }
}

/// Configuration of one switch-cost simulation.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// The scheduling policy.
    pub policy: Policy,
    /// Machine ticks consumed whenever a job is (re)loaded onto the machine
    /// while a different job (or nothing) was loaded.
    pub switch_cost: Time,
}

/// What an execution produced.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// The full trace: every start, preemption, resume, completion and
    /// abort, the work intervals (wasted work of aborted jobs included) and
    /// the switch overhead.
    pub trace: ExecTrace,
    /// The feasible `k`-bounded schedule of the **completed** jobs.
    pub schedule: Schedule,
    /// Jobs that were revealed but never completed (aborted as hopeless),
    /// sorted by id.
    pub dropped: Vec<JobId>,
}

impl SimOutcome {
    /// Completed value — the online algorithm's objective.
    pub fn value(&self, jobs: &JobSet) -> f64 {
        self.schedule.value(jobs)
    }
}

/// The reference competitive-ratio bound this lab measures against:
/// `(1 + √P)²`, where `P = p_max/p_min` is the instance's length ratio.
///
/// This is the classical deterministic bound shape for bounded-length
/// online throughput maximization (the literature DJN build on; their
/// refinement tightens the constant for small `P`). E13 asserts every
/// measured empirical ratio `OPT_k-oracle / ALG` stays under this curve —
/// see `docs/online.md` for exactly what is and is not claimed.
pub fn djn_ratio_bound(length_ratio: f64) -> f64 {
    let p = length_ratio.max(1.0);
    let s = 1.0 + p.sqrt();
    s * s
}

/// Runs the online-arrival mode on `subset`: `config.alg` under budget
/// `config.k`, with no switch cost.
///
/// The executor advances decision point by decision point (releases,
/// completions, aborts); between decision points the chosen job runs
/// uninterrupted. At each point it reveals newly released jobs, aborts
/// *hopeless* ready jobs (`t + remaining > deadline` — they can no longer
/// complete even running alone), and asks the algorithm which feasible job
/// to run. The budget rule is enforced here, not trusted to the algorithm.
///
/// ```
/// use pobp_core::{Job, JobId, JobSet};
/// use pobp_sim::{run_online, OnlineAlg, OnlineConfig};
///
/// let jobs: JobSet = vec![
///     Job::new(0, 40, 10, 1.0),
///     Job::new(2, 9, 4, 5.0),   // worth 5× — DJN preempts for it
/// ].into_iter().collect();
/// let ids = [JobId(0), JobId(1)];
/// let out = run_online(&jobs, &ids, OnlineConfig { alg: OnlineAlg::Djn, k: 1 });
/// assert_eq!(out.trace.completed().len(), 2);
/// assert_eq!(out.trace.preemptions(), 1);
/// out.schedule.verify(&jobs, Some(1)).unwrap();
/// ```
pub fn run_online(jobs: &JobSet, subset: &[JobId], config: OnlineConfig) -> SimOutcome {
    run(jobs, subset, config.alg, config.k, 0)
}

/// Simulates `subset` on one machine under `config.policy`, paying
/// `config.switch_cost` ticks whenever the machine loads a job other than
/// the one running (resuming after idle included).
///
/// ```
/// use pobp_core::{Job, JobId, JobSet};
/// use pobp_sim::{execute_online, Policy, SimConfig};
///
/// let jobs: JobSet = vec![
///     Job::new(0, 40, 10, 1.0),
///     Job::new(2, 9, 4, 1.0),   // preempts the long job under EDF
/// ].into_iter().collect();
/// let ids = [JobId(0), JobId(1)];
///
/// // Each of the three loads (long, short, long again) costs 1 tick.
/// let out = execute_online(&jobs, &ids, SimConfig { policy: Policy::Edf, switch_cost: 1 });
/// assert_eq!(out.schedule.len(), 2);
/// assert_eq!(out.trace.switches(), 3);
/// assert_eq!(out.trace.overhead_time(), 3);
/// ```
pub fn execute_online(jobs: &JobSet, subset: &[JobId], config: SimConfig) -> SimOutcome {
    assert!(config.switch_cost >= 0, "negative switch cost");
    run(jobs, subset, OnlineAlg::EdfBudget, config.policy.budget(), config.switch_cost)
}

/// Per-job executor state, indexed by subset position (flat arrays, no
/// hashing, and deterministic iteration for free). A job is done exactly
/// when `remaining == 0`.
struct JobState {
    id: JobId,
    deadline: Time,
    value: f64,
    remaining: Time,
    /// Segments begun so far; preempting a running job with
    /// `segments == k + 1` would need segment `k + 2` and is forbidden.
    segments: u32,
    pieces: Vec<Interval>,
}

/// The decision loop behind both entry points: rule `alg`, per-job budget
/// `k` (`u32::MAX` for unbounded), switch cost `delta`.
fn run(jobs: &JobSet, subset: &[JobId], alg: OnlineAlg, k: u32, delta: Time) -> SimOutcome {
    obs_count!("online.runs");
    trace_event!("online.start");
    let mut states: Vec<JobState> = subset
        .iter()
        .map(|&id| {
            let j = jobs.job(id);
            JobState {
                id,
                deadline: j.deadline,
                value: j.value,
                remaining: j.length,
                segments: 0,
                pieces: Vec::new(),
            }
        })
        .collect();
    // Release order: (time, id) — the adversary reveals ties in id order.
    let mut order: Vec<(Time, JobId, usize)> =
        subset.iter().enumerate().map(|(i, &id)| (jobs.job(id).release, id, i)).collect();
    order.sort_unstable();

    let mut trace = ExecTrace::default();
    let mut schedule = Schedule::new();
    let mut next_rel = 0usize; // index into `order`
    let mut t = order.first().map_or(0, |o| o.0);
    let mut running: Option<usize> = None;
    // Released jobs neither completed nor aborted, in no particular order:
    // every choice below is by a total order, so scans cost O(|ready|).
    let mut ready: Vec<usize> = Vec::new();
    let mut hopeless: Vec<usize> = Vec::new();
    // Reveals everything released by `t`.
    let reveal = |ready: &mut Vec<usize>, next_rel: &mut usize, t: Time| {
        while let Some(&(_, _, i)) = order.get(*next_rel).filter(|o| o.0 <= t) {
            ready.push(i);
            obs_count!("online.releases");
            *next_rel += 1;
        }
    };

    loop {
        reveal(&mut ready, &mut next_rel, t);
        // Abort hopeless waiting jobs, in (deadline, id) order: they cannot
        // complete even if loaded now and run alone. A running job is never
        // hopeless: it was feasible when chosen and has run uninterrupted
        // since.
        ready.retain(|&i| {
            let s = &states[i];
            let doomed = running != Some(i) && t + delta + s.remaining > s.deadline;
            if doomed {
                hopeless.push(i);
            }
            !doomed
        });
        hopeless.sort_unstable_by_key(|&i| (states[i].deadline, states[i].id));
        for i in hopeless.drain(..) {
            obs_count!("online.aborts");
            trace_event!("online.abort", states[i].id.0);
            trace.push(t, ExecEvent::Abort(states[i].id));
        }
        if ready.is_empty() {
            match order.get(next_rel) {
                Some(&(r, _, _)) => {
                    obs_count!("online.idle_ticks", r - t);
                    t = r;
                    continue;
                }
                None => break,
            }
        }

        obs_count!("online.decisions");
        let chosen = decide(&states, &ready, running, alg, k);
        if running != Some(chosen) {
            if let Some(prev) = running {
                // An irrevocable preemption: `prev`'s budget is spent.
                obs_count!("online.preemptions");
                trace_event!("online.preempt", states[prev].id.0);
                let (out, by) = (states[prev].id, states[chosen].id);
                trace.push(t, ExecEvent::Preempt { out, by });
            }
            if delta > 0 {
                obs_count!("online.overhead_ticks", delta);
                trace.push(t, ExecEvent::OverheadBegin);
                trace.overhead.push(Interval::new(t, t + delta));
                t += delta;
                trace.push(t, ExecEvent::OverheadEnd);
                reveal(&mut ready, &mut next_rel, t);
            }
            let s = &mut states[chosen];
            if s.segments == 0 {
                obs_count!("online.starts");
                trace.push(t, ExecEvent::Start(s.id));
            } else {
                trace.push(t, ExecEvent::Resume(s.id));
            }
            s.segments += 1;
            debug_assert!(s.segments - 1 <= k, "budget violated by the executor");
            running = Some(chosen);
        }

        // Run until completion or the next revelation, whichever is first.
        let next_release = order.get(next_rel).map_or(Time::MAX, |o| o.0);
        let s = &mut states[chosen];
        let until = (t + s.remaining).min(next_release);
        debug_assert!(until > t, "no progress at t={t}");
        trace.work.push((s.id, Interval::new(t, until)));
        push_piece(&mut s.pieces, Interval::new(t, until));
        s.remaining -= until - t;
        t = until;
        if s.remaining == 0 {
            ready.retain(|&i| i != chosen);
            obs_count!("online.completions");
            trace_event!("online.complete", s.id.0);
            trace.push(t, ExecEvent::Complete(s.id));
            schedule.assign_single(s.id, SegmentSet::from_intervals(std::mem::take(&mut s.pieces)));
            running = None;
        }
    }

    let mut dropped: Vec<JobId> =
        states.iter().filter(|s| s.remaining > 0).map(|s| s.id).collect();
    dropped.sort_unstable();
    trace_event!("online.done", schedule.len());
    debug_assert!(trace.check().is_ok());
    SimOutcome { trace, schedule, dropped }
}

/// Appends a work interval, merging with the last one when contiguous (the
/// same segment resumed across a revelation point is *one* segment).
fn push_piece(pieces: &mut Vec<Interval>, iv: Interval) {
    if let Some(last) = pieces.last_mut() {
        if last.end == iv.start {
            *last = Interval::new(last.start, iv.end);
            return;
        }
    }
    pieces.push(iv);
}

/// The algorithm's choice among the `ready` state indices (never empty),
/// with the budget enforced. Returns a state index.
fn decide(
    states: &[JobState],
    ready: &[usize],
    running: Option<usize>,
    alg: OnlineAlg,
    k: u32,
) -> usize {
    // Greedy commits and never preempts.
    if let (OnlineAlg::Greedy, Some(cur)) = (alg, running) {
        return cur;
    }
    // `running` stays feasible by construction; every other ready job is
    // feasible too (hopeless ones were just aborted).
    let ready = ready.iter().map(|&i| (i, &states[i]));
    let best = match alg {
        OnlineAlg::EdfBudget => ready.min_by_key(|(_, s)| (s.deadline, s.id)).map(|(i, _)| i),
        // Most valuable first; earlier deadline, then lower id break ties —
        // a total deterministic order.
        OnlineAlg::Greedy | OnlineAlg::Djn => {
            let key = |s: &JobState| (s.value, Reverse(s.deadline), Reverse(s.id));
            ready.fold(None, |best, (i, s)| match best {
                None => Some(i),
                Some(b) if key(s) > key(&states[b]) => Some(i),
                keep => keep,
            })
        }
    }
    .expect("caller guarantees a ready job");
    let Some(cur) = running.filter(|&cur| cur != best) else {
        return best;
    };
    if states[cur].segments > k {
        // Out of budget: the rule *wants* to preempt but cannot.
        obs_count!("online.budget_blocks");
        return cur;
    }
    // DJN's doubling threshold: preempt only for ≥ 2× the value.
    if alg == OnlineAlg::Djn && states[best].value < 2.0 * states[cur].value {
        obs_count!("online.djn.threshold_rejects");
        return cur;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use pobp_core::Job;

    fn ids_of(n: usize) -> Vec<JobId> {
        (0..n).map(JobId).collect()
    }

    fn cfg(alg: OnlineAlg, k: u32) -> OnlineConfig {
        OnlineConfig { alg, k }
    }

    fn sim_cfg(policy: Policy, delta: Time) -> SimConfig {
        SimConfig { policy, switch_cost: delta }
    }

    #[test]
    fn empty_input() {
        let jobs = JobSet::new();
        let online = run_online(&jobs, &[], cfg(OnlineAlg::Djn, 1));
        let sim = execute_online(&jobs, &[], sim_cfg(Policy::Edf, 1));
        for out in [online, sim] {
            assert!(out.schedule.is_empty());
            assert!(out.dropped.is_empty());
            assert!(out.trace.events.is_empty());
        }
    }

    #[test]
    fn single_job_completes() {
        let jobs: JobSet = vec![Job::new(3, 10, 5, 2.0)].into_iter().collect();
        for alg in ONLINE_ALGS {
            let out = run_online(&jobs, &ids_of(1), cfg(alg, 0));
            assert_eq!(out.trace.completed(), vec![JobId(0)], "{alg}");
            assert_eq!(out.value(&jobs), 2.0);
            out.schedule.verify(&jobs, Some(0)).unwrap();
        }
    }

    #[test]
    fn greedy_never_preempts() {
        let jobs: JobSet = vec![
            Job::new(0, 100, 20, 1.0),
            Job::new(1, 30, 5, 50.0), // would tempt any preemptive rule
        ]
        .into_iter()
        .collect();
        let out = run_online(&jobs, &ids_of(2), cfg(OnlineAlg::Greedy, 5));
        assert_eq!(out.trace.preemptions(), 0);
        out.schedule.verify(&jobs, Some(0)).unwrap();
    }

    #[test]
    fn djn_preempts_on_doubling_only() {
        let base = Job::new(0, 100, 20, 4.0);
        // 1.9× the running value: below threshold, no preemption.
        let below: JobSet =
            vec![base, Job::new(2, 12, 4, 7.6)].into_iter().collect();
        let out = run_online(&below, &ids_of(2), cfg(OnlineAlg::Djn, 3));
        assert_eq!(out.trace.preemptions(), 0);
        assert_eq!(out.trace.completed(), vec![JobId(0)], "tempter aborts, base survives");
        // 2× the running value: preempt.
        let above: JobSet =
            vec![base, Job::new(2, 12, 4, 8.0)].into_iter().collect();
        let out = run_online(&above, &ids_of(2), cfg(OnlineAlg::Djn, 3));
        assert_eq!(out.trace.preemptions(), 1);
        assert_eq!(out.trace.completed().len(), 2);
    }

    #[test]
    fn budget_is_enforced_under_pressure() {
        // A long cheap job with a stream of doubling tempters: only k
        // preemptions may be taken no matter how tempting the stream.
        let mut v = vec![Job::new(0, 200, 50, 1.0)];
        for i in 0..5 {
            let r = 5 + 10 * i;
            v.push(Job::new(r, r + 6, 4, 4.0 * 2f64.powi(i as i32)));
        }
        let jobs: JobSet = v.into_iter().collect();
        for k in 0..4u32 {
            for alg in [OnlineAlg::Djn, OnlineAlg::EdfBudget] {
                let out = run_online(&jobs, &ids_of(jobs.len()), cfg(alg, k));
                out.schedule.verify(&jobs, Some(k)).unwrap_or_else(|e| {
                    panic!("{alg} k={k}: {e}");
                });
            }
        }
    }

    #[test]
    fn edf_budget_matches_zero_cost_simulator_shape() {
        // Same decision rule as execute_online at δ = 0 on a workload with
        // no ties: completed sets agree.
        let jobs: JobSet = vec![
            Job::new(0, 30, 10, 1.0),
            Job::new(2, 9, 4, 1.0),
            Job::new(3, 8, 2, 1.0),
        ]
        .into_iter()
        .collect();
        for k in [0u32, 1, 2] {
            let online = run_online(&jobs, &ids_of(3), cfg(OnlineAlg::EdfBudget, k));
            let sim = execute_online(&jobs, &ids_of(3), sim_cfg(Policy::EdfBudget(k), 0));
            let mut a: Vec<JobId> = online.schedule.scheduled_ids().collect();
            let mut b: Vec<JobId> = sim.schedule.scheduled_ids().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "k={k}");
        }
    }

    #[test]
    fn same_instant_aborts_are_reported_in_deadline_order() {
        // A long valuable job blocks two waiting ones until t = 15, where
        // both become hopeless together. Their (deadline, id) order — job 1
        // (d = 12) before job 0 (d = 20) — is not their id order.
        let jobs: JobSet = vec![
            Job::new(1, 20, 8, 1.0),
            Job::new(1, 12, 6, 1.0),
            Job::new(0, 100, 15, 10.0),
        ]
        .into_iter()
        .collect();
        let online = run_online(&jobs, &ids_of(3), cfg(OnlineAlg::Greedy, 0));
        let sim = execute_online(&jobs, &ids_of(3), sim_cfg(Policy::NonPreemptive, 0));
        for out in [online, sim] {
            let aborts: Vec<(Time, ExecEvent)> = out
                .trace
                .events
                .iter()
                .copied()
                .filter(|(_, e)| matches!(e, ExecEvent::Abort(_)))
                .collect();
            assert_eq!(
                aborts,
                vec![(15, ExecEvent::Abort(JobId(1))), (15, ExecEvent::Abort(JobId(0)))]
            );
            assert_eq!(out.dropped, vec![JobId(0), JobId(1)]);
            assert_eq!(out.trace.completed(), vec![JobId(2)]);
        }
    }

    #[test]
    fn wasted_work_is_not_in_the_schedule() {
        // The tempter preempts the base job long enough that the base
        // becomes hopeless: its partial work must not surface as value.
        let jobs: JobSet = vec![
            Job::new(0, 22, 20, 1.0),  // laxity 2
            Job::new(1, 11, 10, 10.0), // 10× → DJN takes it; base then dies
        ]
        .into_iter()
        .collect();
        let out = run_online(&jobs, &ids_of(2), cfg(OnlineAlg::Djn, 2));
        assert_eq!(out.trace.completed(), vec![JobId(1)]);
        assert_eq!(out.dropped, vec![JobId(0)]);
        assert_eq!(out.value(&jobs), 10.0);
        out.schedule.verify(&jobs, Some(2)).unwrap();
    }

    #[test]
    fn determinism_is_bytewise() {
        let jobs: JobSet = (0..12)
            .map(|i| Job::new(i % 5, 10 + (3 * i) % 17, 1 + i % 4, 1.0 + (i % 3) as f64))
            .collect();
        for alg in ONLINE_ALGS {
            let a = run_online(&jobs, &ids_of(12), cfg(alg, 1));
            let b = run_online(&jobs, &ids_of(12), cfg(alg, 1));
            assert_eq!(format!("{:?}", a.schedule), format!("{:?}", b.schedule));
            assert_eq!(a.trace.events, b.trace.events);
            assert_eq!(a.dropped, b.dropped);
        }
    }

    #[test]
    fn ratio_bound_shape() {
        assert_eq!(djn_ratio_bound(1.0), 4.0);
        assert!(djn_ratio_bound(4.0) == 9.0);
        assert!(djn_ratio_bound(0.5) == 4.0, "ratios below 1 clamp to the equal-length case");
        assert!(djn_ratio_bound(100.0) > djn_ratio_bound(10.0));
    }

    #[test]
    fn zero_cost_edf_matches_offline_edf() {
        let jobs: JobSet = vec![
            Job::new(0, 30, 10, 1.0),
            Job::new(2, 9, 4, 1.0),
            Job::new(3, 8, 2, 1.0),
        ]
        .into_iter()
        .collect();
        let out = execute_online(&jobs, &ids_of(3), sim_cfg(Policy::Edf, 0));
        out.schedule.verify(&jobs, None).unwrap();
        assert_eq!(out.schedule.len(), 3);
        assert_eq!(out.value(&jobs), jobs.total_value());
        assert_eq!(out.trace.overhead_time(), 0);
    }

    #[test]
    fn switch_cost_is_paid_per_preemption() {
        // One long job preempted once by a tight one: 3 loads (long, tight,
        // long again) at δ = 1 each.
        let jobs: JobSet = vec![
            Job::new(0, 40, 10, 1.0),
            Job::new(5, 12, 4, 1.0),
        ]
        .into_iter()
        .collect();
        let out = execute_online(&jobs, &ids_of(2), sim_cfg(Policy::Edf, 1));
        assert_eq!(out.schedule.len(), 2);
        assert_eq!(out.trace.switches(), 3);
        assert_eq!(out.trace.overhead_time(), 3);
        out.trace.check().unwrap();
        out.schedule.verify(&jobs, None).unwrap();
    }

    #[test]
    fn overhead_can_cause_deadline_misses() {
        // Back-to-back tight jobs: feasible at δ = 0, not at δ = 2.
        let jobs: JobSet = vec![Job::new(0, 4, 4, 1.0), Job::new(4, 8, 4, 2.0)]
            .into_iter()
            .collect();
        let ok = execute_online(&jobs, &ids_of(2), sim_cfg(Policy::Edf, 0));
        assert_eq!(ok.schedule.len(), 2);
        let tight = execute_online(&jobs, &ids_of(2), sim_cfg(Policy::Edf, 2));
        // First load already costs 2 → job 0 cannot finish by 4; job 1 can
        // still make it (abort of j0 happens before its switch is paid).
        assert!(tight.schedule.len() < 2);
        assert!(!tight.dropped.is_empty());
        tight.trace.check().unwrap();
    }

    #[test]
    fn non_preemptive_never_preempts() {
        let jobs: JobSet = vec![
            Job::new(0, 100, 20, 1.0),
            Job::new(1, 30, 5, 5.0), // would preempt under EDF
        ]
        .into_iter()
        .collect();
        let out = execute_online(&jobs, &ids_of(2), sim_cfg(Policy::NonPreemptive, 0));
        out.schedule.verify(&jobs, Some(0)).unwrap();
        // Job 0 runs [0,20) en bloc; job 1 then completes by 25 ≤ 30.
        assert_eq!(out.schedule.len(), 2);
        assert_eq!(out.schedule.preemptions(JobId(0)), 0);
        assert_eq!(out.trace.preemptions(), 0);
    }

    #[test]
    fn budget_policy_enforces_k() {
        // A long job with many tight arrivals: under EdfBudget(k) it is
        // preempted at most k times.
        let jobs: JobSet = vec![
            Job::new(0, 100, 30, 1.0),
            Job::new(2, 10, 3, 1.0),
            Job::new(12, 20, 3, 1.0),
            Job::new(22, 30, 3, 1.0),
        ]
        .into_iter()
        .collect();
        for k in 0..3u32 {
            let out = execute_online(&jobs, &ids_of(4), sim_cfg(Policy::EdfBudget(k), 0));
            out.schedule.verify(&jobs, Some(k)).unwrap_or_else(|e| {
                panic!("k={k}: {e}");
            });
        }
        // Unbounded EDF preempts the long job three times here.
        let edf = execute_online(&jobs, &ids_of(4), sim_cfg(Policy::Edf, 0));
        assert_eq!(edf.schedule.preemptions(JobId(0)), 3);
    }

    #[test]
    fn budget_zero_equals_nonpreemptive_preemption_counts() {
        let jobs: JobSet = vec![
            Job::new(0, 60, 20, 1.0),
            Job::new(3, 30, 5, 1.0),
        ]
        .into_iter()
        .collect();
        let b = execute_online(&jobs, &ids_of(2), sim_cfg(Policy::EdfBudget(0), 0));
        b.schedule.verify(&jobs, Some(0)).unwrap();
    }

    #[test]
    fn idle_then_same_job_costs_nothing() {
        // Job released, completed; long idle; then a second job loads.
        let jobs: JobSet = vec![Job::new(0, 10, 3, 1.0), Job::new(50, 60, 3, 1.0)]
            .into_iter()
            .collect();
        let out = execute_online(&jobs, &ids_of(2), sim_cfg(Policy::Edf, 2));
        // Two loads total (two different jobs).
        assert_eq!(out.trace.switches(), 2);
        assert_eq!(out.schedule.len(), 2);
    }

    #[test]
    fn value_decreases_with_switch_cost() {
        let jobs: JobSet = (0..8)
            .map(|i| Job::new(3 * i, 3 * i + 5, 3, 1.0))
            .collect();
        let mut prev = f64::INFINITY;
        for delta in [0i64, 1, 2, 4] {
            let out = execute_online(&jobs, &ids_of(8), sim_cfg(Policy::Edf, delta));
            let v = out.value(&jobs);
            assert!(v <= prev + 1e-9, "value should not increase with δ");
            prev = v;
        }
    }
}
