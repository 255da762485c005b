//! Partitioned multi-machine online execution (non-migrative, matching the
//! paper's machine model): jobs are assigned to machines up front by a
//! load-balancing heuristic, then each machine runs the overhead-aware
//! online executor independently.

use crate::online::{execute_online, SimConfig, SimOutcome};
use pobp_core::{JobId, JobSet, Schedule, Time};

/// How jobs are split across machines before execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionRule {
    /// In release order, each job goes to the machine with the least total
    /// assigned work — the classic list-scheduling balance.
    LeastLoaded,
    /// Round-robin in release order (baseline).
    RoundRobin,
}

/// Result of a partitioned run.
#[derive(Clone, Debug)]
pub struct PartitionedOutcome {
    /// Per-machine outcomes (index = machine id).
    pub per_machine: Vec<SimOutcome>,
    /// The merged schedule with machine ids assigned.
    pub schedule: Schedule,
    /// All dropped jobs.
    pub dropped: Vec<JobId>,
}

impl PartitionedOutcome {
    /// Total completed value.
    pub fn value(&self, jobs: &JobSet) -> f64 {
        self.schedule.value(jobs)
    }

    /// Total context switches paid across machines.
    pub fn switches(&self) -> usize {
        self.per_machine.iter().map(|o| o.trace.switches()).sum()
    }
}

/// Partitions `ids` over `machines` machines by `rule`, then executes each
/// partition with `config` on its own machine.
pub fn execute_partitioned(
    jobs: &JobSet,
    ids: &[JobId],
    machines: usize,
    rule: PartitionRule,
    config: SimConfig,
) -> PartitionedOutcome {
    assert!(machines >= 1, "need at least one machine");
    // Release-ordered assignment.
    let mut order = ids.to_vec();
    order.sort_by_key(|&j| (jobs.job(j).release, j));
    let mut parts: Vec<Vec<JobId>> = vec![Vec::new(); machines];
    let mut load: Vec<Time> = vec![0; machines];
    for (i, &j) in order.iter().enumerate() {
        let m = match rule {
            PartitionRule::RoundRobin => i % machines,
            PartitionRule::LeastLoaded => {
                let (m, _) = load
                    .iter()
                    .enumerate()
                    .min_by_key(|&(mi, &l)| (l, mi))
                    .expect("machines ≥ 1");
                m
            }
        };
        parts[m].push(j);
        load[m] += jobs.job(j).length;
    }
    // Execute each machine and merge.
    let mut per_machine = Vec::with_capacity(machines);
    let mut schedule = Schedule::new();
    let mut dropped = Vec::new();
    for (m, part) in parts.iter().enumerate() {
        let out = execute_online(jobs, part, config);
        for (id, a) in out.schedule.iter() {
            debug_assert_eq!(a.machine, 0);
            schedule.assign(id, m, a.segs.clone());
        }
        dropped.extend(out.dropped.iter().copied());
        per_machine.push(out);
    }
    dropped.sort_unstable();
    PartitionedOutcome { per_machine, schedule, dropped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::Policy;
    use pobp_core::Job;

    fn ids_of(n: usize) -> Vec<JobId> {
        (0..n).map(JobId).collect()
    }

    fn cfg(delta: Time) -> SimConfig {
        SimConfig { policy: Policy::EdfBudget(1), switch_cost: delta }
    }

    #[test]
    fn two_machines_complete_a_conflicting_pair() {
        let jobs: JobSet = vec![Job::new(0, 4, 4, 1.0), Job::new(0, 4, 4, 1.0)]
            .into_iter()
            .collect();
        let one = execute_partitioned(&jobs, &ids_of(2), 1, PartitionRule::LeastLoaded, cfg(0));
        assert_eq!(one.schedule.len(), 1);
        let two = execute_partitioned(&jobs, &ids_of(2), 2, PartitionRule::LeastLoaded, cfg(0));
        assert_eq!(two.schedule.len(), 2);
        two.schedule.verify(&jobs, Some(1)).unwrap();
        assert_eq!(two.schedule.machines(), vec![0, 1]);
    }

    #[test]
    fn least_loaded_balances_work() {
        // Six equal jobs over three machines → two each.
        let jobs: JobSet = (0..6).map(|i| Job::new(i, i + 20, 5, 1.0)).collect();
        let out = execute_partitioned(&jobs, &ids_of(6), 3, PartitionRule::LeastLoaded, cfg(0));
        out.schedule.verify(&jobs, Some(1)).unwrap();
        for m in 0..3 {
            let busy = out.schedule.busy(m).total_len();
            assert_eq!(busy, 10, "machine {m}");
        }
    }

    #[test]
    fn round_robin_is_a_valid_baseline() {
        let jobs: JobSet = (0..8).map(|i| Job::new(2 * i, 2 * i + 30, 6, 1.0)).collect();
        let out = execute_partitioned(&jobs, &ids_of(8), 2, PartitionRule::RoundRobin, cfg(1));
        out.schedule.verify(&jobs, Some(1)).unwrap();
        assert_eq!(out.schedule.len() + out.dropped.len(), 8);
    }

    #[test]
    fn value_monotone_in_machines() {
        let jobs: JobSet = (0..12).map(|i| Job::new(i % 4, i % 4 + 12, 6, 1.0 + i as f64)).collect();
        let mut prev = -1.0;
        for m in 1..=4 {
            let out =
                execute_partitioned(&jobs, &ids_of(12), m, PartitionRule::LeastLoaded, cfg(0));
            out.schedule.verify(&jobs, Some(1)).unwrap();
            let v = out.value(&jobs);
            assert!(v >= prev - 1e-9, "m={m}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn switches_are_summed_across_machines() {
        let jobs: JobSet = (0..4).map(|i| Job::new(10 * i, 10 * i + 8, 4, 1.0)).collect();
        let out = execute_partitioned(&jobs, &ids_of(4), 2, PartitionRule::RoundRobin, cfg(1));
        assert_eq!(
            out.switches(),
            out.per_machine.iter().map(|o| o.trace.switches()).sum::<usize>()
        );
        assert!(out.switches() >= out.schedule.len());
    }
}
