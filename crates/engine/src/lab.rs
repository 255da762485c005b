//! The online competitive-ratio lab: cross the instance zoo with
//! `(n, k, seed)`, pair every online task with an offline oracle task, and
//! read the batch back as ratio rows.
//!
//! `pobp online`, the `e13` experiment and its replication pin all build
//! their batch here, so the cell order, the labels and the oracle rule
//! exist once. The denominator of a cell is its [`Algo::Reduction`] oracle
//! task's certified value — a feasible `k`-bounded schedule, so a lower
//! bound on `OPT_k` — upgraded to the exact `OPT_k` of
//! `opt_k_bounded_small` where `opt_k_bounded_fits` holds and the exact
//! value is at least the certified one. The caller owns the engine; rows
//! are a pure function of the lab and the reports, so they are
//! byte-identical across thread counts. The exact upgrade runs serially in
//! [`OnlineLab::rows`], once per fitting cell whose oracle produced output.

use pobp_core::JobId;
use pobp_instances::{zoo_instance, ZooFamily};
use pobp_sched::{opt_k_bounded_fits, opt_k_bounded_small};
use pobp_sim::djn_ratio_bound;

use crate::task::{Algo, SolveTask, TaskReport};

/// A competitive-ratio grid: zoo families × sizes × seeds × budgets, each
/// cell solved by one oracle task and by every online algorithm in `algs`.
#[derive(Clone, Debug)]
pub struct OnlineLab {
    /// Zoo families (`pobp_instances::zoo_instance`).
    pub families: Vec<ZooFamily>,
    /// Instance sizes.
    pub ns: Vec<usize>,
    /// Preemption budgets.
    pub ks: Vec<u32>,
    /// Workload seeds.
    pub seeds: Vec<u64>,
    /// The online algorithms measured in every cell.
    pub algs: Vec<Algo>,
    /// Whether every task uses the exact `OPT_∞` reference (see
    /// [`SolveTask::exact_ref`]).
    pub exact_ref: bool,
}

/// One online task's row: its cell, its report, and the ratio against the
/// cell's oracle.
#[derive(Clone, Debug)]
pub struct LabRow<'r> {
    /// Zoo family of the cell.
    pub family: ZooFamily,
    /// Size of the cell.
    pub n: usize,
    /// Budget of the cell.
    pub k: u32,
    /// Seed of the cell.
    pub seed: u64,
    /// The online algorithm this row measures.
    pub alg: Algo,
    /// The online task's report.
    pub report: &'r TaskReport,
    /// The `(1+√P)²` reference bound of the cell's instance.
    pub bound: f64,
    /// The cell's oracle value and kind (`"exact"` or `"reduction"`);
    /// `None` when the oracle task produced no output.
    pub oracle: Option<(f64, &'static str)>,
    /// `oracle / value`, when both exist and the online value is positive.
    pub ratio: Option<f64>,
}

impl OnlineLab {
    /// Every cell's `(family, n, seed, k)`, in batch order: families, then
    /// sizes, then seeds, with budgets innermost.
    pub fn cells(&self) -> impl Iterator<Item = (ZooFamily, usize, u64, u32)> + '_ {
        self.families.iter().flat_map(move |&family| {
            self.ns.iter().flat_map(move |&n| {
                let seeds = self.seeds.iter();
                seeds.flat_map(move |&seed| self.ks.iter().map(move |&k| (family, n, seed, k)))
            })
        })
    }

    /// The lab's engine batch: per cell, the oracle task (labelled
    /// `oracle`), then one task per algorithm of `algs`, all on the cell's
    /// zoo instance.
    pub fn tasks(&self) -> Vec<SolveTask> {
        let mut tasks = Vec::new();
        for (family, n, seed, k) in self.cells() {
            let instance = zoo_instance(family, n, k, seed);
            let algos = std::iter::once((Algo::Reduction, "oracle"))
                .chain(self.algs.iter().map(|&alg| (alg, alg.name())));
            for (algo, tag) in algos {
                tasks.push(SolveTask {
                    instance: instance.clone(),
                    k,
                    machines: 1,
                    algo,
                    exact_ref: self.exact_ref,
                    label: format!("{family} n={n} k={k} seed={seed} {tag}"),
                });
            }
        }
        tasks
    }

    /// Reads the batch back: one row per online task, in batch order.
    /// `tasks` is [`OnlineLab::tasks`] and `reports` the engine's reports
    /// of it.
    pub fn rows<'r>(&self, tasks: &[SolveTask], reports: &'r [TaskReport]) -> Vec<LabRow<'r>> {
        let per_cell = 1 + self.algs.len();
        let len = self.cells().count() * per_cell;
        assert!(tasks.len() == len && reports.len() == len, "one report per lab task");
        let cells = tasks.chunks(per_cell).zip(reports.chunks(per_cell));
        let mut rows = Vec::new();
        for ((family, n, seed, k), (cell, reports)) in self.cells().zip(cells) {
            let instance = &cell[0].instance;
            let bound = djn_ratio_bound(instance.length_ratio().unwrap_or(1.0));
            let oracle = reports[0].result.output().map(|out| {
                let ids: Vec<JobId> = instance.ids().collect();
                match opt_k_bounded_fits(instance, &ids)
                    .then(|| opt_k_bounded_small(instance, &ids, k))
                {
                    Some(exact) if exact >= out.alg_value => (exact, "exact"),
                    _ => (out.alg_value, "reduction"),
                }
            });
            for (&alg, report) in self.algs.iter().zip(&reports[1..]) {
                let ratio = match (oracle, report.result.output()) {
                    (Some((value, _)), Some(out)) if out.alg_value > 0.0 => {
                        Some(value / out.alg_value)
                    }
                    _ => None,
                };
                rows.push(LabRow { family, n, k, seed, alg, report, bound, oracle, ratio });
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_open_with_their_oracle_in_family_n_seed_k_order() {
        let lab = OnlineLab {
            families: vec![ZooFamily::Fig2, ZooFamily::Random],
            ns: vec![4, 5],
            ks: vec![0, 1],
            seeds: vec![0, 1],
            algs: vec![Algo::OnlineDjn, Algo::OnlineEdf],
            exact_ref: false,
        };
        let tasks = lab.tasks();
        assert_eq!(lab.cells().count(), 16);
        assert_eq!(tasks.len(), 48);
        let labels: Vec<&str> = tasks.iter().take(7).map(|t| t.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "fig2 n=4 k=0 seed=0 oracle",
                "fig2 n=4 k=0 seed=0 online-djn",
                "fig2 n=4 k=0 seed=0 online-edf",
                "fig2 n=4 k=1 seed=0 oracle",
                "fig2 n=4 k=1 seed=0 online-djn",
                "fig2 n=4 k=1 seed=0 online-edf",
                "fig2 n=4 k=0 seed=1 oracle",
            ]
        );
        assert_eq!(tasks[12].label, "fig2 n=5 k=0 seed=0 oracle");
        assert_eq!(tasks[24].label, "random n=4 k=0 seed=0 oracle");
        assert!(tasks.iter().step_by(3).all(|t| t.algo == Algo::Reduction));
        assert!(tasks.iter().all(|t| t.machines == 1 && !t.exact_ref));
    }
}
