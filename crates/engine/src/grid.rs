//! Grid sweeps: expand an `(n, k, seed)` cross product into a task batch.
//!
//! Task order is row-major over `ns × seeds × ks` — seeds inside `n`, `k`
//! innermost — so every `k` of one `(n, seed)` cell is adjacent and the
//! reference cache (keyed by instance, not by `k`) is hit immediately. The
//! order, and therefore the report order, is a pure function of the spec:
//! two engines given the same spec return byte-identical report sequences
//! regardless of thread count.

use pobp_core::JobSet;
use pobp_instances::RandomWorkload;

use crate::task::{Algo, SolveTask};

/// A sweep grid: the cross product of sizes, budgets, and seeds, solved
/// with one algorithm.
#[derive(Clone, Debug)]
pub struct GridSpec {
    /// Instance sizes.
    pub ns: Vec<usize>,
    /// Preemption budgets.
    pub ks: Vec<u32>,
    /// Workload seeds.
    pub seeds: Vec<u64>,
    /// The algorithm every task runs.
    pub algo: Algo,
    /// Machines per task (1 = single machine).
    pub machines: usize,
    /// Whether tasks use the exact `OPT_∞` reference (see
    /// [`SolveTask::exact_ref`]).
    pub exact_ref: bool,
}

impl GridSpec {
    /// A single-machine grid over the given axes with a greedy reference.
    pub fn new(ns: Vec<usize>, ks: Vec<u32>, seeds: Vec<u64>, algo: Algo) -> Self {
        GridSpec { ns, ks, seeds, algo, machines: 1, exact_ref: false }
    }

    /// Number of tasks the grid expands to.
    pub fn len(&self) -> usize {
        self.ns.len() * self.ks.len() * self.seeds.len()
    }

    /// Whether the grid is empty along any axis.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid using the standard random workload
    /// ([`RandomWorkload::standard`]) as the instance generator.
    pub fn tasks(&self) -> Vec<SolveTask> {
        self.tasks_with(|n, seed| RandomWorkload::standard(n).generate(seed))
    }

    /// Expands the grid with a caller-supplied `(n, seed) → JobSet`
    /// generator (e.g. the bench crate's workload builders). The instance
    /// of each `(n, seed)` cell is generated once and shared across its
    /// `k` row.
    pub fn tasks_with(&self, gen: impl Fn(usize, u64) -> JobSet) -> Vec<SolveTask> {
        let mut out = Vec::with_capacity(self.len());
        for &n in &self.ns {
            for &seed in &self.seeds {
                let instance = gen(n, seed);
                for &k in &self.ks {
                    out.push(SolveTask {
                        instance: instance.clone(),
                        k,
                        machines: self.machines,
                        algo: self.algo,
                        exact_ref: self.exact_ref,
                        label: format!("n={n} k={k} seed={seed}"),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_order_is_row_major_and_sized() {
        let g = GridSpec::new(vec![4, 6], vec![1, 2], vec![0, 1], Algo::Reduction);
        let tasks = g.tasks();
        assert_eq!(tasks.len(), g.len());
        assert_eq!(tasks.len(), 8);
        assert_eq!(tasks[0].label, "n=4 k=1 seed=0");
        assert_eq!(tasks[1].label, "n=4 k=2 seed=0");
        assert_eq!(tasks[2].label, "n=4 k=1 seed=1");
        assert_eq!(tasks[4].label, "n=6 k=1 seed=0");
        // The k row of one (n, seed) cell shares one instance.
        assert_eq!(tasks[0].instance, tasks[1].instance);
        assert_ne!(tasks[0].instance, tasks[2].instance);
    }
}
