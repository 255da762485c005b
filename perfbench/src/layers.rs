//! Layer-by-layer replay of one engine task: the same public calls the
//! engine's task wrapper makes (reference, the bounded algorithm's stages,
//! certification), each in its own span. The engine runs them opaquely
//! inside `run_batch`; replaying them on the benchmark thread is how the
//! traced run splits the engine's time into layers without instrumenting
//! the program.

use std::collections::HashMap;

use pobp_core::{schedule_stats, JobId, Schedule};
use pobp_engine::{instance_hash, Algo, SolveOutput, SolveTask, TaskResult};
use pobp_forest::tm_ws;
use pobp_sched::{
    greedy_unbounded_ws, k_preemption_combined, laminarize_ws, lsa_cs, reconstruct_ws,
    schedule_forest_ws, schedule_k0, SolveWorkspace,
};
use pobp_sim::{run_online, OnlineAlg, OnlineConfig};

use crate::trace::SpanLog;

/// Span names the engine overhead is computed against: the solver stages,
/// the output statistics and certification.
pub const TASK_WORK_SPANS: [&str; 11] = [
    "sched.reference",
    "sched.laminarize",
    "sched.forest",
    "forest.tm",
    "sched.reconstruct",
    "sched.combined",
    "sched.lsa_cs",
    "sched.k0",
    "sim.online",
    "engine.output_stats",
    "engine.cert",
];

/// Replays tasks layer by layer, keeping unbounded references per
/// instance the way the engine's reference cache does.
#[derive(Default)]
pub struct Replayer {
    refs: HashMap<u64, (Schedule, f64)>,
    ws: SolveWorkspace,
}

impl Replayer {
    /// A replayer with an empty reference cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every cached reference (a fresh engine batch starts cold).
    pub fn clear(&mut self) {
        self.refs.clear();
    }

    /// Replays `task` under spans in `log` and returns the output the
    /// engine should have reported for it, or `None` when the replayed
    /// result fails certification.
    pub fn replay(&mut self, task: &SolveTask, log: &mut SpanLog, req: u64) -> Option<SolveOutput> {
        let jobs = &task.instance;
        let ids: Vec<JobId> = jobs.ids().collect();
        let inst = instance_hash(jobs);
        if !self.refs.contains_key(&inst) {
            let ws = &mut self.ws;
            let (schedule, value) = log.time("sched.reference", req, || {
                let inf = greedy_unbounded_ws(jobs, &ids, ws);
                let value = inf.schedule.value(jobs);
                (inf.schedule, value)
            });
            self.refs.insert(inst, (schedule, value));
        }
        let (reference, ref_value) = &self.refs[&inst];
        let k = task.k;
        let ws = &mut self.ws;
        let (schedule, eff_k) = match task.algo {
            Algo::Reduction => {
                let laminar = log.time("sched.laminarize", req, || {
                    laminarize_ws(jobs, reference, ws).expect("reference schedule is feasible")
                });
                let sf = log.time("sched.forest", req, || {
                    schedule_forest_ws(jobs, &laminar, ws)
                });
                let kbas = log.time("forest.tm", req, || tm_ws(&sf.forest, k, &mut ws.forest));
                let s = log.time("sched.reconstruct", req, || {
                    reconstruct_ws(jobs, &laminar, &sf, &kbas.keep, ws)
                });
                (s, k)
            }
            Algo::Combined => {
                let out = log.time("sched.combined", req, || {
                    k_preemption_combined(jobs, &ids, reference, k)
                        .expect("reference schedule is feasible")
                });
                (out.chosen, k)
            }
            Algo::LsaCs => (
                log.time("sched.lsa_cs", req, || lsa_cs(jobs, &ids, k).schedule),
                k,
            ),
            Algo::K0 => (
                log.time("sched.k0", req, || schedule_k0(jobs, &ids).schedule),
                0,
            ),
            Algo::OnlineDjn | Algo::OnlineGreedy | Algo::OnlineEdf => {
                let alg = match task.algo {
                    Algo::OnlineDjn => OnlineAlg::Djn,
                    Algo::OnlineGreedy => OnlineAlg::Greedy,
                    _ => OnlineAlg::EdfBudget,
                };
                let out = log.time("sim.online", req, || {
                    run_online(jobs, &ids, OnlineConfig { alg, k })
                });
                (out.schedule, k)
            }
            Algo::PanicForTest => unreachable!("the benchmark never submits the panic algorithm"),
        };
        let stats = log.time("engine.output_stats", req, || {
            schedule_stats(jobs, &schedule)
        });
        // Certification, call for call as the engine's trust boundary does
        // it: reference re-verified and revalued, then the bounded schedule
        // re-verified under (eff_k, machines) and its statistics recomputed.
        let certified = log.time("engine.cert", req, || {
            reference.verify(jobs, None).is_ok()
                && reference.value(jobs) == *ref_value
                && schedule.verify_on(jobs, Some(eff_k), task.machines).is_ok()
                && schedule_stats(jobs, &schedule).value == stats.value
        });
        certified.then_some(SolveOutput {
            alg_value: stats.value,
            ref_value: *ref_value,
            scheduled: stats.scheduled,
            preemptions: stats.total_preemptions,
            branch_values: None,
        })
    }
}

/// Whether the engine reported `Done` with the output the layer replay
/// reproduced.
pub fn agrees(engine: &TaskResult, replayed: Option<&SolveOutput>) -> bool {
    match (engine, replayed) {
        (TaskResult::Done(a), Some(b)) => {
            a.alg_value == b.alg_value
                && a.ref_value == b.ref_value
                && a.scheduled == b.scheduled
                && a.preemptions == b.preemptions
        }
        _ => false,
    }
}
