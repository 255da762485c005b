//! Reusable scratch memory for the scheduling hot path.
//!
//! A [`SolveWorkspace`] bundles the forest-algorithm scratch
//! ([`pobp_forest::Workspace`]) with the EDF, feasibility-probe and
//! schedule-forest scratch used by [`crate::edf_schedule_ws`],
//! [`crate::edf_feasible_ws`], [`crate::greedy_unbounded_ws`],
//! [`crate::laminarize_ws`],
//! [`crate::schedule_forest_ws`], [`crate::reconstruct_ws`] and
//! [`crate::reduce_to_k_bounded_ws`]. The engine holds one per worker
//! thread and reuses it across tasks, so the per-task hot path stops paying
//! for `HashMap`s and per-call `Vec`s (jobs carry dense ids, so every map
//! becomes an indexed array with epoch stamps).
//!
//! **Reuse contract.** Every `*_ws` function resets the buffers it uses at
//! entry — never relying on leftover contents — so a workspace survives
//! arbitrary interleavings of calls on unrelated instances, including reuse
//! after a panic was caught mid-call (`catch_unwind` in the engine pool).

use pobp_core::{Interval, JobId, MachineId, Time};
use pobp_forest::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Scratch for [`crate::edf_schedule_ws`]: per-job state as flat arrays
/// indexed by the dense `JobId`s, with an epoch stamp marking which entries
/// belong to the current call.
#[derive(Debug, Default)]
pub(crate) struct EdfScratch {
    /// Unprocessed ticks per job (valid where `stamp == epoch`).
    pub(crate) remaining: Vec<Time>,
    /// Emitted segments per job; inner capacity persists across calls.
    pub(crate) placed: Vec<Vec<Interval>>,
    /// `stamp[j] == epoch` ⇔ job `j` is in the current call's subset.
    pub(crate) stamp: Vec<u64>,
    /// Current call number.
    pub(crate) epoch: u64,
    /// Releases ascending.
    pub(crate) releases: Vec<(Time, JobId)>,
    /// Ready queue ordered by (deadline, id).
    pub(crate) ready: BinaryHeap<Reverse<(Time, JobId)>>,
}

impl EdfScratch {
    /// Grows the per-job arrays to cover ids `0..n` and starts a new epoch.
    pub(crate) fn begin(&mut self, n: usize) -> u64 {
        if self.remaining.len() < n {
            self.remaining.resize(n, 0);
            self.placed.resize_with(n, Vec::new);
            self.stamp.resize(n, 0);
        }
        self.epoch += 1;
        self.releases.clear();
        self.ready.clear();
        self.epoch
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.remaining.capacity() * size_of::<Time>()
            + self
                .placed
                .iter()
                .map(|p| p.capacity() * size_of::<Interval>())
                .sum::<usize>()
            + self.placed.capacity() * size_of::<Vec<Interval>>()
            + self.stamp.capacity() * size_of::<u64>()
            + self.releases.capacity() * size_of::<(Time, JobId)>()
            + self.ready.capacity() * size_of::<Reverse<(Time, JobId)>>()
    }
}

/// Scratch for the feasibility-only EDF probes ([`crate::edf_feasible_ws`],
/// [`crate::greedy_unbounded_ws`]): they answer yes or no without building
/// a schedule, so they keep no per-job state beyond the release list.
#[derive(Debug, Default)]
pub(crate) struct ProbeScratch {
    /// Candidates in the order the caller decides them.
    pub(crate) order: Vec<JobId>,
    /// The probed (or accepted-so-far) jobs, sorted by `(release, id)`.
    pub(crate) by_release: Vec<(Time, JobId)>,
    /// The accepted set's busy periods: sorted, disjoint `[start, end)`,
    /// split wherever nothing is pending (so two may touch).
    pub(crate) busy: Vec<Interval>,
    /// Pending work ordered by `(deadline, remaining)`.
    pub(crate) pending: BinaryHeap<Reverse<(Time, Time)>>,
}

impl ProbeScratch {
    /// Empties every buffer, keeping capacity.
    pub(crate) fn begin(&mut self) {
        self.order.clear();
        self.by_release.clear();
        self.busy.clear();
        self.pending.clear();
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.order.capacity() * size_of::<JobId>()
            + self.by_release.capacity() * size_of::<(Time, JobId)>()
            + self.busy.capacity() * size_of::<Interval>()
            + self.pending.capacity() * size_of::<Reverse<(Time, Time)>>()
    }
}

/// Scratch for the schedule⇄forest direction ([`crate::laminarize_ws`],
/// [`crate::schedule_forest_ws`], [`crate::reconstruct_ws`]).
#[derive(Debug, Default)]
pub(crate) struct SfScratch {
    /// Jobs assigned to the machine currently being laminarized.
    pub(crate) on_machine: Vec<JobId>,
    /// One machine's segments in time order (forest stack sweep).
    pub(crate) segs: Vec<(Interval, JobId)>,
    /// Span end per job (valid where `span_stamp == epoch`).
    pub(crate) span_end: Vec<Time>,
    /// Epoch stamp for `span_end`.
    pub(crate) span_stamp: Vec<u64>,
    /// `opened[j] == epoch` ⇔ job `j` already has a forest node.
    pub(crate) opened: Vec<u64>,
    /// Current call number.
    pub(crate) epoch: u64,
    /// Stack of currently-open `(job, node)` pairs.
    pub(crate) stack: Vec<(JobId, NodeId)>,
    /// Every segment the left-merge reconstruction placed, with its
    /// machine; sorted once at the end for the collision check.
    pub(crate) booked: Vec<(MachineId, Interval)>,
}

impl SfScratch {
    /// Grows the per-job arrays to cover ids `0..n` and starts a new epoch.
    pub(crate) fn begin(&mut self, n: usize) -> u64 {
        if self.span_end.len() < n {
            self.span_end.resize(n, 0);
            self.span_stamp.resize(n, 0);
            self.opened.resize(n, 0);
        }
        self.epoch += 1;
        self.epoch
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.on_machine.capacity() * size_of::<JobId>()
            + self.segs.capacity() * size_of::<(Interval, JobId)>()
            + self.span_end.capacity() * size_of::<Time>()
            + self.span_stamp.capacity() * size_of::<u64>()
            + self.opened.capacity() * size_of::<u64>()
            + self.stack.capacity() * size_of::<(JobId, NodeId)>()
            + self.booked.capacity() * size_of::<(MachineId, Interval)>()
    }
}

/// Reusable scratch for the full solve pipeline (EDF → laminarize →
/// schedule forest → k-BAS → reconstruct).
///
/// Create one per worker thread and pass it to the `*_ws` entry points;
/// buffer capacity persists across calls, so steady-state solves allocate
/// only their outputs. A fresh workspace is cheap (all buffers start
/// empty) — the non-`_ws` wrappers create a throwaway one per call.
#[derive(Debug, Default)]
pub struct SolveWorkspace {
    /// Scratch for the §3 forest algorithms (`tm`, contraction, extract).
    pub forest: pobp_forest::Workspace,
    /// Scratch for EDF (witness generator and laminarizer).
    pub(crate) edf: EdfScratch,
    /// Scratch for the feasibility-only EDF probes.
    pub(crate) probe: ProbeScratch,
    /// Scratch for the §4.1 schedule⇄forest constructions.
    pub(crate) sf: SfScratch,
}

impl SolveWorkspace {
    /// A workspace with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes currently reserved by all scratch buffers (capacity,
    /// not length) — reported via the `engine.ws.scratch_bytes` obs event.
    pub fn scratch_bytes(&self) -> usize {
        self.forest.scratch_bytes() + self.edf.bytes() + self.probe.bytes() + self.sf.bytes()
    }
}
