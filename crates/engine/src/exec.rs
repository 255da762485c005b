//! The work-stealing run-queue fabric behind [`crate::pool::Engine`]:
//! per-worker deques with a LIFO slot, a chunked global injector, a
//! not-before heap for retry backoff, and a parking lot for idle workers.
//!
//! The fabric schedules *units* — `(task index, attempts so far, per-task
//! deadline and chaos state)` — not results: every solver is a pure
//! function and each report is keyed by its input index, so **scheduling
//! order never reaches an output byte**. Stealing is therefore free to be
//! greedy; it is still seeded deterministically per worker
//! (`splitmix64(worker)`), so a given build's victim sequence is
//! reproducible rather than dependent on OS entropy, which keeps
//! scheduling repeatable when replaying chaos runs.
//!
//! Claim order for a worker, cheapest first:
//!
//! 1. its **LIFO slot** (a just-requeued zero-backoff retry: the task's
//!    state is still warm in this worker's workspace);
//! 2. the front of its **own deque** (the tail of its last injector chunk);
//! 3. the **not-before heap**, when the earliest entry is due;
//! 4. the **injector**: a chunk of `chunk` consecutive input indices,
//!    claimed with one `fetch_add` — consecutive cells of a sweep grid
//!    share a reference solution, so chunk adjacency feeds the ref cache;
//! 5. **stealing**: the back half of a randomly chosen victim's deque.
//!
//! A worker that finds nothing parks on a condvar with a bounded timeout
//! (the earliest not-before entry, capped at 1 ms) and re-checks; the last
//! completion notifies everyone so the pool drains promptly.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use pobp_core::{obs_count, obs_event};

use crate::cache::splitmix64;

/// Longest a worker parks between re-checks when it has no due wake-up.
const PARK_CAP: Duration = Duration::from_millis(1);

/// One schedulable attempt of a task: the input index plus whatever
/// per-task state must survive a requeue (the attempt counter, the task's
/// absolute deadline, and its chaos handle). The state fields are `None`
/// until the first dispatch initialises them.
pub(crate) struct Unit {
    /// Input index of the task (and of its report slot).
    pub index: usize,
    /// Attempts already made; `0` until the first dispatch.
    pub attempts: u32,
    /// Absolute deadline fixed at first dispatch; requeue time counts
    /// against it, exactly as the old in-worker backoff sleep did.
    pub deadline_at: Option<Instant>,
    /// The task's chaos handle (plan + content key), computed once at first
    /// dispatch so requeues do not re-hash the task.
    pub chaos: Option<crate::chaos::TaskChaos>,
}

impl Unit {
    /// A never-dispatched unit for input index `index`.
    fn fresh(index: usize) -> Self {
        Unit { index, attempts: 0, deadline_at: None, chaos: None }
    }
}

/// A retry waiting out its backoff: ordered by `(not_before, index)` so the
/// heap pops the earliest-due unit, ties broken by input index.
struct Delayed {
    not_before: Instant,
    unit: Unit,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.not_before == other.not_before && self.unit.index == other.unit.index
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.not_before, self.unit.index).cmp(&(other.not_before, other.unit.index))
    }
}

/// One worker's run queue: the one-unit LIFO slot plus the stealable deque.
/// Both locks are owner-hot and thief-cold, so they are almost always
/// uncontended — the point of the per-worker layout.
#[derive(Default)]
struct WorkerQueue {
    /// Local push of a zero-backoff retry; never stolen.
    slot: Mutex<Option<Unit>>,
    /// Owner pops the front; thieves split off the back half.
    deque: Mutex<VecDeque<Unit>>,
}

/// The shared scheduling state of one `run_batch` call.
pub(crate) struct Fabric {
    /// Batch size (reports needed before the pool may exit).
    n: usize,
    /// Indices claimed per injector `fetch_add`.
    chunk: usize,
    /// Next unclaimed input index (the global injector).
    cursor: AtomicUsize,
    queues: Vec<WorkerQueue>,
    /// Retries waiting out a not-before timestamp (min-heap via `Reverse`).
    delayed: Mutex<BinaryHeap<Reverse<Delayed>>>,
    /// Reports written so far; `== n` terminates every worker.
    completed: AtomicUsize,
    park: Mutex<()>,
    unpark: Condvar,
}

impl Fabric {
    /// A fabric for `n` tasks over `threads` workers. The chunk size aims
    /// at a few claims per worker (amortising the shared cursor) while
    /// keeping the tail stealable.
    pub fn new(n: usize, threads: usize) -> Self {
        let chunk = (n / (threads * 4).max(1)).clamp(1, 64);
        Fabric {
            n,
            chunk,
            cursor: AtomicUsize::new(0),
            queues: (0..threads).map(|_| WorkerQueue::default()).collect(),
            delayed: Mutex::new(BinaryHeap::new()),
            completed: AtomicUsize::new(0),
            park: Mutex::new(()),
            unpark: Condvar::new(),
        }
    }

    /// Whether every task has reported.
    pub fn is_done(&self) -> bool {
        self.completed.load(Ordering::Acquire) >= self.n
    }

    /// Records one finished report; wakes every parked worker when it was
    /// the last.
    pub fn complete_one(&self) {
        if self.completed.fetch_add(1, Ordering::AcqRel) + 1 >= self.n {
            let _lock = self.park.lock().unwrap();
            self.unpark.notify_all();
        }
    }

    /// Puts a zero-backoff retry in `worker`'s LIFO slot, to be run next.
    pub fn push_slot(&self, worker: usize, unit: Unit) {
        let displaced = self.queues[worker].slot.lock().unwrap().replace(unit);
        if let Some(d) = displaced {
            // Only the owner writes its slot and it drains the slot before
            // dispatching, so this is unreachable; keep the unit anyway.
            self.queues[worker].deque.lock().unwrap().push_front(d);
        }
    }

    /// Parks a retry until `not_before` passes; any worker may then run it.
    pub fn push_delayed(&self, not_before: Instant, unit: Unit) {
        self.delayed.lock().unwrap().push(Reverse(Delayed { not_before, unit }));
        let _lock = self.park.lock().unwrap();
        self.unpark.notify_all();
    }

    /// The worker claim path: slot → own deque → due retry → injector chunk
    /// → steal. A `None` unit means there is nothing runnable right now;
    /// the steal accounting is returned either way.
    pub fn next_unit(&self, worker: usize, rng: &mut StealRng) -> (Option<Unit>, Steals) {
        let q = &self.queues[worker];
        if let Some(u) = q.slot.lock().unwrap().take() {
            return (Some(u), Steals::default());
        }
        if let Some(u) = q.deque.lock().unwrap().pop_front() {
            return (Some(u), Steals::default());
        }
        if let Some(u) = self.pop_due_retry() {
            return (Some(u), Steals::default());
        }
        if let Some(u) = self.claim_chunk(worker) {
            return (Some(u), Steals::default());
        }
        self.steal(worker, rng)
    }

    /// Pops the earliest delayed retry if its not-before has passed.
    fn pop_due_retry(&self) -> Option<Unit> {
        let mut delayed = self.delayed.lock().unwrap();
        if delayed.peek().is_some_and(|Reverse(d)| d.not_before <= Instant::now()) {
            return delayed.pop().map(|Reverse(d)| d.unit);
        }
        None
    }

    /// Claims the next `chunk` input indices from the injector: the first
    /// is returned to run now, the rest land at the back of the worker's
    /// own deque (where thieves can take them).
    fn claim_chunk(&self, worker: usize) -> Option<Unit> {
        let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.n {
            return None;
        }
        let end = (start + self.chunk).min(self.n);
        obs_event!("engine.queue.depth", (self.n - end) as u64);
        if end > start + 1 {
            let mut deque = self.queues[worker].deque.lock().unwrap();
            deque.extend((start + 1..end).map(Unit::fresh));
            obs_event!("engine.queue.local_depth", deque.len() as u64);
        }
        Some(Unit::fresh(start))
    }

    /// One stealing round: up to `threads − 1` victims in seeded-random
    /// order; on a hit, takes the back half of the victim's deque (runs the
    /// first stolen unit, queues the rest locally). The attempt/hit counts
    /// are returned either way so the caller can fold them into the stats.
    fn steal(&self, thief: usize, rng: &mut StealRng) -> (Option<Unit>, Steals) {
        let threads = self.queues.len();
        let mut steals = Steals::default();
        for _ in 0..threads.saturating_sub(1) {
            let victim = (rng.next() % threads as u64) as usize;
            if victim == thief {
                continue;
            }
            steals.attempts += 1;
            obs_count!("engine.steal.attempts");
            let mut stolen = {
                let mut v = self.queues[victim].deque.lock().unwrap();
                let len = v.len();
                if len == 0 {
                    continue;
                }
                v.split_off(len - len.div_ceil(2))
            };
            steals.hits += 1;
            obs_count!("engine.steal.hits");
            let first = stolen.pop_front().expect("stole at least one unit");
            if !stolen.is_empty() {
                let mut deque = self.queues[thief].deque.lock().unwrap();
                deque.append(&mut stolen);
                obs_event!("engine.queue.local_depth", deque.len() as u64);
            }
            return (Some(first), steals);
        }
        (None, steals)
    }

    /// Blocks until new work may exist: a notify, the earliest not-before
    /// coming due, or the 1 ms cap — whichever is first.
    pub fn park(&self) {
        let timeout = {
            let delayed = self.delayed.lock().unwrap();
            match delayed.peek() {
                Some(Reverse(d)) => {
                    let until = d.not_before.saturating_duration_since(Instant::now());
                    if until.is_zero() {
                        return; // due already — go claim it
                    }
                    until.min(PARK_CAP)
                }
                None => PARK_CAP,
            }
        };
        let lock = self.park.lock().unwrap();
        if self.is_done() {
            return;
        }
        let _ = self.unpark.wait_timeout(lock, timeout).unwrap();
    }
}

/// Steal accounting for one claim: attempts made and hits landed.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Steals {
    /// Victim probes made.
    pub attempts: usize,
    /// Probes that yielded at least one unit.
    pub hits: usize,
}

/// The per-worker victim-selection RNG: a `splitmix64` stream seeded by the
/// worker index alone, so victim order is a pure function of
/// `(worker, probe count)` — reproducible across runs, no OS entropy.
pub(crate) struct StealRng(u64);

impl StealRng {
    /// The stream for `worker`.
    pub fn new(worker: usize) -> Self {
        StealRng(splitmix64(worker as u64 ^ 0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }
}
