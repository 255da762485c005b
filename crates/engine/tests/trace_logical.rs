//! The logical-trace determinism contract (docs/observability.md): the
//! logical projection of an engine trace — ordering and phase transitions,
//! timestamps stripped — is **byte-identical** across thread counts, and
//! the Chrome spans are well-formed (balanced, properly nested) with the
//! task span dominated by its instrumented children.
//!
//! Runs in every build. Every test here records inside `trace::capture`,
//! so no batch of another test can land in its window.

use pobp_core::trace::{self, TraceEvent, TraceKind};
use pobp_engine::{run_batch, Algo, EngineConfig, GridSpec, SolveTask};
use pobp_instances::{zoo_instance, ZOO_FAMILIES};
use proptest::prelude::*;

/// Runs `tasks` through the pool at the given thread count inside an
/// exclusive trace window and returns the logical trace text.
fn logical_of(tasks: &[SolveTask], threads: usize, use_cache: bool) -> String {
    let cfg = EngineConfig {
        threads,
        max_retries: 1,
        backoff: std::time::Duration::from_millis(1),
        use_cache,
        ..EngineConfig::default()
    };
    let (_batch, events) = trace::capture(|| run_batch(tasks, cfg));
    trace::logical_text(&events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline acceptance test: `--threads 1` and `--threads 4`
    /// produce byte-identical logical traces, including with a panicking
    /// task in the middle of the batch, with the cache on (cache events
    /// are timing-class, so they never reach the logical projection), and
    /// with repeated grid values, which repeat whole tasks.
    #[test]
    fn logical_trace_is_thread_count_invariant(
        ns in proptest::collection::vec(4usize..12, 1..=2),
        ks in proptest::collection::vec(0u32..3, 1..=2),
        seeds in proptest::collection::vec(0u64..100, 1..=2),
        panic_at in 0usize..64,
        use_cache in AnyBool,
    ) {
        let grid = GridSpec::new(ns, ks, seeds, Algo::Reduction);
        let mut tasks = grid.tasks();
        let at = panic_at % tasks.len();
        let mut bad = SolveTask::new(tasks[at].instance.clone(), 1, Algo::PanicForTest);
        bad.label = format!("panic@{at}");
        tasks.insert(at, bad);

        let seq = logical_of(&tasks, 1, use_cache);
        let par = logical_of(&tasks, 4, use_cache);
        prop_assert!(!seq.is_empty());
        prop_assert_eq!(seq, par);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The logical projection of a steal-heavy schedule — a few large cells
    /// pinning their workers while a tail of tiny ones drains, plus a forced
    /// panic — is identical at every thread count: `(task, seq)` ordering
    /// erases which worker ran, or stole, each attempt.
    #[test]
    fn skewed_logical_traces_are_thread_count_invariant(
        big in 1usize..3,
        small_seeds in 4u64..10,
        panic_at in 0usize..64,
    ) {
        let mut tasks =
            GridSpec::new(vec![44], vec![2], (0..big as u64).collect(), Algo::Combined).tasks();
        let small = (0..small_seeds).collect();
        let tail = GridSpec::new(vec![4, 5], vec![0, 1], small, Algo::Reduction);
        tasks.extend(tail.tasks());
        let at = panic_at % tasks.len();
        let mut bad = SolveTask::new(tasks[at].instance.clone(), 1, Algo::PanicForTest);
        bad.label = format!("panic@{at}");
        tasks.insert(at, bad);

        let seq = logical_of(&tasks, 1, true);
        prop_assert!(!seq.is_empty());
        prop_assert_eq!(&seq, &logical_of(&tasks, 2, true));
        prop_assert_eq!(&seq, &logical_of(&tasks, 4, true));
    }
}

/// The logical projection of an online zoo sweep is byte-identical across
/// thread counts: the `online.*` instants fire inside the task span in
/// decision order, independent of scheduling. Two seeds, so the fig2/fig4
/// families (which ignore their seed) repeat tasks.
#[test]
fn online_logical_trace_is_thread_count_invariant() {
    let mut tasks = Vec::new();
    for family in ZOO_FAMILIES {
        for n in [5, 8] {
            for seed in [3, 4] {
                for k in [0, 1] {
                    let instance = zoo_instance(family, n, k, seed);
                    for algo in [Algo::OnlineDjn, Algo::OnlineGreedy, Algo::OnlineEdf] {
                        let mut t = SolveTask::new(instance.clone(), k, algo);
                        t.label = format!("{family} n={n} k={k} {}", algo.name());
                        tasks.push(t);
                    }
                }
            }
        }
    }
    let seq = logical_of(&tasks, 1, true);
    assert!(seq.contains("online."), "expected online.* instants in the logical trace:\n{seq}");
    assert_eq!(seq, logical_of(&tasks, 4, true));
}

/// A repeated task makes its own attempt: with the cache on, the third
/// entry of `[A, B, A]` traces exactly the lines of the first.
#[test]
fn a_repeated_task_traces_like_its_first_copy() {
    let grid = GridSpec::new(vec![10], vec![1], vec![0, 1], Algo::Reduction);
    let [a, b]: [SolveTask; 2] = grid.tasks().try_into().expect("two cells");
    let text = logical_of(&[a.clone(), b, a], 1, true);
    let lines_of = |task: usize| -> Vec<&str> {
        let prefix = format!("task {task} ");
        text.lines().filter_map(|l| l.strip_prefix(prefix.as_str())).collect()
    };
    let first = lines_of(0);
    assert!(first.contains(&"begin attempt"), "no attempt traced:\n{text}");
    assert_eq!(lines_of(2), first, "the repeat traced differently:\n{text}");
}

/// Every phase the pool emits shows up in the logical trace of a plain run.
#[test]
fn logical_trace_covers_the_lifecycle() {
    let grid = GridSpec::new(vec![10], vec![1], vec![0, 1], Algo::Reduction);
    let text = logical_of(&grid.tasks(), 2, true);
    for needle in ["task.enqueue", "begin task", "begin attempt", "cert.ok", "emit", "end task"] {
        assert!(text.contains(needle), "logical trace missing {needle:?}:\n{text}");
    }
    // Timing-class phases must NOT leak into the logical projection.
    for forbidden in ["cache.", "engine.solve.time", "engine.cert.time"] {
        assert!(!text.contains(forbidden), "timing phase {forbidden:?} leaked:\n{text}");
    }
}

/// Begin/End events are balanced and properly nested per worker: replaying
/// each worker's events in sequence order never pops a mismatched phase
/// and ends with an empty stack.
#[test]
fn spans_are_balanced_and_nested_per_worker() {
    let grid = GridSpec::new(vec![12, 20], vec![0, 2], vec![0, 1, 2], Algo::Combined);
    let cfg = EngineConfig { threads: 4, ..EngineConfig::default() };
    let (_batch, mut events) = trace::capture(|| run_batch(&grid.tasks(), cfg));
    events.sort_by_key(|e| (e.worker, e.seq));
    let mut stacks: std::collections::HashMap<u32, Vec<&'static str>> = Default::default();
    for e in &events {
        let stack = stacks.entry(e.worker).or_default();
        match e.kind {
            TraceKind::Begin => stack.push(e.phase),
            TraceKind::End => {
                let top = stack.pop();
                assert_eq!(top, Some(e.phase), "mismatched End on worker {}", e.worker);
            }
            TraceKind::Instant => {}
        }
    }
    for (worker, stack) in stacks {
        assert!(stack.is_empty(), "worker {worker} left open spans: {stack:?}");
    }
}

/// The task span is covered by its direct child spans: the instrumented
/// stages (attempt, degrade, …) account for most of each
/// task's wall-clock, so a Chrome trace of a sweep has no large opaque
/// gaps. The pool's per-task overhead outside any child span is bookkeeping
/// only; 80% is deliberately lenient to keep the test robust on loaded CI
/// machines (the interactive target is ≥95%, checked in CI on a real
/// sweep).
#[test]
fn task_spans_are_covered_by_child_spans() {
    // Large instances so solver time dominates harness noise.
    let grid = GridSpec::new(vec![120], vec![2], vec![0, 1], Algo::Combined);
    let cfg = EngineConfig { threads: 1, ..EngineConfig::default() };
    let (_batch, mut events) = trace::capture(|| run_batch(&grid.tasks(), cfg));
    events.sort_by_key(|e| (e.worker, e.seq));

    // Walk each worker's stream, tracking depth relative to the enclosing
    // "task" span; sum the durations of its direct children.
    let mut covered = 0.0f64;
    let mut total = 0.0f64;
    let mut per_worker: std::collections::HashMap<u32, Vec<&TraceEvent>> = Default::default();
    for e in &events {
        per_worker.entry(e.worker).or_default().push(e);
    }
    for stream in per_worker.values() {
        let mut stack: Vec<&TraceEvent> = Vec::new();
        for e in stream.iter() {
            match e.kind {
                TraceKind::Begin => stack.push(e),
                TraceKind::End => {
                    let begin = stack.pop().expect("balanced");
                    let dur = (e.ts_ns - begin.ts_ns) as f64;
                    if begin.phase == "task" {
                        total += dur;
                    } else if stack.last().is_some_and(|p| p.phase == "task") {
                        covered += dur;
                    }
                }
                TraceKind::Instant => {}
            }
        }
    }
    assert!(total > 0.0, "no task spans recorded");
    let ratio = covered / total;
    assert!(ratio >= 0.80, "task spans only {:.0}% covered by children", ratio * 100.0);
}

/// Chaos fault injection is part of the logical trace — and stays
/// deterministic across thread counts, because the fault plan draws from
/// the task key, not from scheduling order.
#[test]
fn chaotic_logical_trace_is_thread_count_invariant() {
    use pobp_engine::{Engine, FaultPlan, FaultSite};
    use std::sync::Arc;
    let grid = GridSpec::new(vec![8, 12], vec![0, 1, 2], vec![0, 1, 2], Algo::Reduction);
    let tasks = grid.tasks();
    let run = |threads: usize| {
        let plan = FaultPlan::new(7)
            .with_rate(FaultSite::Panic, 0.3)
            .with_rate(FaultSite::Flaky, 0.3)
            .with_rate(FaultSite::ForcedDeadline, 0.2)
            .with_rate(FaultSite::SpuriousCancel, 0.2);
        let cfg = EngineConfig {
            threads,
            max_retries: 2,
            backoff: std::time::Duration::from_millis(1),
            degrade: true,
            chaos: Some(Arc::new(plan)),
            ..EngineConfig::default()
        };
        let (_batch, events) = trace::capture(|| Engine::new(cfg).run_batch(&tasks));
        trace::logical_text(&events)
    };
    let seq = run(1);
    let par = run(4);
    assert!(seq.contains("chaos."), "expected chaos events in the logical trace:\n{seq}");
    assert_eq!(seq, par);
}
