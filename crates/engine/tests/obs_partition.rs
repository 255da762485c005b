//! The obs acceptance criterion, in a test binary of its own: the engine's
//! counters are process-global, so a batch run by any concurrently running
//! test would land in the measured window.

#![cfg(feature = "instrument")]

use std::time::Duration;

use pobp_core::obs;
use pobp_engine::{run_batch, Algo, EngineConfig, GridSpec, SolveTask};

/// With the feature on, the engine's terminal counters sum to the grid size.
#[test]
fn obs_counters_partition_the_batch() {
    let mut tasks = GridSpec::new(vec![6, 10], vec![0, 1, 2], vec![0, 1], Algo::Reduction).tasks();
    let mut bad = SolveTask::new(tasks[0].instance.clone(), 1, Algo::PanicForTest);
    bad.label = "boom".into();
    tasks.push(bad);
    let total = tasks.len() as u64;
    let cfg = EngineConfig {
        threads: 4,
        max_retries: 1,
        backoff: Duration::from_millis(1),
        ..EngineConfig::default()
    };
    let (_, snap) = obs::measure(|| run_batch(&tasks, cfg));
    let sum = snap.counter("engine.tasks.run")
        + snap.counter("engine.tasks.cached")
        + snap.counter("engine.tasks.panicked")
        + snap.counter("engine.tasks.timed_out")
        + snap.counter("engine.tasks.cancelled");
    assert_eq!(sum, total);
    // Every emitted output was certified exactly once.
    assert_eq!(
        snap.counter("engine.cert.ok"),
        snap.counter("engine.tasks.run") + snap.counter("engine.tasks.cached")
    );
    assert_eq!(snap.counter("engine.cert.failed"), 0);
    assert_eq!(snap.counter("engine.tasks.panicked"), 1);
    assert_eq!(snap.counter("engine.tasks.retried"), 1);
    assert!(snap.events.contains_key("engine.queue.depth"));
    assert!(snap.events.contains_key("engine.worker.busy_us"));
}
