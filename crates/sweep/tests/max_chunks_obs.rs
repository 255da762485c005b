//! `--max-chunks` plans no chunk past its budget, pinned by the
//! `instances.random.jobs_generated` counter: a chunk the invocation will
//! not record is never expanded, so its instances are never generated.
//!
//! A test binary of its own, so no other test's batch lands in the obs
//! window. Compiles (and runs) only with `--features instrument`:
//!
//! ```text
//! cargo test -p pobp-sweep --features instrument --test max_chunks_obs
//! ```
#![cfg(feature = "instrument")]

use std::fs;

use pobp_core::obs;
use pobp_engine::{Algo, EngineConfig};
use pobp_sweep::{run_sweep, SweepConfig, SweepSpec};

fn cfg(spec: &SweepSpec, resume: bool) -> SweepConfig {
    SweepConfig {
        spec: spec.clone(),
        engine: EngineConfig { threads: 2, ..EngineConfig::default() },
        resume,
        max_chunks: Some(1),
    }
}

/// Jobs generated by expanding chunks `0..chunks` of `spec`.
fn jobs_of(spec: &SweepSpec, chunks: usize) -> u64 {
    let plan = spec.chunks();
    plan[..chunks].iter().flat_map(|c| &c.cells).map(|&(n, _)| n as u64).sum()
}

#[test]
fn max_chunks_expands_only_the_chunks_it_verifies_or_records() {
    let _window = obs::exclusive();
    // 10 cells at 2 per chunk: 5 chunks of 12, 12, 14, 16 and 16 jobs.
    let spec = SweepSpec {
        ns: vec![6, 8],
        ks: vec![0, 1, 2],
        seeds: (0..5).collect(),
        algo: Algo::Reduction,
        machines: 1,
        exact_ref: false,
        chunk_cells: 2,
    };
    assert_eq!(spec.chunks().len(), 5);
    let dir = std::env::temp_dir().join(format!("pobp-max-chunks-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    let generated = |resume: bool| {
        obs::reset();
        let out = run_sweep(&dir, &cfg(&spec, resume)).unwrap();
        (out, obs::snapshot().counter("instances.random.jobs_generated"))
    };
    // A fresh run records chunk 0 and expands nothing after it.
    let (out, jobs) = generated(false);
    assert_eq!(out.chunks_completed, 1);
    assert_eq!(jobs, jobs_of(&spec, 1));
    // A resume re-plans chunk 0 to verify its key, records chunk 1, and
    // stops there.
    let (out, jobs) = generated(true);
    assert_eq!((out.chunks_skipped, out.chunks_completed), (1, 1));
    assert_eq!(jobs, jobs_of(&spec, 2));
    let (out, jobs) = generated(true);
    assert_eq!((out.chunks_skipped, out.chunks_completed), (2, 1));
    assert_eq!(jobs, jobs_of(&spec, 3));
    assert!(out.merged.is_none());
    fs::remove_dir_all(&dir).unwrap();
}
