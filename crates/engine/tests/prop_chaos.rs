//! The chaos determinism contract, property-tested: a fault-injected sweep
//! replays **byte-identically** across thread counts for any seed, because
//! every injection decision is a pure hash of `(seed, site, task key)` —
//! including runs where faults land as `Degraded` and `CertFailed` rows.

use std::sync::Arc;

use proptest::prelude::*;

use pobp_engine::{Algo, Engine, EngineConfig, FaultPlan, FaultSite, GridSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn chaos_sweeps_are_byte_identical_across_thread_counts(
        seed in 0u64..10_000,
        ns in proptest::collection::vec(4usize..12, 1..=2),
        ks in proptest::collection::vec(0u32..3, 1..=2),
        degrade in AnyBool,
    ) {
        let tasks = GridSpec::new(ns, ks, vec![0, 1], Algo::Reduction).tasks();
        let run = |threads: usize| {
            let plan = FaultPlan::new(seed)
                .with_rate(FaultSite::Panic, 0.2)
                .with_rate(FaultSite::Flaky, 0.2)
                .with_rate(FaultSite::SpuriousCancel, 0.2)
                .with_rate(FaultSite::ForcedDeadline, 0.2)
                .with_rate(FaultSite::CorruptRef, 0.2);
            let cfg = EngineConfig {
                threads,
                max_retries: 1,
                backoff: std::time::Duration::from_millis(1),
                degrade,
                ..EngineConfig::default()
            };
            Engine::new(EngineConfig { chaos: Some(Arc::new(plan)), ..cfg }).run_batch(&tasks)
        };
        let seq = run(1);
        let par = run(4);
        prop_assert_eq!(
            format!("{:#?}", seq.reports),
            format!("{:#?}", par.reports)
        );
        for s in [seq.stats, par.stats] {
            prop_assert_eq!(
                s.run + s.degraded + s.cert_failed + s.panicked + s.timed_out
                    + s.cancelled,
                s.tasks
            );
            // Integrity failures are never rescued; availability failures
            // always are when the ladder is armed (no PanicForTest here).
            if degrade {
                prop_assert_eq!(s.panicked + s.timed_out, 0);
            }
        }
    }
}
