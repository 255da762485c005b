//! The online lab's exact-oracle path: on cells small enough for
//! `opt_k_bounded_small`, every row's denominator is `OPT_k` itself, so
//! every ratio is a true competitive ratio and at least 1.

use pobp_core::JobId;
use pobp_engine::{run_batch, Algo, EngineConfig, OnlineLab};
use pobp_instances::{zoo_instance, ZooFamily};
use pobp_sched::opt_k_bounded_small;

#[test]
fn small_cells_use_the_exact_oracle_and_never_beat_it() {
    let lab = OnlineLab {
        families: vec![ZooFamily::Periodic, ZooFamily::Fig2],
        ns: vec![3, 4],
        ks: vec![0, 1, 2],
        seeds: vec![0, 1],
        algs: vec![Algo::OnlineDjn, Algo::OnlineGreedy, Algo::OnlineEdf],
        exact_ref: false,
    };
    let tasks = lab.tasks();
    let batch = run_batch(&tasks, EngineConfig { threads: 2, ..EngineConfig::default() });
    let rows = lab.rows(&tasks, &batch.reports);
    assert_eq!(rows.len(), 72);
    for row in &rows {
        let label = &row.report.label;
        let Some((oracle, "exact")) = row.oracle else {
            panic!("{label}: oracle {:?}, expected exact", row.oracle);
        };
        let instance = zoo_instance(row.family, row.n, row.k, row.seed);
        let ids: Vec<JobId> = instance.ids().collect();
        assert_eq!(oracle, opt_k_bounded_small(&instance, &ids, row.k), "{label}");
        let ratio = row.ratio.unwrap_or_else(|| panic!("{label}: no ratio"));
        assert!(ratio >= 1.0, "{label}: ratio {ratio} beats the exact OPT_k");
        assert!(ratio <= row.bound, "{label}: ratio {ratio} escapes {}", row.bound);
    }
}
