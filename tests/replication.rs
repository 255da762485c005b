//! Replication pinning: the exact numbers recorded in `EXPERIMENTS.md` are
//! deterministic (seeded workloads, integer arithmetic); this test suite
//! pins them so a regression in any algorithm shows up as a changed
//! experiment table, not just a changed benchmark.

use pobp::prelude::*;

/// E3: the Appendix A loss staircase (exact rational values).
#[test]
fn e3_loss_staircase() {
    // measured loss for L = 2, 4, 6 — identical for every k (closed form).
    let expect = [(2u32, 1.7143f64), (4, 2.5806), (6, 3.5276)];
    for k in 1..=3u32 {
        for &(depth, want) in &expect {
            let lb = LowerBoundTree::for_k(k, depth);
            if lb.node_count() > 100_000 {
                continue;
            }
            let f = lb.build();
            let res = tm(&f, k);
            let loss = f.total_value() / res.value;
            assert!(
                (loss - want).abs() < 5e-4,
                "k={k} L={depth}: loss {loss:.4} != recorded {want}"
            );
        }
    }
}

/// E5: the Figure 4 price table rows recorded in EXPERIMENTS.md.
#[test]
fn e5_fig4_price_rows() {
    // (k, L, n, OPT_inf, OPT_k, price)
    let rows = [
        (1u32, 3u32, 15usize, 32.0, 15.0, 2.133),
        (1, 5, 63, 192.0, 63.0, 3.048),
        (2, 5, 1365, 6144.0, 2016.0, 3.048),
        (3, 5, 9331, 46656.0, 15309.0, 3.048),
    ];
    for &(k, depth, n, opt_inf, opt_k, price) in &rows {
        let inst = Fig4Instance::for_k(k, depth);
        assert_eq!(inst.job_count(), n);
        assert_eq!(inst.opt_unbounded_value(), opt_inf);
        assert_eq!(inst.opt_k_upper_bound(k), opt_k);
        assert!((opt_inf / opt_k - price).abs() < 5e-4);
        // And the reduction achieves the bound exactly (the "bonus" note).
        let built = inst.build();
        let ids: Vec<JobId> = built.jobs.ids().collect();
        let inf = edf_schedule(&built.jobs, &ids, None);
        assert!(inf.is_feasible());
        let red = reduce_to_k_bounded(&built.jobs, &inf.schedule, k).unwrap();
        assert_eq!(red.schedule.value(&built.jobs), opt_k, "k={k} L={depth}");
    }
}

/// E8: the Figure 2 staircase rows.
#[test]
fn e8_fig2_rows() {
    for (n, p) in [(6u32, 32.0f64), (10, 512.0), (14, 8192.0)] {
        let inst = Fig2Instance::new(n);
        assert_eq!(inst.length_ratio(), p);
        let jobs = inst.build();
        let ids: Vec<JobId> = jobs.ids().collect();
        assert!(edf_feasible(&jobs, &ids));
        let opt0 = opt_nonpreemptive(&jobs, &ids);
        assert_eq!(opt0.value, 1.0);
        let alg = schedule_k0(&jobs, &ids);
        assert_eq!(alg.value(&jobs), 1.0);
        assert_eq!(n as f64 / opt0.value, p.log2() + 1.0);
    }
}

/// E12: the switch-cost crossover table (the exact staircase of winners).
#[test]
fn e12_crossover_rows() {
    let mut jobs = JobSet::new();
    for i in 0..8i64 {
        jobs.push(Job::new(30 * i, 30 * i + 200, 40, 40.0));
    }
    for i in 0..30i64 {
        jobs.push(Job::new(12 * i, 12 * i + 8, 3, 3.0));
    }
    let ids: Vec<JobId> = jobs.ids().collect();
    let run = |policy: Policy, delta: i64| {
        execute_online(&jobs, &ids, SimConfig { policy, switch_cost: delta }).value(&jobs)
    };
    // The recorded table: (δ, edf, k2, k1, k0).
    let rows = [
        (0i64, 410.0, 386.0, 359.0, 338.0),
        (1, 330.0, 371.0, 359.0, 338.0),
        (2, 210.0, 294.0, 347.0, 326.0),
        (4, 130.0, 276.0, 304.0, 323.0),
    ];
    for &(delta, edf, k2, k1, k0) in &rows {
        assert_eq!(run(Policy::Edf, delta), edf, "δ={delta} edf");
        assert_eq!(run(Policy::EdfBudget(2), delta), k2, "δ={delta} k2");
        assert_eq!(run(Policy::EdfBudget(1), delta), k1, "δ={delta} k1");
        assert_eq!(run(Policy::EdfBudget(0), delta), k0, "δ={delta} k0");
    }
}

/// E4 (seeded): the small-instance reduction prices are reproducible.
#[test]
fn e4_reduction_seeded_prices() {
    // Recompute the k = 1 geo-mean price over the same 20 seeds and pin it.
    // The pinned value is defined by the vendored deterministic RNG stream
    // (vendor/rand, SplitMix64); regenerate with `cargo run --release
    // --example e4_table` if the stream or workload model changes.
    let mut prices = Vec::new();
    for seed in 0..20u64 {
        let jobs = RandomWorkload {
            n: 14,
            horizon: 40,
            length_range: (1, 12),
            laxity: LaxityModel::Uniform { max: 4.0 },
            values: ValueModel::Uniform { max: 20 },
        }
        .generate(seed);
        let ids: Vec<JobId> = jobs.ids().collect();
        let opt = opt_unbounded(&jobs, &ids);
        if opt.value == 0.0 {
            continue;
        }
        let red = reduce_to_k_bounded(&jobs, &opt.schedule, 1).unwrap();
        prices.push(opt.value / red.schedule.value(&jobs));
    }
    let geo = (prices.iter().map(|p: &f64| p.ln()).sum::<f64>() / prices.len() as f64).exp();
    assert!(
        (geo - 1.122).abs() < 5e-3,
        "E4 k=1 geo-mean price drifted: {geo:.4} (recorded 1.122)"
    );
}

/// E1: round-robin interleaving counts are exactly as recorded.
#[test]
fn e1_round_robin_rows() {
    for n in [6usize, 12, 24] {
        let jobs = overlapping_block(n, 3, 4);
        let ids: Vec<JobId> = jobs.ids().collect();
        let rr = round_robin_schedule(&jobs, &ids);
        let max_segs = rr.scheduled_ids().map(|j| rr.preemptions(j) + 1).max().unwrap();
        assert_eq!(max_segs, 3, "n={n}");
        assert!(!is_laminar(&rr));
        let lam = laminarize(&jobs, &rr).unwrap();
        let max_after = lam.scheduled_ids().map(|j| lam.preemptions(j) + 1).max().unwrap();
        assert_eq!(max_after, 1, "n={n}");
        assert!(is_laminar(&lam));
        assert_eq!(lam.value(&jobs), rr.value(&jobs));
    }
}

/// E13: the online-arrival competitive-ratio table, row for row as
/// `experiments e13` prints it: per (family, algorithm), the geo-mean and
/// worst `oracle / online` ratio over the zoo grid n ∈ {8, 16},
/// k ∈ {1, 2}, seeds 0..3. The batch and its rows come from the
/// [`OnlineLab`] the harness runs, so each cell pairs the online runs with
/// the harness's own oracle rule.
#[test]
fn e13_online_ratio_rows() {
    // (family, algorithm, geo-mean ratio, worst ratio), as printed.
    let rows = [
        ("bursty", "online-djn", "1.000", "1.000"),
        ("bursty", "online-edf", "1.516", "1.714"),
        ("bursty", "online-greedy", "1.000", "1.000"),
        ("fig2", "online-djn", "11.314", "16.000"),
        ("fig2", "online-edf", "1.000", "1.000"),
        ("fig2", "online-greedy", "11.314", "16.000"),
        ("fig4", "online-djn", "1.648", "1.875"),
        ("fig4", "online-edf", "1.000", "1.000"),
        ("fig4", "online-greedy", "1.648", "1.875"),
        ("periodic", "online-djn", "1.050", "1.148"),
        ("periodic", "online-edf", "0.935", "1.000"),
        ("periodic", "online-greedy", "1.070", "1.154"),
        ("random", "online-djn", "1.137", "1.464"),
        ("random", "online-edf", "0.989", "1.391"),
        ("random", "online-greedy", "1.132", "1.377"),
    ];
    let lab = OnlineLab {
        families: ZOO_FAMILIES.to_vec(),
        ns: vec![8, 16],
        ks: vec![1, 2],
        seeds: (0..3).collect(),
        algs: vec![Algo::OnlineDjn, Algo::OnlineGreedy, Algo::OnlineEdf],
        exact_ref: false,
    };
    let tasks = lab.tasks();
    // The same pins at one and at four threads: the table is
    // thread-count invariant.
    for threads in [1, 4] {
        let cfg = EngineConfig { threads, degrade: true, ..EngineConfig::default() };
        let batch = Engine::new(cfg).run_batch(&tasks);
        let completed = batch.reports.iter().all(|r| r.result.output().is_some());
        assert!(completed, "every E13 task completes");
        let mut ratios: std::collections::BTreeMap<(&str, &str), Vec<f64>> = Default::default();
        for row in lab.rows(&tasks, &batch.reports) {
            let (ratio, bound) = (row.ratio.expect("online value is positive"), row.bound);
            assert!(ratio <= bound, "{}: ratio {ratio:.3} escapes {bound:.3}", row.report.label);
            ratios.entry((row.family.name(), row.alg.name())).or_default().push(ratio);
        }
        assert_eq!(ratios.len(), rows.len());
        for &(family, alg, geo, worst) in &rows {
            let rs = &ratios[&(family, alg)];
            assert_eq!(rs.len(), 12, "{family}/{alg}");
            let geo_mean = (rs.iter().map(|r| r.ln()).sum::<f64>() / rs.len() as f64).exp();
            let max = rs.iter().cloned().fold(0.0f64, f64::max);
            assert_eq!(format!("{geo_mean:.3}"), geo, "{threads} threads: {family}/{alg} geo-mean");
            assert_eq!(format!("{max:.3}"), worst, "{threads} threads: {family}/{alg} worst");
        }
    }
}
