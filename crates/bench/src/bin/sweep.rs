//! `sweep` — dense, machine-readable data series behind the figures of
//! `EXPERIMENTS.md`, as CSV on stdout.
//!
//! ```text
//! cargo run --release -p pobp-bench --bin sweep -- kbas-loss   > kbas_loss.csv
//! cargo run --release -p pobp-bench --bin sweep -- fig4-price  > fig4_price.csv
//! cargo run --release -p pobp-bench --bin sweep -- lsa-price   > lsa_price.csv
//! cargo run --release -p pobp-bench --bin sweep -- k0-price    > k0_price.csv
//! cargo run --release -p pobp-bench --bin sweep -- switch-cost > switch_cost.csv
//! cargo run --release -p pobp-bench --bin sweep -- choose-k    > choose_k.csv
//! cargo run --release -p pobp-bench --bin sweep -- all --markdown
//! ```
//!
//! Several selectors run their series in the table order below, each under
//! a `# name` line, as `all` (or no selector) does. An unknown selector or
//! flag is an error before any series runs.

use pobp_bench::report::{num, Table};
use pobp_bench::{geo_mean, lax_workload, small_workload};
use pobp_core::cli::{has_flag, positionals};
use pobp_core::{Job, JobId, JobSet};
use pobp_forest::{tm, LowerBoundTree};
use pobp_instances::{Fig2Instance, Fig4Instance};
use pobp_sched::{edf_feasible, opt_nonpreemptive, opt_unbounded, lsa_cs, schedule_k0};
use pobp_sim::{execute_online, Policy, SimConfig};

/// One sweep entry: selector name, table builder.
type Sweep = (&'static str, fn() -> Table);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selectors = positionals(&args, &[], &["--markdown"]).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let markdown = has_flag(&args, "--markdown");
    let sweeps: &[Sweep] = &[
        ("kbas-loss", sweep_kbas_loss),
        ("fig4-price", sweep_fig4_price),
        ("lsa-price", sweep_lsa_price),
        ("k0-price", sweep_k0_price),
        ("switch-cost", sweep_switch_cost),
        ("choose-k", sweep_choose_k),
    ];
    let known = |s: &str| s == "all" || sweeps.iter().any(|(name, _)| *name == s);
    if let Some(unknown) = selectors.iter().find(|s| !known(s)) {
        let names: Vec<&str> = sweeps.iter().map(|(name, _)| *name).collect();
        eprintln!("error: unknown sweep {unknown:?} (expected {} or all)", names.join(", "));
        std::process::exit(1);
    }
    let all = selectors.is_empty() || selectors.contains(&"all");
    let chosen: Vec<&Sweep> =
        sweeps.iter().filter(|(name, _)| all || selectors.contains(name)).collect();
    for (name, f) in &chosen {
        if chosen.len() > 1 {
            println!("# {name}");
        }
        let t = f();
        if markdown {
            print!("{}", t.to_markdown());
        } else {
            print!("{}", t.to_csv());
        }
    }
}

/// k-BAS loss on the Appendix A tree: one point per (k, L).
fn sweep_kbas_loss() -> Table {
    let mut t = Table::new(["k", "L", "n", "measured_loss", "closed_form", "half_l_plus_1"]);
    for k in 1..=4u32 {
        for depth in 1..=7u32 {
            let lb = LowerBoundTree::for_k(k, depth);
            if lb.node_count() > 2_500_000 {
                continue;
            }
            let f = lb.build();
            let res = tm(&f, k);
            t.push([
                num(k as f64),
                num(depth as f64),
                num(lb.node_count() as f64),
                num(f.total_value() / res.value),
                num(lb.expected_loss(k)),
                num((depth as f64 + 1.0) / 2.0),
            ]);
        }
    }
    t
}

/// Certified PoBP lower bound on the Figure 4 construction.
fn sweep_fig4_price() -> Table {
    let mut t = Table::new(["k", "L", "n", "P", "opt_inf", "opt_k_bound", "price"]);
    for k in 1..=3u32 {
        for depth in 1..=5u32 {
            let inst = Fig4Instance::for_k(k, depth);
            if inst.job_count() > 50_000 {
                continue;
            }
            let built = inst.build();
            let ids: Vec<JobId> = built.jobs.ids().collect();
            assert!(edf_feasible(&built.jobs, &ids));
            let upper = inst.opt_k_upper_bound(k);
            t.push([
                num(k as f64),
                num(depth as f64),
                num(inst.job_count() as f64),
                format!("{:e}", inst.length_ratio()),
                num(inst.opt_unbounded_value()),
                num(upper),
                num(inst.opt_unbounded_value() / upper),
            ]);
        }
    }
    t
}

/// LSA_CS price vs P on lax workloads (geo-mean over seeds).
fn sweep_lsa_price() -> Table {
    let mut t = Table::new(["k", "p_max", "geo_P", "geo_price", "worst_price"]);
    for k in 1..=3u32 {
        for &p_max in &[2i64, 4, 8, 16, 32, 64, 128, 256] {
            let mut prices = Vec::new();
            let mut ps = Vec::new();
            for seed in 0..15u64 {
                let (jobs, ids) = lax_workload(14, k, p_max, seed);
                let opt = opt_unbounded(&jobs, &ids);
                if opt.value == 0.0 {
                    continue;
                }
                let out = lsa_cs(&jobs, &ids, k);
                prices.push(opt.value / out.value(&jobs).max(f64::MIN_POSITIVE));
                ps.push(jobs.length_ratio().unwrap());
            }
            t.push([
                num(k as f64),
                num(p_max as f64),
                num(geo_mean(&ps)),
                num(geo_mean(&prices)),
                num(prices.iter().copied().fold(0.0, f64::max)),
            ]);
        }
    }
    t
}

/// k = 0 price: the Figure 2 exact staircase plus random-instance means.
fn sweep_k0_price() -> Table {
    let mut t = Table::new(["kind", "n", "P", "price", "bound_min_n_3log2P"]);
    for n in 2..=16u32 {
        let inst = Fig2Instance::new(n);
        let jobs = inst.build();
        let ids: Vec<JobId> = jobs.ids().collect();
        let opt0 = if n <= 16 { opt_nonpreemptive(&jobs, &ids).value } else { 1.0 };
        t.push([
            "fig2".into(),
            num(n as f64),
            num(inst.length_ratio()),
            num(n as f64 / opt0),
            num((n as f64).min(3.0 * inst.length_ratio().log2().max(1.0))),
        ]);
    }
    for &p_max in &[2i64, 8, 32, 128] {
        let mut prices = Vec::new();
        let mut bounds = Vec::new();
        let mut ps = Vec::new();
        for seed in 0..15u64 {
            let (jobs, ids) = small_workload(12, seed);
            // Re-scale lengths into the requested range.
            let jobs: JobSet = jobs
                .iter()
                .map(|(_, j)| {
                    let p = 1 + (j.length - 1) % p_max;
                    Job::new(j.release, j.release + (j.deadline - j.release).max(p), p, j.value)
                })
                .collect();
            let opt = opt_unbounded(&jobs, &ids);
            if opt.value == 0.0 {
                continue;
            }
            let alg = schedule_k0(&jobs, &ids);
            prices.push(opt.value / alg.value(&jobs).max(f64::MIN_POSITIVE));
            let p = jobs.length_ratio().unwrap();
            ps.push(p);
            bounds.push((jobs.len() as f64).min(3.0 * p.log2().max(1.0)));
        }
        t.push([
            "random".into(),
            "12".into(),
            num(geo_mean(&ps)),
            num(geo_mean(&prices)),
            num(geo_mean(&bounds)),
        ]);
    }
    t
}

/// The E12 crossover: value per policy per switch cost.
fn sweep_switch_cost() -> Table {
    let mut t = Table::new(["delta", "edf", "budget2", "budget1", "budget0"]);
    let mut jobs = JobSet::new();
    for i in 0..8i64 {
        jobs.push(Job::new(30 * i, 30 * i + 200, 40, 40.0));
    }
    for i in 0..30i64 {
        jobs.push(Job::new(12 * i, 12 * i + 8, 3, 3.0));
    }
    let ids: Vec<JobId> = jobs.ids().collect();
    for delta in 0..=10i64 {
        let run = |policy: Policy| {
            num(execute_online(&jobs, &ids, SimConfig { policy, switch_cost: delta })
                .value(&jobs))
        };
        t.push([
            num(delta as f64),
            run(Policy::Edf),
            run(Policy::EdfBudget(2)),
            run(Policy::EdfBudget(1)),
            run(Policy::EdfBudget(0)),
        ]);
    }
    t
}

/// The recommended preemption budget as a function of switch cost
/// (the `choose_k` API over the E12 workload).
fn sweep_choose_k() -> Table {
    let mut t = Table::new(["delta", "recommended_k", "replayed_value", "planned_value"]);
    let mut jobs = JobSet::new();
    for i in 0..8i64 {
        jobs.push(Job::new(30 * i, 30 * i + 200, 40, 40.0));
    }
    for i in 0..30i64 {
        jobs.push(Job::new(12 * i, 12 * i + 8, 3, 3.0));
    }
    let ids: Vec<JobId> = jobs.ids().collect();
    let inf = pobp_sched::greedy_unbounded(&jobs, &ids);
    // The greedy reference is an EDF output, its own laminarization.
    let plan = pobp_sched::ReductionPlan::from_edf(&jobs, &inf.schedule);
    for delta in 0..=10i64 {
        let table = pobp_sim::choose_k(&jobs, &plan, delta, 4);
        let choice = table.chosen();
        t.push([
            num(delta as f64),
            num(choice.k as f64),
            num(choice.replayed_value),
            num(choice.planned_value),
        ]);
    }
    t
}
