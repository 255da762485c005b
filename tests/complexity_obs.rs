//! Complexity-regression tests backed by the `obs` counter layer.
//!
//! Each test pins an operation-count claim from `docs/algorithms.md` to the
//! counters emitted by the instrumented hot paths, across several instance
//! sizes. They compile (and run) only with `--features instrument`:
//!
//! ```text
//! cargo test --features instrument --test complexity_obs
//! ```
//!
//! All counter reads go through [`pobp::obs::measure`], which serialises
//! access to the global registry — the test binary runs tests on parallel
//! threads, and counters are process-global.
#![cfg(feature = "instrument")]

use pobp::obs;
use pobp::prelude::*;

/// Seeded mixed-laxity workload (same family as EXPERIMENTS.md E4).
fn workload(n: usize, seed: u64) -> (JobSet, Vec<JobId>) {
    let jobs = RandomWorkload {
        n,
        horizon: (n as i64) * 6,
        length_range: (1, 10),
        laxity: LaxityModel::Uniform { max: 4.0 },
        values: ValueModel::Uniform { max: 20 },
    }
    .generate(seed);
    let ids: Vec<JobId> = jobs.ids().collect();
    (jobs, ids)
}

/// `TM` is a single bottom-up pass: every node of the forest is visited
/// exactly once per run, and the top-k selection step runs at most once per
/// node — the O(n · E[select]) = O(n + Σ deg) claim in docs/algorithms.md.
#[test]
fn tm_visits_each_node_exactly_once() {
    for &(n, k) in &[(64usize, 1u32), (512, 1), (512, 3), (4096, 2)] {
        let forest = random_forest(n, 0.2, 7 + n as u64);
        let (_res, snap) = obs::measure(|| tm(&forest, k));
        assert_eq!(snap.counter("forest.tm.runs"), 1);
        assert_eq!(
            snap.counter("forest.tm.nodes_visited"),
            n as u64,
            "TM must visit each of the {n} nodes exactly once"
        );
        assert!(
            snap.counter("forest.tm.topk_selections") <= n as u64,
            "at most one top-k selection per node"
        );
    }
}

/// `LevelledContraction` peels ≤ `log_(k+1) n + 1` levels (Theorem 3.9's
/// iteration bound), scans each alive node once per level, and contracts
/// every node exactly once overall.
#[test]
fn contraction_levels_obey_log_bound() {
    for &(n, k) in &[(64usize, 1u32), (512, 1), (512, 2), (4096, 8)] {
        let forest = random_forest(n, 0.15, 11 + n as u64);
        let (res, snap) = obs::measure(|| levelled_contraction(&forest, k));
        let levels = snap.counter("forest.contraction.levels");
        assert_eq!(levels, res.levels.len() as u64, "counter mirrors the result");
        let bound = (n as f64).ln() / ((k + 1) as f64).ln() + 1.0;
        assert!(
            (levels as f64) <= bound + 1e-9,
            "n={n} k={k}: {levels} levels exceeds log_(k+1) n + 1 = {bound:.2}"
        );
        assert_eq!(
            snap.counter("forest.contraction.contracted_nodes"),
            n as u64,
            "every node is contracted exactly once"
        );
        assert!(
            snap.counter("forest.contraction.node_scans") <= levels * n as u64,
            "each level scans at most the whole forest"
        );
    }
}

/// EDF performs exactly one heap push per job, pops everything it pushes,
/// and emits at most `2n` segments on an unrestricted machine — so total
/// heap traffic is ≤ 2n = O(n + S) operations, each `O(log n)`, matching
/// the `O((n + S) log n)` claim. The iteration count obeys the exact
/// accounting identity of the main loop.
#[test]
fn edf_heap_ops_are_linear() {
    for &n in &[50usize, 200, 800] {
        let (jobs, ids) = workload(n, 3);
        let (_out, snap) = obs::measure(|| edf_schedule(&jobs, &ids, None));
        let push = snap.counter("sched.edf.heap_push");
        let pop = snap.counter("sched.edf.heap_pop");
        let segs = snap.counter("sched.edf.segments_emitted");
        assert_eq!(push, n as u64, "each job enters the ready heap exactly once");
        assert_eq!(pop, push, "every pushed job is eventually popped");
        assert!(
            segs <= 2 * n as u64,
            "n={n}: {segs} segments; unrestricted EDF emits ≤ 2n (every segment \
             ends at a completion or a release)"
        );
        // Every loop iteration ends in exactly one of: gap jump, idle jump,
        // abort, segment emission, or the single loop exit.
        let accounted = snap.counter("sched.edf.gap_jumps")
            + snap.counter("sched.edf.idle_jumps")
            + snap.counter("sched.edf.aborts")
            + segs
            + 1;
        assert_eq!(snap.counter("sched.edf.iterations"), accounted);
    }
}

/// Figure 1 / §4.1: `laminarize` re-runs availability-restricted EDF exactly
/// once per machine of the input schedule — no hidden extra EDF work.
#[test]
fn laminarize_runs_one_restricted_edf_per_machine() {
    for &m in &[1usize, 2, 4] {
        let (jobs, ids) = workload(60, 5);
        // The input's EDF runs stay inside the window too, out of other
        // tests' measurements.
        let _window = obs::exclusive();
        let schedule = iterative_multi_machine(&jobs, &ids, m, |jobs, ids| {
            edf_schedule(jobs, ids, None).schedule
        });
        let machines = schedule.machines().len() as u64;
        assert!(machines >= 1);
        obs::reset();
        let lam = laminarize(&jobs, &schedule).unwrap();
        let snap = obs::snapshot();
        assert_eq!(snap.counter("sched.laminarize.runs"), 1);
        assert_eq!(snap.counter("sched.laminarize.machines"), machines);
        assert_eq!(
            snap.counter("sched.edf.restricted_runs"),
            machines,
            "exactly one restricted EDF per machine"
        );
        assert_eq!(
            snap.counter("sched.edf.runs"),
            machines,
            "laminarize runs no unrestricted EDF at all"
        );
        assert!(is_laminar(&lam));
    }
}

/// Schema 2 of the JSON report (docs/observability.md): the report is
/// version-stamped and every event stat carries `p50`/`p90`/`p99`
/// histogram quantiles alongside count/sum/min/max.
#[test]
fn report_json_carries_schema_2_quantiles() {
    let (_out, snap) = obs::measure(|| {
        let (jobs, ids) = workload(120, 13);
        lsa_cs(&jobs, &ids, 2)
    });
    // The measured window recorded at least one event distribution…
    let (name, ev) = snap
        .events
        .iter()
        .next()
        .expect("lsa_cs records event stats (e.g. class sizes)");
    assert!(ev.count > 0, "{name} recorded no samples");
    // …whose quantiles are monotone and bracketed by min/max (the log₂
    // histogram guarantees ≤ 2× relative error, so a loose bracket holds).
    let (p50, p90, p99) = (ev.quantile(0.50), ev.quantile(0.90), ev.quantile(0.99));
    assert!(p50 <= p90 && p90 <= p99, "{name}: quantiles not monotone");
    assert!(p99 <= 2.0 * ev.max as f64, "{name}: p99 {p99} above bucket ceiling");
    assert!(p50 >= ev.min as f64 / 2.0, "{name}: p50 {p50} below bucket floor");
    // The serialized snapshot is version-stamped and carries the fields.
    let json = snap.to_json();
    assert!(json.contains(&format!("\"schema\": {}", obs::SCHEMA_VERSION)));
    assert_eq!(obs::SCHEMA_VERSION, 2);
    for key in ["\"p50\":", "\"p90\":", "\"p99\":"] {
        assert!(json.contains(key), "report missing {key}: {json}");
    }
}

/// The Theorem 4.2 reduction runs its four stages exactly once per call,
/// and its laminarization stage inherits the one-EDF-per-machine bound.
#[test]
fn reduction_stages_fire_once_per_run() {
    let (jobs, ids) = workload(40, 9);
    let _window = obs::exclusive(); // as above, for the base schedule's EDF run
    let base = edf_schedule(&jobs, &ids, None).schedule;
    obs::reset();
    reduce_to_k_bounded(&jobs, &base, 1).unwrap();
    let snap = obs::snapshot();
    assert_eq!(snap.counter("sched.reduction.runs"), 1);
    for stage in [
        "sched.reduction.time.laminarize",
        "sched.reduction.time.forest",
        "sched.reduction.time.kbas",
        "sched.reduction.time.reconstruct",
    ] {
        let t = snap.timers.get(stage).unwrap_or_else(|| panic!("missing timer {stage}"));
        assert_eq!(t.spans, 1, "{stage} must run exactly once");
    }
    assert_eq!(snap.counter("sched.laminarize.machines"), 1);
    assert_eq!(snap.counter("sched.edf.restricted_runs"), 1);
}
