//! The instance **zoo**: one named generator per workload family, behind a
//! single `(family, n, k, seed) → JobSet` entry point.
//!
//! The zoo exists so that cross-cutting experiments — `pobp online`, the
//! `e13` competitive-ratio lab, future serve-mode scenarios — can sweep
//! *every* workload shape the repository knows about through one axis
//! instead of hand-wiring each generator. The families:
//!
//! * [`ZooFamily::Periodic`] — a seeded periodic task set unrolled over a
//!   horizon sized so the unrolling yields ≈ `n` jobs (the workload of the
//!   limited-preemption literature; [`TaskSet`]);
//! * [`ZooFamily::Bursty`] — release bursts of tight jobs separated by
//!   gaps ([`bursty_workload`]), the adversarial shape for non-preemptive
//!   and budgeted policies;
//! * [`ZooFamily::Fig2`] — the §5 geometric-nesting lower bound for
//!   `k = 0` ([`Fig2Instance`]; deterministic, ignores `seed`);
//! * [`ZooFamily::Fig4`] — the Appendix B nested K-ary lower bound for
//!   general `k` ([`Fig4Instance::for_k`]; deterministic, ignores `seed`;
//!   depth chosen as the largest that stays within ≈ `n` jobs);
//! * [`ZooFamily::Random`] — the standard seeded random workload
//!   ([`RandomWorkload::standard`]).
//!
//! Every family is a pure function of its `(n, k, seed)` cell, so zoo
//! sweeps inherit the engine's determinism contract for free.

use pobp_core::JobSet;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::{
    bursty_workload, fig4_size, Fig2Instance, Fig4Instance, PeriodicTask, RandomWorkload, TaskSet,
};

/// A named workload family of the instance zoo.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ZooFamily {
    /// Seeded periodic task set, unrolled to ≈ `n` jobs.
    Periodic,
    /// Bursts of tight jobs separated by idle gaps.
    Bursty,
    /// Figure 2 (§5): geometric nesting, the `k = 0` lower bound.
    Fig2,
    /// Figure 4 (Appendix B): nested K-ary jobs, the general-`k` lower
    /// bound (`K = 2·max(k, 1)`).
    Fig4,
    /// The standard seeded random workload.
    Random,
}

/// Every family, in the canonical sweep order.
pub const ZOO_FAMILIES: [ZooFamily; 5] = [
    ZooFamily::Periodic,
    ZooFamily::Bursty,
    ZooFamily::Fig2,
    ZooFamily::Fig4,
    ZooFamily::Random,
];

impl ZooFamily {
    /// The stable lowercase name used by CLIs and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            ZooFamily::Periodic => "periodic",
            ZooFamily::Bursty => "bursty",
            ZooFamily::Fig2 => "fig2",
            ZooFamily::Fig4 => "fig4",
            ZooFamily::Random => "random",
        }
    }

    /// Parses [`ZooFamily::name`] back into a variant.
    pub fn parse(s: &str) -> Option<ZooFamily> {
        ZOO_FAMILIES.iter().copied().find(|f| f.name() == s)
    }
}

impl std::fmt::Display for ZooFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A zoo cell that cannot be built: the size field at fault and the rule
/// it breaks. Displays as `"{field} {reason}"`, e.g. `n must be in 1..=62
/// for family fig2 (got 64)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellSizeError {
    /// The field at fault: `"n"` or `"k"`.
    pub field: &'static str,
    /// The rule the value breaks, with the value given.
    pub reason: String,
}

impl std::fmt::Display for CellSizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.field, self.reason)
    }
}

/// Checks that the `(family, n, k)` cell can be built within `max_jobs`
/// jobs, before anything is generated: every front end that takes a cell
/// from a user (`JobSpec::from_json` in the daemon, `pobp online`,
/// `pobp gen`) calls this first, so an impossible cell is a named error
/// instead of a panic.
///
/// * [`ZooFamily::Fig2`] lengths go up to `2^(n−1)`, so it needs
///   `1 ≤ n ≤ 62`.
/// * [`ZooFamily::Fig4`] never goes below depth 1, which has
///   `1 + 2·max(k, 1)` jobs whatever `n` is: that smallest instance must
///   build ([`fig4_size`]) and fit `max_jobs`.
///
/// The other families land near `n` jobs and have no rule here.
pub fn check_zoo_cell(
    family: ZooFamily,
    n: usize,
    k: u32,
    max_jobs: usize,
) -> Result<(), CellSizeError> {
    match family {
        ZooFamily::Fig2 if !(1..=62).contains(&n) => Err(CellSizeError {
            field: "n",
            reason: format!("must be in 1..=62 for family fig2 (got {n})"),
        }),
        ZooFamily::Fig4 => {
            let reason = match fig4_size(k, 1) {
                Ok(jobs) if jobs <= max_jobs as u128 => return Ok(()),
                Ok(jobs) => format!(
                    "too large for family fig4: its smallest instance has {jobs} jobs, \
                     over the cap of {max_jobs} (got {k})"
                ),
                Err(rule) => format!("too large for family fig4: {rule} (got {k})"),
            };
            Err(CellSizeError { field: "k", reason })
        }
        _ => Ok(()),
    }
}

/// Builds the zoo instance of one `(family, n, k, seed)` cell.
///
/// `n` is a size *target*: the structured families (periodic, fig4) land on
/// the nearest size their construction admits. `k` only shapes
/// [`ZooFamily::Fig4`] (its branching factor is `2·max(k, 1)`); `seed` only
/// shapes the seeded families (periodic, bursty, random). The result is a
/// pure function of the four arguments.
///
/// # Panics
/// Panics on a cell [`check_zoo_cell`] refuses at every job cap (fig2 with
/// `n > 62`, fig4 with lengths past `i64`).
pub fn zoo_instance(family: ZooFamily, n: usize, k: u32, seed: u64) -> JobSet {
    let n = n.max(1);
    match family {
        ZooFamily::Periodic => periodic_zoo(n, seed),
        ZooFamily::Bursty => bursty_zoo(n, seed),
        ZooFamily::Fig2 => Fig2Instance::new(n as u32).build(),
        ZooFamily::Fig4 => fig4_zoo(n, k),
        ZooFamily::Random => RandomWorkload::standard(n).generate(seed),
    }
}

/// A seeded task set (3–4 tasks, periods from a harmonic menu, constrained
/// deadlines) unrolled over a horizon sized so ≈ `n` jobs are released.
fn periodic_zoo(n: usize, seed: u64) -> JobSet {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_2e00);
    let menu: [i64; 4] = [6, 8, 12, 24];
    let task_count = 3 + (seed as usize % 2);
    let mut tasks = Vec::with_capacity(task_count);
    for i in 0..task_count {
        let period = menu[rng.random_range(0..menu.len())];
        let wcet = rng.random_range(1..=(period / 3).max(1));
        let deadline = rng.random_range(wcet..=period);
        tasks.push(PeriodicTask {
            wcet,
            period,
            deadline,
            value: (1 + i as i64) as f64,
            offset: rng.random_range(0..period),
        });
    }
    let set = TaskSet::new(tasks);
    // Jobs released per tick is Σ 1/T_i; size the horizon to hit ≈ n jobs.
    let rate: f64 = set.tasks.iter().map(|t| 1.0 / t.period as f64).sum();
    let horizon = ((n as f64 / rate).ceil() as i64).max(1);
    set.unroll(horizon).0
}

/// Seeded burst parameters: ≈ `n` tight jobs in bursts of 2–4.
fn bursty_zoo(n: usize, seed: u64) -> JobSet {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb00_57ed);
    let per_burst = rng.random_range(2..=4usize);
    let bursts = n.div_ceil(per_burst).max(1);
    let length = rng.random_range(2..=5i64);
    // Gaps shorter than a full burst keep adjacent bursts contending.
    let gap = rng.random_range(1..=length * per_burst as i64);
    bursty_workload(bursts, per_burst, length, gap)
}

/// The deepest Figure 4 construction whose job count stays ≤ `max(n, 3)`
/// and whose scaled lengths stay well inside `i64`.
fn fig4_zoo(n: usize, k: u32) -> JobSet {
    let k = k.max(1);
    let branching = 2 * k;
    // Lengths are (3K−1)·(3K²)^depth; keep the exponent safely inside i64.
    let base = 3.0 * (branching as f64) * (branching as f64);
    let depth_cap = (60.0 / base.log2()).floor() as u32;
    let mut depth = 1u32;
    while depth < depth_cap && Fig4Instance::for_k(k, depth + 1).job_count() <= n.max(3) {
        depth += 1;
    }
    Fig4Instance::for_k(k, depth.min(depth_cap.max(1))).build().jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for f in ZOO_FAMILIES {
            assert_eq!(ZooFamily::parse(f.name()), Some(f));
        }
        assert_eq!(ZooFamily::parse("nope"), None);
    }

    #[test]
    fn every_family_is_deterministic_and_nonempty() {
        for f in ZOO_FAMILIES {
            for &(n, k, seed) in &[(8usize, 1u32, 0u64), (16, 2, 3), (5, 0, 7)] {
                let a = zoo_instance(f, n, k, seed);
                let b = zoo_instance(f, n, k, seed);
                assert_eq!(a, b, "{f} not deterministic at n={n} k={k} seed={seed}");
                assert!(!a.is_empty(), "{f} empty at n={n} k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn seeds_vary_the_seeded_families() {
        for f in [ZooFamily::Periodic, ZooFamily::Bursty, ZooFamily::Random] {
            let differs = (1..6u64).any(|s| zoo_instance(f, 12, 1, s) != zoo_instance(f, 12, 1, 0));
            assert!(differs, "{f} ignores its seed");
        }
    }

    #[test]
    fn sizes_track_the_target() {
        for f in ZOO_FAMILIES {
            for n in [4usize, 10, 24] {
                let jobs = zoo_instance(f, n, 2, 1);
                assert!(
                    jobs.len() <= 3 * n + 4,
                    "{f} overshoots: asked {n}, got {}",
                    jobs.len()
                );
            }
        }
    }

    #[test]
    fn cell_check_names_the_field_and_admits_what_builds() {
        let err = check_zoo_cell(ZooFamily::Fig2, 63, 1, usize::MAX).unwrap_err();
        assert_eq!(err.field, "n");
        assert!(err.to_string().starts_with("n must be in 1..=62"), "{err}");
        assert_eq!(check_zoo_cell(ZooFamily::Fig2, 0, 1, usize::MAX).unwrap_err().field, "n");
        for n in [1, 62] {
            assert_eq!(check_zoo_cell(ZooFamily::Fig2, n, 1, usize::MAX), Ok(()));
            assert_eq!(zoo_instance(ZooFamily::Fig2, n, 1, 0).len(), n);
        }
        // Depth 1 has 1 + 2k jobs whatever n is: k = 2 fits a cap of 5,
        // not a cap of 4; a k whose branching would wrap u32 never fits.
        assert_eq!(check_zoo_cell(ZooFamily::Fig4, 3, 2, 5), Ok(()));
        assert_eq!(zoo_instance(ZooFamily::Fig4, 3, 2, 0).len(), 5);
        let err = check_zoo_cell(ZooFamily::Fig4, 3, 2, 4).unwrap_err();
        assert_eq!(err.field, "k");
        assert!(err.reason.contains("5 jobs"), "{err}");
        for k in [1 << 31, u32::MAX] {
            let err = check_zoo_cell(ZooFamily::Fig4, 8, k, usize::MAX).unwrap_err();
            assert!(err.field == "k" && err.reason.contains("overflow i64"), "{err}");
        }
        // Deeper cells, as `pobp gen` asks for them: at K = 2 the lengths
        // 5·12^L fit i64 up to depth 16, and the values 2^L stay exact.
        assert_eq!(fig4_size(1, 16), Ok((1 << 17) - 1));
        assert_eq!(Fig4Instance::for_k(1, 16).build().jobs.len(), (1 << 17) - 1);
        assert_eq!(fig4_size(1, 17), Err("its job lengths overflow i64"));
        assert_eq!(fig4_size(2, 30), Err("its values K^L exceed 2^53"));
        assert_eq!(fig4_size(1 << 31, 0), Err("its branching 2k overflows u32"));
        assert_eq!(fig4_size(0, 0), Ok(1));
        for f in [ZooFamily::Periodic, ZooFamily::Bursty, ZooFamily::Random] {
            assert_eq!(check_zoo_cell(f, 1_000_000, u32::MAX, 1), Ok(()));
        }
    }

    #[test]
    fn fig4_depth_respects_k_and_overflow_caps() {
        // Large k → huge branching; the depth cap must keep lengths finite.
        for k in [1u32, 2, 4, 8] {
            let jobs = zoo_instance(ZooFamily::Fig4, 40, k, 0);
            assert!(!jobs.is_empty());
            for (_, j) in jobs.iter() {
                assert!(j.length > 0 && j.deadline > j.release);
            }
        }
    }
}
