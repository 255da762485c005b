//! The Figure 4 / Appendix B instance: the general lower bound
//! `PoBP_k = Ω(log_{k+1} n) = Ω(log_{k+1} P)` (Theorems 4.3 and 4.13).
//!
//! Construction (all integers; see the scaling note below):
//!
//! * `L + 1` levels `l = 0..=L`; level `l` holds `K^l` jobs
//!   (`K > k`, the theorems take `K = 2k`);
//! * value of a level-`l` job: `K^{-l}` — scaled by `K^L` to the integer
//!   `K^{L-l}`;
//! * length `p(l) = P·(3K²)^{-l}` — scaled by `(3K-1)·(3K²)^{-L}·…`, i.e.
//!   we *define* `p(l) = (3K-1)·(3K²)^{L-l}`, which makes both `p(l)/K` and
//!   `p(l)/(3K-1)` integers;
//! * relative laxity `λ = 1 + 1/(3K-1)` for every job, i.e.
//!   `d = r + p + p/(3K-1)`;
//! * the `m`-th job of level `l` has `K` *child jobs* at level `l+1` with
//!   release times `r(l+1, m') = r(l, m) + (m' - mK + 1)·p(l)/K − p(l+1)`
//!   for `mK ≤ m' ≤ (m+1)K − 1`, and `r(0,0) = 0`.
//!
//! Intended behaviour (Lemmas B.1, B.2): with unbounded preemption all
//! `L + 1` levels can be scheduled (`OPT_∞ = (L+1)·K^L` scaled); with only
//! `k` preemptions each job can host at most `k` of its child jobs, so
//! `OPT_k < K/(K−k)·K^L` (scaled) — `< 2·K^L` at `K = 2k` — and the price
//! grows as `Ω(L) = Ω(log_{k+1} P) = Ω(log_{k+1} n)`.

use pobp_core::{Job, JobId, JobSet, Time};

/// Builder for the Figure 4 instance.
#[derive(Clone, Copy, Debug)]
pub struct Fig4Instance {
    /// Branching factor `K` (> k; the theorems use `K = 2k`).
    pub branching: u32,
    /// `L`: levels are `0..=L`.
    pub depth: u32,
}

/// A Figure 4 instance together with its level structure.
#[derive(Clone, Debug)]
pub struct Fig4Built {
    /// The jobs; `level_of[j]` gives each job's level.
    pub jobs: JobSet,
    /// Level of each job (indexed by `JobId.0`).
    pub level_of: Vec<u32>,
    /// Ids grouped by level.
    pub by_level: Vec<Vec<JobId>>,
    /// The parent job of each job (`None` for the root job).
    pub parent_of: Vec<Option<JobId>>,
}

/// Fig4's size arithmetic for bound `k` at depth `L`, computed without
/// wrapping before anything is built: the job count of
/// `Fig4Instance::for_k(max(k, 1), L)`, or the rule that instance breaks,
/// which [`Fig4Instance::build`] would panic on. With `K = 2·max(k, 1)`,
/// in the order checked: the values `K^l` must stay below `2^53`, the
/// longest length `(3K−1)·(3K²)^L` must fit `i64`, and `K` must fit `u32`.
pub fn fig4_size(k: u32, depth: u32) -> Result<u128, &'static str> {
    let branching = 2 * u128::from(k.max(1));
    if branching.checked_pow(depth).is_none_or(|v| v >= 1 << 53) {
        return Err("its values K^L exceed 2^53");
    }
    let longest = (3 * branching * branching)
        .checked_pow(depth)
        .and_then(|p| p.checked_mul(3 * branching - 1));
    if longest.is_none_or(|p| p > i64::MAX as u128) {
        return Err("its job lengths overflow i64");
    }
    if branching > u128::from(u32::MAX) {
        return Err("its branching 2k overflows u32");
    }
    // K^L < 2^53 bounds every term, so the sum cannot wrap.
    Ok((0..=depth).map(|l| branching.pow(l)).sum())
}

impl Fig4Instance {
    /// The paper's parameterization for bound `k`: `K = 2k`.
    pub fn for_k(k: u32, depth: u32) -> Self {
        assert!(k >= 1, "the construction needs k ≥ 1");
        Fig4Instance { branching: 2 * k, depth }
    }

    /// Number of jobs `n = Σ K^l = (K^{L+1} − 1)/(K − 1)`.
    pub fn job_count(&self) -> usize {
        let k = self.branching as usize;
        if k == 1 {
            return self.depth as usize + 1;
        }
        (k.pow(self.depth + 1) - 1) / (k - 1)
    }

    /// Scaled length of a level-`l` job: `(3K−1)·(3K²)^{L−l}`.
    pub fn length_at(&self, level: u32) -> Time {
        let base = 3 * (self.branching as i128) * (self.branching as i128);
        let p = (3 * self.branching as i128 - 1) * base.pow(self.depth - level);
        Time::try_from(p).expect("length overflows i64; reduce depth")
    }

    /// Scaled value of a level-`l` job: `K^{L−l}` (exact in `f64`).
    pub fn value_at(&self, level: u32) -> f64 {
        (self.branching as f64).powi((self.depth - level) as i32)
    }

    /// The scaled length ratio `P = (3K²)^L`.
    pub fn length_ratio(&self) -> f64 {
        (3.0 * (self.branching as f64).powi(2)).powi(self.depth as i32)
    }

    /// Scaled `OPT_∞ = (L+1)·K^L` (all jobs; Lemma B.2).
    pub fn opt_unbounded_value(&self) -> f64 {
        (self.depth as f64 + 1.0) * (self.branching as f64).powi(self.depth as i32)
    }

    /// Scaled Lemma B.2 upper bound on `OPT_k`:
    /// `K^L · Σ_{i=0}^{L} (k/K)^i < K^L · K/(K−k)`.
    pub fn opt_k_upper_bound(&self, k: u32) -> f64 {
        let scale = (self.branching as f64).powi(self.depth as i32);
        let q = k as f64 / self.branching as f64;
        scale * (0..=self.depth).map(|i| q.powi(i as i32)).sum::<f64>()
    }

    /// Builds the instance.
    ///
    /// # Panics
    /// Panics when lengths would overflow `i64` or values lose `f64` integer
    /// exactness; for `K = 2k ≤ 8` depths up to 6–7 are safe.
    pub fn build(&self) -> Fig4Built {
        let kb = self.branching as usize;
        assert!(kb >= 2, "branching must be ≥ 2");
        assert!(
            (self.branching as f64).powi(self.depth as i32) < 2f64.powi(53),
            "values exceed exact f64 integers"
        );
        // Check the largest time quantity: r grows by at most ~λ·p(0) total.
        let _ = self.length_at(0); // panics on overflow

        let mut jobs = JobSet::new();
        let mut level_of = Vec::with_capacity(self.job_count());
        let mut by_level: Vec<Vec<JobId>> = vec![Vec::new(); self.depth as usize + 1];
        let mut parent_of: Vec<Option<JobId>> = Vec::with_capacity(self.job_count());

        // Level 0: the root job at r = 0.
        let p0 = self.length_at(0);
        let d0 = p0 + p0 / (3 * self.branching as Time - 1);
        let root = jobs.push(Job::new(0, d0, p0, self.value_at(0)));
        level_of.push(0);
        by_level[0].push(root);
        parent_of.push(None);

        // `frontier[m]` = release time of the m-th job of the current level.
        let mut frontier: Vec<(JobId, Time)> = vec![(root, 0)];
        for l in 0..self.depth {
            let p_l = self.length_at(l);
            let p_child = self.length_at(l + 1);
            let lam_add_child = p_child / (3 * self.branching as Time - 1);
            let mut next = Vec::with_capacity(frontier.len() * kb);
            for &(parent_id, r_parent) in &frontier {
                for c in 0..self.branching {
                    // r(l+1, m') = r(l, m) + (m' − mK + 1)·p(l)/K − p(l+1),
                    // with m' − mK = c.
                    let r = r_parent + (c as Time + 1) * (p_l / self.branching as Time) - p_child;
                    let d = r + p_child + lam_add_child;
                    let id = jobs.push(Job::new(r, d, p_child, self.value_at(l + 1)));
                    level_of.push(l + 1);
                    by_level[l as usize + 1].push(id);
                    parent_of.push(Some(parent_id));
                    next.push((id, r));
                }
            }
            frontier = next;
        }
        Fig4Built { jobs, level_of, by_level, parent_of }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pobp_sched::{edf_feasible, edf_schedule, reduce_to_k_bounded};

    #[test]
    fn shape_and_scaling() {
        let inst = Fig4Instance::for_k(1, 2); // K = 2, L = 2
        assert_eq!(inst.job_count(), 7);
        let built = inst.build();
        assert_eq!(built.jobs.len(), 7);
        assert_eq!(built.by_level.iter().map(Vec::len).collect::<Vec<_>>(), vec![1, 2, 4]);
        // Lengths: (3K−1)(3K²)^{L−l} = 5·12^{2−l}.
        assert_eq!(inst.length_at(0), 5 * 144);
        assert_eq!(inst.length_at(1), 5 * 12);
        assert_eq!(inst.length_at(2), 5);
        // Laxity is exactly 1 + 1/(3K−1) = 1.2 for every job.
        for (_, j) in built.jobs.iter() {
            assert!((j.laxity() - 1.2).abs() < 1e-12);
        }
        // Values: K^{L−l} = 4, 2, 1.
        assert_eq!(built.jobs.job(JobId(0)).value, 4.0);
        assert_eq!(inst.opt_unbounded_value(), 12.0);
    }

    #[test]
    fn children_nest_within_parent_window() {
        let built = Fig4Instance::for_k(2, 2).build();
        for (id, job) in built.jobs.iter() {
            if let Some(p) = built.parent_of[id.0] {
                let parent = built.jobs.job(p);
                assert!(job.release > parent.release, "{id}");
                assert!(job.deadline < parent.deadline, "{id}");
            }
        }
    }

    #[test]
    fn whole_instance_is_edf_feasible() {
        // Lemma B.2: OPT_∞ takes everything.
        for (k, depth) in [(1u32, 3u32), (2, 2), (3, 2)] {
            let inst = Fig4Instance::for_k(k, depth);
            let built = inst.build();
            let ids: Vec<JobId> = built.jobs.ids().collect();
            assert!(edf_feasible(&built.jobs, &ids), "k={k} L={depth}");
        }
    }

    #[test]
    fn reduction_price_matches_lemma_b2() {
        // OPT_k via the reduction is below the analytic bound, and the
        // price OPT_∞ / OPT_k grows ~ (L+1)·(K−k)/K.
        for (k, depth) in [(1u32, 4u32), (2, 3)] {
            let inst = Fig4Instance::for_k(k, depth);
            let built = inst.build();
            let ids: Vec<JobId> = built.jobs.ids().collect();
            let inf = edf_schedule(&built.jobs, &ids, None);
            assert!(inf.is_feasible());
            let red = reduce_to_k_bounded(&built.jobs, &inf.schedule, k).unwrap();
            red.schedule.verify(&built.jobs, Some(k)).unwrap();
            let upper = inst.opt_k_upper_bound(k);
            assert!(
                red.value(&built.jobs) <= upper + 1e-6,
                "k={k} L={depth}: reduction {} exceeds analytic OPT_k bound {upper}",
                red.value(&built.jobs)
            );
            // The price from the analytic bound: ≥ (L+1)/2 for K = 2k.
            let price = inst.opt_unbounded_value() / upper;
            assert!(price >= (depth as f64 + 1.0) / 2.0 - 1e-9);
        }
    }

    #[test]
    fn sibling_jobs_do_not_overlap_windows_fully() {
        // Consecutive siblings are released p(l)/K apart — strictly
        // increasing release times within a level.
        let built = Fig4Instance::for_k(1, 3).build();
        for level in &built.by_level {
            for w in level.windows(2) {
                let a = built.jobs.job(w[0]);
                let b = built.jobs.job(w[1]);
                assert!(a.release < b.release);
            }
        }
    }
}
