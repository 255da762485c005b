//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seed plus a per-site firing rate. Every injection
//! decision is a pure hash of `(seed, site, task content key)` — no RNG
//! state, no wall clock — so a chaos run replays **byte-identically**: the
//! same plan over the same task list injects the same faults regardless of
//! thread count, scheduling order, or cache state. That property is what
//! lets `tests/cli.rs` diff a fault-injected `pobp sweep --threads 1`
//! against `--threads 4` (see `docs/robustness.md`).
//!
//! The named sites (pool, task wrapper):
//!
//! | site | where | effect |
//! |---|---|---|
//! | `panic` | `pool.rs`, inside the attempt `catch_unwind` | panics on **every** attempt (exercises retry exhaustion) |
//! | `flaky` | `pool.rs`, inside the attempt `catch_unwind` | panics on the **first** attempt only (exercises retry success) |
//! | `delay` | `pool.rs`, attempt start | sleeps [`FaultPlan::delay`] (exercises deadline yield points; wall-clock only) |
//! | `cancel` | `pool.rs`, before the first attempt | expires the task's deadline (surfaces as a deadline stop) |
//! | `deadline` | `solve.rs`, reference→bounded stage boundary | forces [`StopReason::DeadlineExceeded`](crate::cancel::StopReason) |
//! | `corrupt-ref` | `solve.rs`, just before the reference put | perturbs the stored reference value |
//!
//! The IO sites (all routed through [`IoGuard`](crate::io::IoGuard), the
//! fault-injectable writer under the sweep shard files and the serve
//! journal; see `docs/sweeps.md`):
//!
//! | site | op | effect |
//! |---|---|---|
//! | `io-short-write` | line/file writes | writes only a prefix, then errors |
//! | `io-fsync` | file or directory fsync | the sync fails after data may have been buffered |
//! | `io-rename` | atomic-replace rename | tmp file written + synced, rename fails |
//! | `io-torn-tail` | line writes | writes the line **without** its final newline, then errors (a mid-write kill) |
//! | `io-disk-full` | line/file writes | fails up front, writing nothing |
//!
//! IO decisions are keyed by `(seed, site, writer key ^ op index)` — the
//! op index counts IO operations per writer — so a faulty sweep replays
//! identically across `--threads`, which is what lets the resume proptests
//! kill a run at *every* event point deterministically.
//!
//! Corruption happens at **put** time, decided by the entry key, so every
//! consumer of a poisoned entry — including the worker that computed it,
//! which adopts the canonical cache entry — observes the same corrupt
//! bytes. The certification layer ([`crate::cert`]) must then catch the
//! mismatch as `CertFailed` before it reaches any output row.
//!
//! The module is compiled into every build and armed only at run time:
//! through [`EngineConfig::chaos`](crate::EngineConfig::chaos), which the
//! `pobp` binary fills from its own `--chaos`/`--chaos-seed` flags, or
//! [`IoGuard::armed`](crate::IoGuard::armed). No protocol op arms a plan.
//! Unarmed, each site costs one `Option` test and changes no output byte
//! (`tests/cli.rs::unfired_chaos_plan_is_inert` checks the sweep output).

use std::sync::Arc;
use std::time::Duration;

use crate::cache::{splitmix64, RefSolution};

/// A named fault-injection site. See the module table for semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic on every attempt.
    Panic,
    /// Panic on the first attempt only.
    Flaky,
    /// Sleep at attempt start.
    Delay,
    /// Expire the task's deadline before it starts.
    SpuriousCancel,
    /// Force a `DeadlineExceeded` stop at the stage boundary.
    ForcedDeadline,
    /// Corrupt a reference just before it is put in the cache.
    CorruptRef,
    /// An IO write persists only a prefix of its bytes, then errors.
    IoShortWrite,
    /// A file or directory fsync fails after the data was handed to the OS.
    IoFsync,
    /// The rename leg of an atomic replace fails (tmp file left behind).
    IoRename,
    /// A line write persists everything but its final newline — the torn
    /// tail a `kill -9` mid-write leaves on disk.
    IoTornTail,
    /// An IO write fails up front with a disk-full error, writing nothing.
    IoDiskFull,
}

impl FaultSite {
    /// Every site, in spec/reporting order.
    pub const ALL: [FaultSite; 11] = [
        FaultSite::Panic,
        FaultSite::Flaky,
        FaultSite::Delay,
        FaultSite::SpuriousCancel,
        FaultSite::ForcedDeadline,
        FaultSite::CorruptRef,
        FaultSite::IoShortWrite,
        FaultSite::IoFsync,
        FaultSite::IoRename,
        FaultSite::IoTornTail,
        FaultSite::IoDiskFull,
    ];

    /// The stable lowercase name used by `--chaos` specs and docs.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Panic => "panic",
            FaultSite::Flaky => "flaky",
            FaultSite::Delay => "delay",
            FaultSite::SpuriousCancel => "cancel",
            FaultSite::ForcedDeadline => "deadline",
            FaultSite::CorruptRef => "corrupt-ref",
            FaultSite::IoShortWrite => "io-short-write",
            FaultSite::IoFsync => "io-fsync",
            FaultSite::IoRename => "io-rename",
            FaultSite::IoTornTail => "io-torn-tail",
            FaultSite::IoDiskFull => "io-disk-full",
        }
    }

    /// Parses [`FaultSite::name`] back into a site.
    pub fn parse(s: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|site| site.name() == s)
    }

    /// Per-site hash salt, so the same task draws independently per site.
    fn salt(self) -> u64 {
        // Arbitrary distinct odd constants.
        match self {
            FaultSite::Panic => 0x9e37_79b9_7f4a_7c15,
            FaultSite::Flaky => 0xbf58_476d_1ce4_e5b9,
            FaultSite::Delay => 0x94d0_49bb_1331_11eb,
            FaultSite::SpuriousCancel => 0xd6e8_feb8_6659_fd93,
            FaultSite::ForcedDeadline => 0xa076_1d64_78bd_642f,
            FaultSite::CorruptRef => 0xe703_7ed1_a0b4_28db,
            FaultSite::IoShortWrite => 0xc2b2_ae3d_27d4_eb4f,
            FaultSite::IoFsync => 0x1656_67b1_9e37_79f9,
            FaultSite::IoRename => 0x27d4_eb2f_1656_67c5,
            FaultSite::IoTornTail => 0x85eb_ca77_c2b2_ae63,
            FaultSite::IoDiskFull => 0xff51_afd7_ed55_8ccd,
        }
    }
}

/// A seeded, content-keyed fault plan: which sites fire, how often, and
/// (for delays) for how long. Build with [`FaultPlan::new`] +
/// [`FaultPlan::with_rate`], or parse a CLI spec with [`FaultPlan::parse`].
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    rates: [f64; FaultSite::ALL.len()],
    delay: Duration,
}

impl FaultPlan {
    /// An empty plan (no site ever fires) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, rates: [0.0; FaultSite::ALL.len()], delay: Duration::from_millis(1) }
    }

    /// Sets `site` to fire with probability `rate` (clamped to `[0, 1]`).
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> Self {
        let idx = FaultSite::ALL.iter().position(|s| *s == site).expect("site is in ALL");
        self.rates[idx] = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the sleep duration of the `delay` site.
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// Parses a `--chaos` spec: comma-separated `site:rate` entries, e.g.
    /// `"panic:0.25,deadline:1,corrupt-ref:0.5"`. The pseudo-site
    /// `delay-ms:N` sets the delay duration instead of a rate. Each name
    /// may appear once: a second entry would silently override the first.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan::new(seed);
        let mut seen = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (name, rate) = entry
                .split_once(':')
                .ok_or_else(|| format!("chaos entry `{entry}` is not site:rate"))?;
            if seen.contains(&name) {
                return Err(format!("chaos site `{name}` given twice"));
            }
            seen.push(name);
            if name == "delay-ms" {
                let ms: u64 = rate
                    .parse()
                    .map_err(|e| format!("chaos entry `{entry}`: bad delay-ms: {e}"))?;
                plan = plan.with_delay(Duration::from_millis(ms));
                continue;
            }
            let site = FaultSite::parse(name).ok_or_else(|| {
                let names: Vec<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
                format!("unknown chaos site `{name}` (one of {})", names.join("|"))
            })?;
            let rate: f64 = rate
                .parse()
                .map_err(|e| format!("chaos entry `{entry}`: bad rate: {e}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("chaos entry `{entry}`: rate must be in [0, 1]"));
            }
            plan = plan.with_rate(site, rate);
        }
        Ok(plan)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The sleep duration of the `delay` site.
    pub fn delay(&self) -> Duration {
        self.delay
    }

    /// Whether `site` fires for the entity identified by `key`. A pure
    /// function of `(seed, site, key)`: replays identically across threads
    /// and runs.
    pub fn fires(&self, site: FaultSite, key: u64) -> bool {
        let idx = FaultSite::ALL.iter().position(|s| *s == site).expect("site is in ALL");
        let rate = self.rates[idx];
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let h = splitmix64(self.seed ^ site.salt() ^ splitmix64(key));
        // Top 53 bits → uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }

    /// The `panic`/`flaky` site, called inside the pool's per-attempt
    /// `catch_unwind`: `panic` fires on every attempt, `flaky` only on the
    /// first (so retry can succeed).
    pub(crate) fn inject_panic(&self, key: u64, attempt: u32) {
        if self.fires(FaultSite::Panic, key) {
            pobp_core::obs_count!("engine.chaos.panic");
            pobp_core::trace_event!("chaos.panic", attempt);
            panic!("chaos: injected panic (site=panic, key={key:#x})");
        }
        if attempt == 1 && self.fires(FaultSite::Flaky, key) {
            pobp_core::obs_count!("engine.chaos.flaky");
            pobp_core::trace_event!("chaos.flaky");
            panic!("chaos: injected panic (site=flaky, key={key:#x})");
        }
    }

    /// The `corrupt-ref` site: perturbs a reference solution about to enter
    /// the cache. Returns whether it fired.
    pub(crate) fn corrupt_ref(&self, key: u64, sol: &mut RefSolution) -> bool {
        if !self.fires(FaultSite::CorruptRef, key) {
            return false;
        }
        pobp_core::obs_count!("engine.chaos.corrupt_ref");
        // Timing-class: corruption fires at put time, and under a race the
        // losing worker's put (and thus this event) can repeat.
        pobp_core::trace_event!(timing "chaos.corrupt_ref");
        // Push the claimed reference value well past any certification
        // tolerance while keeping it finite and positive.
        sol.value = sol.value * 2.0 + 1.0;
        true
    }
}

/// A task's chaos handle: the armed plan plus this task's content key.
/// Carried on [`TaskCtx`](crate::cancel::TaskCtx) so the task wrapper in
/// `solve.rs` can consult the `deadline` and `corrupt-ref` sites.
#[derive(Clone, Debug)]
pub struct TaskChaos {
    /// The armed plan.
    pub plan: Arc<FaultPlan>,
    /// This task's content key ([`task_key`](crate::cache::task_key)).
    pub key: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_seed_sensitive() {
        let plan = FaultPlan::new(42).with_rate(FaultSite::Panic, 0.5);
        let a: Vec<bool> = (0..64).map(|k| plan.fires(FaultSite::Panic, k)).collect();
        let b: Vec<bool> = (0..64).map(|k| plan.fires(FaultSite::Panic, k)).collect();
        assert_eq!(a, b, "same plan, same keys, same decisions");
        let other = FaultPlan::new(43).with_rate(FaultSite::Panic, 0.5);
        let c: Vec<bool> = (0..64).map(|k| other.fires(FaultSite::Panic, k)).collect();
        assert_ne!(a, c, "a different seed draws differently");
        // Sites draw independently: panic firing says nothing about flaky.
        let both = FaultPlan::new(42)
            .with_rate(FaultSite::Panic, 0.5)
            .with_rate(FaultSite::Flaky, 0.5);
        let flaky: Vec<bool> = (0..64).map(|k| both.fires(FaultSite::Flaky, k)).collect();
        assert_ne!(a, flaky);
    }

    #[test]
    fn rates_zero_and_one_are_exact() {
        let plan = FaultPlan::new(7)
            .with_rate(FaultSite::Panic, 0.0)
            .with_rate(FaultSite::ForcedDeadline, 1.0);
        for k in 0..256 {
            assert!(!plan.fires(FaultSite::Panic, k));
            assert!(plan.fires(FaultSite::ForcedDeadline, k));
        }
    }

    #[test]
    fn rate_is_roughly_respected() {
        let plan = FaultPlan::new(9).with_rate(FaultSite::Delay, 0.25);
        let hits = (0..4096).filter(|&k| plan.fires(FaultSite::Delay, k)).count();
        assert!((hits as f64 / 4096.0 - 0.25).abs() < 0.05, "got {hits}/4096");
    }

    #[test]
    fn spec_parsing_round_trips_sites() {
        let plan =
            FaultPlan::parse("panic:0.25, deadline:1,corrupt-ref:0.5,delay-ms:3", 5).unwrap();
        assert_eq!(plan.seed(), 5);
        assert_eq!(plan.delay(), Duration::from_millis(3));
        assert!(plan.fires(FaultSite::ForcedDeadline, 0));
        assert!(FaultPlan::parse("", 0).is_ok(), "empty spec is an empty plan");
        assert!(FaultPlan::parse("nope:0.5", 0).unwrap_err().contains("unknown chaos site"));
        assert!(FaultPlan::parse("panic:2", 0).unwrap_err().contains("[0, 1]"));
        assert!(FaultPlan::parse("panic", 0).unwrap_err().contains("site:rate"));
        for spec in ["panic:1,panic:0", "delay-ms:1, delay-ms:2"] {
            assert!(FaultPlan::parse(spec, 0).unwrap_err().contains("given twice"), "{spec}");
        }
    }

    #[test]
    fn corruption_moves_values_past_any_tolerance() {
        let plan = FaultPlan::new(1).with_rate(FaultSite::CorruptRef, 1.0);
        let mut sol = RefSolution { schedule: pobp_core::Schedule::new(), value: 10.0 };
        assert!(plan.corrupt_ref(3, &mut sol));
        assert_eq!(sol.value, 21.0);
    }
}
