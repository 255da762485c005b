//! Small statistics helpers shared by every workload: medians and
//! quartiles, the tail-percentile rule, open-loop due-time accounting, and
//! failure bookkeeping.

/// Percentiles the tail rule may report, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let (_, q2, _) = quartiles(xs);
    q2
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method) so the
/// steadiness report and the acceptance rule agree on every spread. One
/// sample gives that sample three times; none gives NaN.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            let q = |i: usize| {
                // statistics.quantiles, method="exclusive": m = n + 1, the
                // index clamped to 1..n-1 and the weight left unclamped
                // (it extrapolates for tiny n, as Python does).
                let pos = i * (n + 1);
                let j = (pos / 4).clamp(1, n - 1);
                let delta = pos as f64 / 4.0 - j as f64;
                v[j - 1] + delta * (v[j] - v[j - 1])
            };
            (q(1), q(2), q(3))
        }
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// tenths of a percent so that e.g. p99.9 of 10,000 is exactly rank 9,990.
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// A reported tail: which percentile, its value, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: usize,
}

/// The tail rule: the highest candidate percentile with at least
/// [`MIN_BEYOND`] samples strictly beyond its nearest rank. `None` when
/// even the median has fewer than ten samples above it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_CANDIDATES.iter().find_map(|&p| {
        (n >= 1 && n - rank(p, n) >= MIN_BEYOND).then(|| Tail {
            pct: p,
            value: percentile(&v, p),
            samples: n,
        })
    })
}

/// A fixed-rate open-loop schedule: request `i` is due `i × period` after
/// the start, whatever happened to earlier requests.
#[derive(Clone, Copy, Debug)]
pub struct Pacer {
    /// Nanoseconds between due times.
    pub period_ns: u64,
}

impl Pacer {
    /// A pacer sending `rate` requests per second.
    pub fn per_second(rate: u64) -> Self {
        Pacer {
            period_ns: 1_000_000_000 / rate.max(1),
        }
    }

    /// Due time of request `i`, in nanoseconds after the start.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.period_ns
    }

    /// When the generator actually sends request `i` if it is free at
    /// `now_ns`: at its due time, or at once when it is already late.
    pub fn send_ns(&self, i: u64, now_ns: u64) -> u64 {
        self.due_ns(i).max(now_ns)
    }
}

/// Latency of a request in milliseconds, counted from when it was *due*
/// (not from when it was sent), so a stalled generator's backlog shows up
/// in every request it delayed.
pub fn latency_from_due_ms(due_ns: u64, at_ns: u64) -> f64 {
    at_ns.saturating_sub(due_ns) as f64 / 1e6
}

/// Failure counts by kind; every kind counts against `failed_share`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    /// Rows or jobs that did not end `ok`/certified.
    pub not_ok: u64,
    /// Submits rejected, errored, or lost to transport.
    pub rejected: u64,
    /// Jobs that never reached a terminal status.
    pub lost: u64,
    /// Outputs that differ from the reference computation they are checked
    /// against (row counts, bytes, results).
    pub mismatched: u64,
}

impl Failures {
    /// All failures.
    pub fn total(&self) -> u64 {
        self.not_ok + self.rejected + self.lost + self.mismatched
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn share(&self, attempted: u64) -> f64 {
        if attempted == 0 {
            0.0
        } else {
            self.total() as f64 / attempted as f64
        }
    }

    /// Adds another set of counts.
    pub fn add(&mut self, o: &Failures) {
        self.not_ok += o.not_ok;
        self.rejected += o.rejected;
        self.lost += o.lost;
        self.mismatched += o.mismatched;
    }
}

/// Least-squares slope of `ys` against `xs` (0 for fewer than two points).
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let mx = xs[..n].iter().sum::<f64>() / n as f64;
    let my = ys[..n].iter().sum::<f64>() / n as f64;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for i in 0..n {
        sxy += (xs[i] - mx) * (ys[i] - my);
        sxx += (xs[i] - mx) * (xs[i] - mx);
    }
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// Mean (NaN for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// A seeded SplitMix64 stream for the benchmark's own choices (input
/// generation, sampling); the program never sees it.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x7065_7266_6265_6e63)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        pobp_engine::splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 2000 samples: p99.9 leaves 2 beyond, p99 leaves 20 → p99.
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.samples), (99.0, 2000));
        assert_eq!(t.value, 1980.0);
        // 10_000 samples: p99.9 leaves exactly 10 beyond → allowed.
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().pct, 99.9);
        // 999 samples: p99 leaves 9 beyond → falls back to p95.
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value), (95.0, 950.0));
        // 19 samples: the median leaves 9 beyond → nothing to report.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        // 20 samples: the median (rank 10) leaves 10 beyond.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().pct, 50.0);
    }

    #[test]
    fn failed_requests_count_as_missing_every_latency_limit() {
        // A lost request is recorded as +inf; with 2% lost the p99 is
        // infinite, never silently better.
        let mut xs: Vec<f64> = vec![1.0; 1960];
        xs.extend(std::iter::repeat_n(f64::INFINITY, 40));
        assert_eq!(tail(&xs).unwrap().value, f64::INFINITY);
        assert_eq!(median(&xs), 1.0);
    }

    #[test]
    fn due_time_latency_counts_a_stalled_generator_against_later_requests() {
        // 100 requests/s; the generator stalls 95 ms inside request 2's
        // send, then catches up by sending without waiting. The service
        // answers each request 1 ms after it is sent.
        let pacer = Pacer::per_second(100);
        let service_ns = 1_000_000;
        let stall_ns = 95_000_000;
        let mut free_at = 0u64;
        let mut latencies = Vec::new();
        let mut lateness = Vec::new();
        for i in 0..20u64 {
            let sent = pacer.send_ns(i, free_at);
            lateness.push(sent - pacer.due_ns(i));
            let done = sent + service_ns + if i == 2 { stall_ns } else { 0 };
            latencies.push(latency_from_due_ms(pacer.due_ns(i), done));
            free_at = done;
        }
        // Before the stall: just the service time.
        assert_eq!(latencies[1], 1.0);
        // The stalled request and the ones queued behind it pay for the
        // stall, although each one's own service took 1 ms.
        assert_eq!(latencies[2], 96.0);
        assert_eq!(latencies[3], 87.0);
        assert_eq!(latencies[4], 78.0);
        // The backlog drains at 9 ms per period; request 13 is on time.
        assert_eq!(latencies[12], 6.0);
        assert_eq!(latencies[13], 1.0);
        // The generator's own lateness is what `gen_lag` reports.
        assert_eq!(lateness[3], 86_000_000);
        assert_eq!(lateness[13], 0);
    }

    #[test]
    fn failed_share_sums_every_kind_over_attempted() {
        let mut f = Failures {
            not_ok: 1,
            rejected: 2,
            lost: 0,
            mismatched: 0,
        };
        f.add(&Failures {
            not_ok: 0,
            rejected: 0,
            lost: 3,
            mismatched: 4,
        });
        assert_eq!(f.total(), 10);
        assert_eq!(f.share(1000), 0.01);
        assert_eq!(Failures::default().share(1000), 0.0);
        assert_eq!(Failures::default().share(0), 0.0);
        assert_eq!(f.share(0), 0.0);
    }

    #[test]
    fn slope_of_a_line_is_its_gradient() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        assert!((slope(&xs, &ys) - 2.0).abs() < 1e-12);
        assert_eq!(slope(&[1.0], &[2.0]), 0.0);
    }
}
