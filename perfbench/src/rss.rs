//! Resident-memory sampling. The process's all-time peak (`VmHWM`) is set
//! by one moment of one slice of the run and, on glibc, flips between
//! modes with arena and mmap-threshold state; the benchmark reports the
//! median over the run's slices (sweeps, or one-second windows of the
//! daemon's load) of each slice's sampled peak, which repeats.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sampling period.
const PERIOD: Duration = Duration::from_millis(1);

/// Current resident set of this process, in KiB (`/proc/self/statm`).
pub fn rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4)
}

/// Peak resident set since the process started (`VmHWM`), in MiB.
pub fn hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A background thread sampling the resident set every millisecond and
/// keeping the peak of each slice.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    cut: Arc<AtomicBool>,
    peaks: Arc<Mutex<Vec<u64>>>,
    thread: Option<JoinHandle<()>>,
}

impl RssSampler {
    /// Starts sampling. With `slice` set, a new slice starts every `slice`;
    /// otherwise only [`RssSampler::cut`] starts one.
    pub fn start(slice: Option<Duration>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cut = Arc::new(AtomicBool::new(false));
        let peaks = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let (stop, cut, peaks) = (Arc::clone(&stop), Arc::clone(&cut), Arc::clone(&peaks));
            std::thread::spawn(move || {
                let mut current = 0;
                let mut slice_start = Instant::now();
                while !stop.load(Ordering::Acquire) {
                    current = rss_kib().max(current);
                    let timed_out = slice.is_some_and(|s| slice_start.elapsed() >= s);
                    if cut.swap(false, Ordering::AcqRel) || timed_out {
                        peaks
                            .lock()
                            .expect("rss peaks")
                            .push(std::mem::take(&mut current));
                        slice_start = Instant::now();
                    }
                    std::thread::sleep(PERIOD);
                }
            })
        };
        RssSampler {
            stop,
            cut,
            peaks,
            thread: Some(thread),
        }
    }

    /// Ends the current slice (it closes at the sampler's next tick).
    pub fn cut(&self) {
        self.cut.store(true, Ordering::Release);
        while self.cut.load(Ordering::Acquire) {
            std::thread::sleep(PERIOD / 4);
        }
    }

    /// Stops sampling; returns the median slice peak in MiB (the all-time
    /// peak when no slice closed).
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            t.join().expect("rss sampler thread");
        }
        let peaks: Vec<f64> = self
            .peaks
            .lock()
            .expect("rss peaks")
            .iter()
            .map(|&k| k as f64 / 1024.0)
            .collect();
        if peaks.is_empty() {
            hwm_mib()
        } else {
            crate::stats::median(&peaks)
        }
    }
}
