//! CPU time the hypervisor took from this machine's vCPUs ("steal"),
//! sampled from `/proc/stat` while a run measures.
//!
//! On a shared host the share of stolen time changes from run to run;
//! throughput over a phase that keeps every vCPU busy is reported per
//! second of the time the vCPUs actually ran.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second of `/proc/stat` (`USER_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;
const PERIOD: Duration = Duration::from_millis(20);

/// Cumulative steal of all vCPUs, in nanoseconds of vCPU time.
pub fn steal_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?;
    let ticks: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some((ticks / TICKS_PER_SECOND * 1e9) as u64)
}

/// `(ns since t0, cumulative steal ns)` samples taken every [`PERIOD`].
pub struct Sampler {
    samples: Arc<Mutex<Vec<(u64, u64)>>>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    pub fn start(t0: Instant) -> Self {
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = steal_ns().map(|_| {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || loop {
                if let Some(s) = steal_ns() {
                    let at = t0.elapsed().as_nanos() as u64;
                    samples.lock().expect("steal samples").push((at, s));
                }
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(PERIOD);
            })
        });
        Sampler {
            samples,
            stop,
            handle,
        }
    }

    /// Stop sampling and return the timeline.
    pub fn finish(mut self) -> Timeline {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.join().expect("steal sampler panicked");
        }
        let samples = std::mem::take(&mut *self.samples.lock().expect("steal samples"));
        Timeline { samples }
    }
}

/// Sampled steal over a run.
#[derive(Debug, Default)]
pub struct Timeline {
    samples: Vec<(u64, u64)>,
}

impl Timeline {
    /// Cumulative steal at `t` (ns since t0), linearly interpolated.
    fn at(&self, t: u64) -> f64 {
        let s = &self.samples;
        let Some(first) = s.first() else { return 0.0 };
        let i = s.partition_point(|&(at, _)| at <= t);
        if i == 0 {
            return first.1 as f64;
        }
        if i == s.len() {
            return s[i - 1].1 as f64;
        }
        let (a, b) = (s[i - 1], s[i]);
        let f = (t - a.0) as f64 / (b.0 - a.0).max(1) as f64;
        a.1 as f64 + f * (b.1 - a.1) as f64
    }

    /// Wall time lost to steal in `[from, to]` while `busy` vCPUs wanted
    /// to run: the vCPU time stolen, divided among them.
    pub fn lost_ns(&self, from: u64, to: u64, busy: usize) -> f64 {
        if to <= from {
            return 0.0;
        }
        (self.at(to) - self.at(from)).max(0.0) / busy.max(1) as f64
    }

    /// Share of all vCPU time in `[from, to]` that was stolen.
    pub fn share(&self, from: u64, to: u64, vcpus: usize) -> f64 {
        let span = to.saturating_sub(from) as f64 * vcpus.max(1) as f64;
        if span == 0.0 {
            0.0
        } else {
            self.lost_ns(from, to, 1) / span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_and_splits_steal_across_busy_vcpus() {
        let t = Timeline {
            samples: vec![(0, 0), (100, 40), (200, 40)],
        };
        assert_eq!(t.lost_ns(0, 100, 2), 20.0);
        assert_eq!(t.lost_ns(50, 150, 1), 20.0);
        assert_eq!(t.lost_ns(150, 300, 1), 0.0);
        assert_eq!(t.share(0, 100, 2), 0.2);
    }
}
