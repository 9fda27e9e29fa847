//! Percentiles under the benchmark's sample-count rule.
//!
//! A percentile is published only when at least [`MIN_BEYOND`] samples
//! lie beyond it; a tail asked for at `q` falls back to the highest
//! percentile below `q` that the sample supports, and the percentile
//! actually used travels with the value.

/// Samples that must lie strictly beyond a published percentile.
pub const MIN_BEYOND: usize = 10;

/// One published percentile: the value, the percentile it is (0..1),
/// and the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub q: f64,
    pub n: usize,
}

/// Nearest-rank index of the `q` percentile in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `q` percentile of `samples` (sorted in place), or the highest
/// percentile below it that leaves [`MIN_BEYOND`] samples beyond.
/// `None` when even the median has fewer than that beyond it.
pub fn tail(samples: &mut [f64], q: f64) -> Option<Pct> {
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let asked = rank(n, q);
    let idx = asked.min(n.checked_sub(MIN_BEYOND + 1)?);
    if idx < rank(n, 0.5) {
        return None;
    }
    Some(Pct {
        value: samples[idx],
        q: if idx == asked {
            q
        } else {
            (idx + 1) as f64 / n as f64
        },
        n,
    })
}

/// Median of `samples` (sorted in place); `None` when empty.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    })
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many of `n` sorted samples lie beyond the `q` percentile.
    fn beyond(n: usize, q: f64) -> usize {
        n - 1 - rank(n, q)
    }

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, ten samples beyond.
        let mut s = ramp(1000);
        let p = tail(&mut s, 0.99).unwrap();
        assert_eq!(p.q, 0.99);
        assert_eq!(p.value, 990.0);
        assert_eq!(beyond(1000, 0.99), 10);

        // 999 samples: p99 would leave only nine beyond, so the tail
        // falls back to the percentile that leaves exactly ten.
        let mut s = ramp(999);
        assert_eq!(beyond(999, 0.99), 9);
        let p = tail(&mut s, 0.99).unwrap();
        assert!(p.q < 0.99);
        assert_eq!(p.value, 989.0, "ten of 999 samples lie beyond 989");
    }

    #[test]
    fn too_few_samples_publish_nothing() {
        let mut s = ramp(19);
        assert!(tail(&mut s, 0.5).is_none());
        let mut s = ramp(20);
        let p = tail(&mut s, 0.5).unwrap();
        assert_eq!((p.q, p.value), (0.5, 10.0));
        assert!(tail(&mut [], 0.5).is_none());
    }

    #[test]
    fn median_and_tail_sort_their_input() {
        let mut s = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&mut s), Some(3.0));
        let mut s = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut s), Some(2.5));
        let mut s: Vec<f64> = ramp(100).into_iter().rev().collect();
        assert_eq!(tail(&mut s, 0.5).unwrap().value, 50.0);
    }
}
