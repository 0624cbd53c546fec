//! Exact order statistics over per-sample measurements, and the
//! environment probes.

use std::time::{Duration, Instant};

/// Exact nearest-rank quantile `q ∈ (0, 1]` of `xs` (reorders `xs`).
/// Returns 0 for an empty slice.
pub fn quantile<T: Copy + Ord + Default>(xs: &mut [T], q: f64) -> T {
    if xs.is_empty() {
        return T::default();
    }
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    *xs.select_nth_unstable(rank - 1).1
}

/// Median of `xs` (mean of the two middle values for even lengths);
/// NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Spins for `dur` reading the clock and returns the milliseconds per
/// second lost in gaps longer than 50 µs — time the host took the CPU
/// away. Explains outliers; measures nothing of the program.
pub fn stall_ms_per_s(dur: Duration) -> f64 {
    let start = Instant::now();
    let mut prev = start;
    let mut lost = Duration::ZERO;
    loop {
        let now = Instant::now();
        let gap = now - prev;
        if gap > Duration::from_micros(50) {
            lost += gap;
        }
        prev = now;
        if now - start >= dur {
            break;
        }
    }
    lost.as_secs_f64() * 1e3 / (prev - start).as_secs_f64()
}

/// Median cost of one `Instant::now()` pair around nothing, in ns: the
/// floor under every per-call timing the traced run reports.
pub fn timer_ns() -> f64 {
    let mut xs: Vec<u64> = (0..100_000)
        .map(|_| {
            let t = Instant::now();
            ns(std::hint::black_box(t).elapsed())
        })
        .collect();
    quantile(&mut xs, 0.5) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let mut xs: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut xs, 0.5), 50);
        assert_eq!(quantile(&mut xs, 0.9), 90);
        assert_eq!(quantile(&mut xs, 0.99), 99);
        assert_eq!(quantile(&mut xs, 1.0), 100);
        assert_eq!(quantile::<u64>(&mut [], 0.5), 0);
        assert_eq!(quantile(&mut [3u32, 1, 2], 0.5), 2);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
