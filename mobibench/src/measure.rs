//! Host-side measurement primitives: wall and process CPU clocks, peak
//! resident memory, order statistics, and the bounded log2 histograms the
//! fine-grained trace boundaries are folded into.

use std::time::{Duration, Instant};

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU time consumed so far by every thread of this process,
/// including threads that already exited (scoped sweep workers, shard
/// workers).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) that
    // outlives the call, and the clock id is a constant the C library
    // accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Wall and CPU time of one measured interval.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// Host wall-clock seconds.
    pub wall: f64,
    /// Process user+sys CPU seconds over the same interval.
    pub cpu: f64,
}

/// Runs `f` and returns its result with the wall and CPU time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Interval) {
    let c0 = process_cpu();
    let t0 = Instant::now();
    let r = f();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = (process_cpu() - c0).as_secs_f64();
    (r, Interval { wall, cpu })
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    mobidist_bench::exp_scale::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Median of `xs` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 1]` of `xs` (0 when empty).
pub fn percentile(xs: &[u64], p: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Count, total and log2-bucket histogram of one kind of fine-grained
/// boundary (callbacks, sink records, windows). Memory stays bounded no
/// matter how many boundaries are crossed.
#[derive(Debug, Clone)]
pub struct Hist {
    /// Boundaries recorded.
    pub count: u64,
    /// Sum of recorded durations, in nanoseconds.
    pub total_ns: u64,
    /// `buckets[i]` counts durations `d` with `floor(log2(d)) == i`
    /// (`d == 0` lands in bucket 0).
    pub buckets: [u64; 64],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            total_ns: 0,
            buckets: [0; 64],
        }
    }
}

impl Hist {
    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.buckets[(63 - ns.max(1).leading_zeros()) as usize] += 1;
    }

    /// Records the time elapsed since `t0`.
    pub fn since(&mut self, t0: Instant) {
        self.record(t0.elapsed().as_nanos() as u64);
    }

    /// Folds `other` into this histogram.
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// JSON object `{"count":..,"total_ns":..,"log2":[[bucket,count],..]}`
    /// listing only non-empty buckets.
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| format!("[{i},{c}]"))
            .collect();
        format!(
            "{{\"count\":{},\"total_ns\":{},\"log2\":[{}]}}",
            self.count,
            self.total_ns,
            buckets.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5, 1, 4, 2, 3], 0.5), 3);
        assert_eq!(percentile(&[5, 1, 4, 2, 3], 1.0), 5);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn hist_buckets_by_log2() {
        let mut h = Hist::default();
        for ns in [0, 1, 2, 3, 1024] {
            h.record(ns);
        }
        assert_eq!((h.count, h.total_ns), (5, 1030));
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[10], 1);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let (_, iv) = timed(|| (0..2_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(iv.cpu > 0.0 && iv.wall > 0.0);
    }
}
