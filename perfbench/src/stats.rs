//! Small numeric helpers: the latency histogram, exact percentiles over
//! raw samples, medians, the replay timer and the process's peak
//! resident set.

use std::time::{Duration, Instant};

/// Sub-bucket bits of [`Histogram`]: values below `1 << SUB_BITS` ns are
/// kept exactly, larger ones to within `2^-SUB_BITS` (0.1%).
const SUB_BITS: u32 = 10;
/// Buckets covering every `u32` nanosecond value.
const BUCKETS: usize = ((32 - SUB_BITS + 1) as usize) << SUB_BITS;

/// Latencies in nanoseconds, bucketed log-linearly. Its memory does not
/// depend on the sample count, so a whole run's samples pool at any
/// throughput without the resident set following it.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

fn bucket_of(ns: u32) -> usize {
    if ns < 1 << SUB_BITS {
        return ns as usize;
    }
    let shift = 31 - ns.leading_zeros() - SUB_BITS;
    ((shift as usize) << SUB_BITS) + (ns >> shift) as usize
}

/// The middle of bucket `index`'s value range.
fn value_of(index: usize) -> f64 {
    if index < 2 << SUB_BITS {
        return index as f64;
    }
    let shift = (index >> SUB_BITS) - 1;
    let low = ((index - (shift << SUB_BITS)) as u64) << shift;
    low as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

impl Histogram {
    pub fn record(&mut self, latency: Duration) {
        let ns = u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX);
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += u64::from(ns);
    }

    pub fn absorb(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean in microseconds (exact); 0 when empty.
    pub fn mean_us(&self) -> f64 {
        self.sum_ns as f64 / self.count.max(1) as f64 / 1e3
    }

    /// Nearest-rank percentile (`p` in `0..=1`) in microseconds; 0 when
    /// empty.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64 * p).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return value_of(index) / 1e3;
            }
        }
        unreachable!("the counts add up to the sample count")
    }
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, count) = values
        .into_iter()
        .fold((0.0, 0usize), |(sum, count), v| (sum + v, count + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Nearest-rank percentile (`p` in `0..=1`) of raw samples, reordering
/// `samples` in place; 0 for an empty slice.
pub fn percentile<T: Copy + Ord + Default>(samples: &mut [T], p: f64) -> T {
    if samples.is_empty() {
        return T::default();
    }
    let rank = ((samples.len() as f64 * p).ceil() as usize).clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(rank).1
}

/// Times `op` for the layer replays: calibrates a batch to about a
/// millisecond, runs batches until `budget` has passed (at least seven),
/// and returns the median batch time in nanoseconds per `units_per_call`
/// unit of work.
pub fn replay_ns_per_unit(budget: Duration, units_per_call: f64, mut op: impl FnMut()) -> f64 {
    let mut iters = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        if start.elapsed() >= Duration::from_millis(1) || iters >= 1 << 22 {
            break;
        }
        iters *= 2;
    }
    let mut batches = Vec::new();
    let started = Instant::now();
    while batches.len() < 7 || started.elapsed() < budget {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        let ns = start.elapsed().as_nanos() as f64;
        batches.push(ns / (iters as f64 * units_per_call));
    }
    median(&batches)
}

/// CPU time (user + system) every thread of the process has used, in
/// seconds, or 0 where `/proc/self/stat` is unavailable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (100 per second).
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |index: usize| {
        fields
            .get(index)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut samples: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut samples, 0.5), 50);
        assert_eq!(percentile(&mut samples, 0.99), 99);
        assert_eq!(percentile(&mut samples, 1.0), 100);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn histogram_percentiles_within_a_thousandth() {
        let mut histogram = Histogram::default();
        let mut raw: Vec<u32> = (0..20_000u32).map(|i| i * 7919 % 3_000_017).collect();
        raw.push(u32::MAX);
        for &ns in &raw {
            histogram.record(Duration::from_nanos(u64::from(ns)));
        }
        assert_eq!(histogram.count(), raw.len() as u64);
        for p in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = f64::from(percentile(&mut raw, p)) / 1e3;
            let got = histogram.percentile_us(p);
            assert!(
                (got - exact).abs() <= exact / 1000.0,
                "p{p}: {got} vs {exact}"
            );
        }
        let mut small = Histogram::default();
        for ns in [3u64, 1500, 2047] {
            small.record(Duration::from_nanos(ns));
        }
        assert_eq!(small.percentile_us(0.5), 1.5);
        assert_eq!(small.percentile_us(1.0), 2.047);
        assert_eq!(small.mean_us(), 3550.0 / 3.0 / 1e3);
    }
}
