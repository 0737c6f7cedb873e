//! Counters and streaming statistics used by every architectural block.
//!
//! The paper's simulator "can present to the user" execution times, traffic
//! and cache behaviour (§III); these types are the plumbing behind that.

use std::fmt;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`, saturating at `u64::MAX` (a kernel may ask for
    /// an unbounded compute).
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current value.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Streaming summary of a sequence of integer samples (e.g. flit latencies):
/// count, min, max, sum, and an exact mean. Constant memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Summary {
    /// New empty summary.
    pub const fn new() -> Self {
        Summary { count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Record one sample.
    pub fn record(&mut self, sample: u64) {
        self.count += 1;
        self.sum += sample;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of samples recorded.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Merge another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(mean) => {
                write!(f, "n={} mean={:.2} min={} max={}", self.count, mean, self.min, self.max)
            }
            None => write!(f, "n=0"),
        }
    }
}

/// Fixed-bucket histogram with power-of-two bucket boundaries; used for
/// latency distributions where the paper reports "sporadic cases of single
/// flits delivered with high latency" (§II-A) — the tail is what matters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: Vec<u64>,
    summary: Summary,
}

impl Log2Histogram {
    /// Histogram with buckets `[0,1), [1,2), [2,4), [4,8) ...` up to
    /// `2^(levels-1)`; larger samples land in the last bucket.
    pub fn new(levels: usize) -> Self {
        Log2Histogram { buckets: vec![0; levels.max(2)], summary: Summary::new() }
    }

    /// Record a sample.
    pub fn record(&mut self, sample: u64) {
        self.summary.record(sample);
        let idx = if sample == 0 {
            0
        } else {
            ((64 - sample.leading_zeros()) as usize).min(self.buckets.len() - 1)
        };
        self.buckets[idx] += 1;
    }

    /// Bucket counts (bucket `i` covers `[2^(i-1), 2^i)` except bucket 0
    /// which covers exactly `{0}` and the final bucket which is open-ended).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Streaming summary over all recorded samples.
    pub const fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Approximate `p`-quantile (`p` in `[0, 1]`) from bucket granularity:
    /// the inclusive upper bound of the bucket holding the `⌈p·n⌉`-th
    /// smallest sample, clamped to the exact observed maximum (so
    /// `percentile(1.0)` *is* the max). `None` if no samples were
    /// recorded.
    ///
    /// The power-of-two buckets make this an upper estimate within 2× of
    /// the true quantile — the right fidelity for the latency-tail
    /// reporting the paper does ("sporadic cases of single flits delivered
    /// with high latency", §II-A).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let n = self.summary.count();
        if n == 0 {
            return None;
        }
        let max = self.summary.max().expect("non-empty");
        let rank = ((p.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                // The final bucket is open-ended: its only known upper
                // bound is the observed maximum itself.
                if i + 1 == self.buckets.len() {
                    return Some(max);
                }
                // Bucket 0 holds exactly {0}; bucket i>0 covers
                // [2^(i-1), 2^i).
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return Some(upper.min(max));
            }
        }
        Some(max)
    }

    /// The p99.9 latency — the paper's "sporadic cases of single flits
    /// delivered with high latency" as a single number. Shorthand for
    /// [`Log2Histogram::percentile`]`(0.999)`; `None` if empty.
    pub fn p999(&self) -> Option<u64> {
        self.percentile(0.999)
    }

    /// Merge another histogram into this one, bucket by bucket.
    ///
    /// Used by the tiled cycle engine to fold per-tile latency histograms
    /// into the single histogram the sequential engine would have produced:
    /// bucket counts and the streaming summary are both plain sums/min/max,
    /// so the merge is commutative and the merged result is bit-identical
    /// to recording every sample into one histogram, whatever the tile
    /// order. If bucket counts differ, the merged histogram keeps the finer
    /// (longer) resolution.
    pub fn merge(&mut self, other: &Log2Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += *theirs;
        }
        self.summary.merge(&other.summary);
    }

    /// Fraction of samples at or above `threshold` approximated from bucket
    /// granularity (exact if `threshold` is a power of two).
    pub fn tail_fraction(&self, threshold: u64) -> f64 {
        if self.summary.count() == 0 {
            return 0.0;
        }
        let first = if threshold == 0 { 0 } else { (64 - threshold.leading_zeros()) as usize };
        let tail: u64 = self.buckets.iter().skip(first.min(self.buckets.len())).sum();
        tail as f64 / self.summary.count() as f64
    }
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new(20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.to_string(), "5");
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_none());
        assert!(s.min().is_none());
        assert!(s.max().is_none());
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    fn summary_records() {
        let mut s = Summary::new();
        for v in [3u64, 1, 8] {
            s.record(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(8));
        assert!((s.mean().unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn summary_merge() {
        let mut a = Summary::new();
        a.record(2);
        let mut b = Summary::new();
        b.record(10);
        b.record(4);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(2));
        assert_eq!(a.max(), Some(10));
        let empty = Summary::new();
        a.merge(&empty);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Log2Histogram::new(6);
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(3); // bucket 2
        h.record(1000); // clamped to last bucket
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[5], 1);
        assert_eq!(h.summary().count(), 4);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Log2Histogram::new(10);
        for _ in 0..98 {
            h.record(3); // bucket 2: [2, 4)
        }
        h.record(40); // bucket 6: [32, 64)
        h.record(100); // bucket 7: [64, 128)
        assert_eq!(h.percentile(0.5), Some(3), "p50 is bucket [2,4)'s upper bound");
        assert_eq!(h.percentile(0.98), Some(3));
        assert_eq!(h.percentile(0.99), Some(63));
        assert_eq!(h.percentile(1.0), Some(100), "p100 is the exact max");
        assert_eq!(Log2Histogram::default().percentile(0.5), None);
        // Single sample: every percentile is that sample.
        let mut one = Log2Histogram::new(6);
        one.record(7);
        assert_eq!(one.percentile(0.0), Some(7));
        assert_eq!(one.percentile(0.5), Some(7));
        // Samples overflowing into the open-ended final bucket report
        // the observed max, not the truncated 2^(levels-1)-1 bound.
        let mut clamped = Log2Histogram::new(4);
        clamped.record(100);
        assert_eq!(clamped.percentile(0.5), Some(100));
        assert_eq!(clamped.percentile(1.0), Some(100));
    }

    #[test]
    fn histogram_p999() {
        // Empty: no samples, no quantile.
        assert_eq!(Log2Histogram::new(6).p999(), None);
        // Single bucket occupied: p999 is that bucket's clamped bound —
        // here the exact (and only) sample.
        let mut one = Log2Histogram::new(6);
        one.record(5);
        assert_eq!(one.p999(), Some(5));
        // 999 small + 1 huge: the 999th of 1000 samples still lands in the
        // small bucket, so p999 reports the small bound; p100 sees the
        // outlier.
        let mut h = Log2Histogram::new(10);
        for _ in 0..999 {
            h.record(2);
        }
        h.record(5000);
        assert_eq!(h.p999(), Some(3), "bucket [2,4) upper bound");
        assert_eq!(h.percentile(1.0), Some(5000));
        // Saturating bucket: everything beyond 2^(levels-1) collapses into
        // the open-ended final bucket, whose only bound is the observed max.
        let mut sat = Log2Histogram::new(4);
        for v in [100u64, 200, 5000] {
            sat.record(v);
        }
        assert_eq!(sat.p999(), Some(5000));
    }

    #[test]
    fn histogram_merge_matches_single_recorder() {
        // Recording a sample stream into one histogram must equal recording
        // disjoint halves into two histograms and merging — the property the
        // tiled engine's stats reduction relies on.
        let samples = [0u64, 1, 3, 7, 40, 100, 1000, 2, 2, 65];
        let mut whole = Log2Histogram::new(10);
        for &s in &samples {
            whole.record(s);
        }
        let mut left = Log2Histogram::new(10);
        let mut right = Log2Histogram::new(10);
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                left.record(s)
            } else {
                right.record(s)
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
        // Merging an empty histogram is a no-op.
        left.merge(&Log2Histogram::new(10));
        assert_eq!(left, whole);
        // A longer histogram on the right widens the left.
        let mut short = Log2Histogram::new(4);
        short.record(1);
        let mut long = Log2Histogram::new(8);
        long.record(200);
        short.merge(&long);
        assert_eq!(short.buckets().len(), 8);
        assert_eq!(short.summary().count(), 2);
    }

    #[test]
    fn histogram_tail() {
        let mut h = Log2Histogram::new(10);
        for _ in 0..9 {
            h.record(1);
        }
        h.record(256);
        let tail = h.tail_fraction(256);
        assert!((tail - 0.1).abs() < 1e-12, "tail={tail}");
        assert_eq!(Log2Histogram::default().tail_fraction(4), 0.0);
    }
}
