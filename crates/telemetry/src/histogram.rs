//! Log-linear latency histograms.
//!
//! Values (nanoseconds) are binned into octave groups, each split into 16
//! linear sub-buckets, giving a worst-case quantile error of ~6% while
//! keeping recording a couple of shifts plus one relaxed `fetch_add`.
//! Values `0..16` get exact unit-width buckets; everything at or above
//! [`MAX_TRACKABLE`] (~18 minutes) is clamped into the top bucket.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave group (must stay a power of two).
const SUB: usize = 16;
const SUB_BITS: u32 = 4;
/// Highest bit position tracked with full resolution; `2^(MAX_K+1) - 1`
/// nanoseconds is the largest distinguishable value.
const MAX_K: u32 = 40;
/// Values at or above this clamp into the final bucket.
pub const MAX_TRACKABLE: u64 = (1 << (MAX_K + 1)) - 1;
const NUM_BUCKETS: usize = ((MAX_K - SUB_BITS + 1) as usize + 1) * SUB;

fn bucket_index(v: u64) -> usize {
    let v = v.min(MAX_TRACKABLE);
    if v < SUB as u64 {
        return v as usize;
    }
    let k = 63 - v.leading_zeros();
    let group = (k - SUB_BITS + 1) as usize;
    let sub = ((v >> (k - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    group * SUB + sub
}

/// Inclusive value range covered by bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, i as u64);
    }
    let group = (i / SUB) as u32;
    let sub = (i % SUB) as u64;
    let k = group + SUB_BITS - 1;
    let width = 1u64 << (k - SUB_BITS);
    let lo = (1u64 << k) + sub * width;
    (lo, lo + width - 1)
}

/// A concurrent log-linear histogram of `u64` samples (nanoseconds by
/// convention throughout this crate).
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not Copy; build the array through a Vec.
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> = buckets
            .into_boxed_slice()
            .try_into()
            .expect("length fixed above");
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record the wall-clock duration of a scope; see [`crate::span::SpanTimer`].
    #[inline]
    pub fn span(&self) -> crate::span::SpanTimer<'_> {
        crate::span::SpanTimer::new(self)
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                let (lo, hi) = bucket_bounds(i);
                buckets.push(Bucket { lo, hi, count: n });
            }
        }
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// One non-empty bucket in a [`HistogramSnapshot`]: samples in `lo..=hi`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `HistogramSnapshot::buckets`
pub struct Bucket {
    pub lo: u64,
    pub hi: u64,
    pub count: u64,
}

/// An immutable copy of a histogram, with quantile estimation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Non-empty buckets in increasing value order.
    pub buckets: Vec<Bucket>,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0..=1.0`); 0 when empty.
    ///
    /// Returns the midpoint of the bucket holding the target rank,
    /// clamped to the observed `[min, max]`, so estimates are monotone
    /// in `q` and never leave the observed range.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return (b.lo + (b.hi - b.lo) / 2).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded samples; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_bounds_agree() {
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi of bucket {i}");
        }
        assert_eq!(bucket_index(MAX_TRACKABLE), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1us .. 1ms
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        // Log-linear resolution: within ~7% of the true quantile.
        assert!((450_000..=550_000).contains(&p50), "p50 = {p50}");
        assert!((920_000..=1_000_000).contains(&p99), "p99 = {p99}");
        assert!(s.quantile(0.0) >= s.min && s.quantile(1.0) <= s.max);
    }

    #[test]
    fn conservation_of_samples() {
        let h = Histogram::new();
        for v in [0, 1, 15, 16, 17, 1_000, 65_535, 1 << 30, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets.iter().map(|b| b.count).sum::<u64>(), s.count);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
    }
}
