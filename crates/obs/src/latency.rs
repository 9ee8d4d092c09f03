//! HDR-style log-bucketed histogram with quantile extraction — the one
//! histogram type of `gvex-obs`.
//!
//! Span aggregation (min/mean/max) answers "how slow was the worst call",
//! but SLOs are phrased in percentiles — p99 of a request, not its maximum.
//! [`Hist`] records `u64` values (nanoseconds for spans and requests, the
//! caller's unit for [`crate::histogram!`] metrics) into log-spaced buckets
//! with a bounded relative error and extracts p50/p90/p99/p999 by a
//! cumulative walk, streaming-friendly: `record` is O(1), memory is a fixed
//! table.
//!
//! Bucket layout (the classic HDR shape, hand-rolled):
//!
//! * values `0..8` get exact unit buckets;
//! * every power-of-two octave above that is split into 8 linear
//!   sub-buckets, so any recorded value is over-estimated by at most
//!   **12.5%** when read back out of its bucket upper bound.
//!
//! The full `u64` range is covered (8 + 61·8 = 496 buckets), so no value
//! overflows; allocation is lazy, so an empty histogram is two machine
//! words.

/// Values below this get exact unit buckets.
const LINEAR_MAX: u64 = 8;
/// log2 of the sub-buckets per octave (8 ⇒ ≤ 12.5% relative error).
const SUB_BITS: u32 = 3;
/// Total bucket count covering all of `u64`.
pub const BUCKETS: usize = LINEAR_MAX as usize + (64 - SUB_BITS as usize) * (1 << SUB_BITS);

/// Index of the bucket `value` falls into (total order, full `u64`
/// coverage).
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value < LINEAR_MAX {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // >= SUB_BITS because value >= 8
    let sub = ((value >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
    LINEAR_MAX as usize + ((exp - SUB_BITS) as usize) * (1 << SUB_BITS) + sub
}

/// Largest value that lands in bucket `index` — what quantile extraction
/// reports, so percentiles over-estimate by at most one bucket width.
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index < LINEAR_MAX as usize {
        return index as u64;
    }
    let octave = (index - LINEAR_MAX as usize) / (1 << SUB_BITS);
    let sub = ((index - LINEAR_MAX as usize) % (1 << SUB_BITS)) as u64;
    let exp = octave as u32 + SUB_BITS;
    let width = 1u64 << (exp - SUB_BITS);
    let lower = (1u64 << exp) + sub * width;
    lower.saturating_add(width - 1)
}

/// A streaming log-bucketed histogram of `u64` values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Hist {
    /// Per-bucket counts; empty until the first record, `BUCKETS` long after.
    counts: Vec<u64>,
    count: u64,
}

impl Hist {
    /// An empty histogram (no bucket table allocated yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value. O(1); allocates the bucket table on first use.
    pub fn record(&mut self, value: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket_of(value)] += 1;
        self.count += 1;
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds `other` into `self` bucket-wise.
    pub fn merge(&mut self, other: &Hist) {
        if other.counts.is_empty() {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding the rank-⌈q·n⌉ value — over-estimates by ≤ 12.5%. Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }

    /// `(p50, p90, p99, p999)` in the recorded unit — the report's fixed
    /// set.
    pub fn percentiles(&self) -> (u64, u64, u64, u64) {
        (self.quantile(0.50), self.quantile(0.90), self.quantile(0.99), self.quantile(0.999))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..8u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_upper_bound(bucket_of(v)), v);
        }
        let mut h = Hist::new();
        h.record(3);
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 3);
    }

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut prev = 0;
        for v in [0u64, 1, 7, 8, 9, 15, 16, 100, 1_000, 1 << 20, 1 << 40, u64::MAX / 2, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket index must be monotone in value ({v})");
            assert!(b < BUCKETS);
            assert!(bucket_upper_bound(b) >= v, "upper bound below the value ({v})");
            prev = b;
        }
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn relative_error_is_bounded() {
        // the bucket upper bound over-estimates by at most 12.5%
        for v in (8u64..1 << 24).step_by(997) {
            let ub = bucket_upper_bound(bucket_of(v)) as f64;
            assert!(ub >= v as f64);
            assert!(ub <= v as f64 * 1.125, "bound {ub} too loose for {v}");
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs .. 1ms, uniform
        }
        assert_eq!(h.count(), 1000);
        let (p50, p90, p99, p999) = h.percentiles();
        for (q, got) in [(0.5, p50), (0.9, p90), (0.99, p99), (0.999, p999)] {
            let exact = (q * 1000.0) as u64 * 1000;
            assert!(got as f64 >= exact as f64 * 0.99, "p{q} {got} under exact {exact}");
            assert!(got as f64 <= exact as f64 * 1.125, "p{q} {got} above error bound");
        }
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        a.record(10);
        b.record(10);
        b.record(1 << 30);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.quantile(0.5), bucket_upper_bound(bucket_of(10)));
        a.merge(&Hist::new()); // merging an empty hist is a no-op
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
    }
}
