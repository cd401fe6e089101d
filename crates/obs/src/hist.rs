//! Deterministic log-bucketed histograms for bounded-memory telemetry.
//!
//! [`Hist`] is the one aggregation primitive every streaming consumer
//! shares: a fixed-size log-linear (HDR-style) bucket array plus exact
//! integer `count`/`sum`/`min`/`max`. Values below 16 land in exact
//! unit buckets; above that each power-of-two decade is split into 16
//! sub-buckets, bounding the relative quantile error at 1/16 (6.25%)
//! while keeping the footprint a compile-time constant. Everything is
//! integer arithmetic on `u64`, so merging histograms or replaying the same
//! event stream in any order yields byte-identical state.

/// log2 of the sub-buckets per power-of-two decade.
const SUB_BITS: u32 = 4;
/// Sub-buckets per decade (16).
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count: 16 exact unit buckets for `v < 16`, then 16
/// sub-buckets for each exponent 4..=63 — `(64 - 4 + 1) * 16 = 976`.
pub const HIST_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Bucket index for a value: exact below `SUB`, log-linear above.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // e >= SUB_BITS
    let sub = ((v >> (e - SUB_BITS)) as usize) - SUB; // 0..SUB
    ((e - SUB_BITS + 1) as usize) * SUB + sub
}

/// Lowest value mapping to bucket `i` (the inverse of [`bucket_of`]).
#[inline]
fn bucket_low(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let e = (i / SUB) as u32 + SUB_BITS - 1;
    let sub = (i % SUB) as u64;
    (1u64 << e) + (sub << (e - SUB_BITS))
}

/// A mergeable log-bucketed histogram with exact integer summary
/// counters. `O(HIST_BUCKETS)` memory regardless of how many values are
/// recorded; all state is `u64`, so it is deterministic under any
/// recording order and under merges.
#[derive(Clone, PartialEq, Eq)]
pub struct Hist {
    counts: Box<[u64; HIST_BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist {
            counts: Box::new([0; HIST_BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram in, elementwise. Merging is commutative
    /// and associative, so merge order never shows in the result.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest recorded value.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest recorded value.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Integer mean (rounds down).
    pub fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| self.sum / self.count)
    }

    /// Nearest-rank percentile estimate: walks the cumulative bucket
    /// counts to the bucket holding the target rank and reports that
    /// bucket's lower bound, clamped into the exact `[min, max]` range
    /// (so single-bucket tails report exact values). Relative error is
    /// bounded by the 1/16 sub-bucket width.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let target = nearest_rank(self.count as usize, q)? as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_low(i).clamp(self.min, self.max));
            }
        }
        Some(self.max) // unreachable: count > 0 guarantees the walk hits
    }

    /// Occupied buckets as `(lower_bound, count)` pairs, ascending —
    /// the sparse serialization form.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_low(i), c))
    }

    /// Rebuild from the sparse `(lower_bound, count)` form plus exact
    /// counters. Bounds that are not a bucket lower bound are rejected.
    pub fn from_parts(
        buckets: &[(u64, u64)],
        sum: u64,
        min: u64,
        max: u64,
    ) -> Result<Hist, String> {
        let mut h = Hist::new();
        for &(low, c) in buckets {
            let i = bucket_of(low);
            if bucket_low(i) != low {
                return Err(format!("{low} is not a histogram bucket bound"));
            }
            h.counts[i] += c;
            h.count += c;
        }
        h.sum = sum;
        h.min = if h.count > 0 { min } else { u64::MAX };
        h.max = max;
        Ok(h)
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Hist {{ count: {}, sum: {}, min: {:?}, max: {:?} }}",
            self.count,
            self.sum,
            self.min(),
            self.max()
        )
    }
}

/// 1-based nearest rank for percentile `q` of `n` items: `⌈q/100·n⌉`
/// clamped to `1..=n`. `None` when `n == 0` — the total replacement for
/// the old panicking clamp.
pub fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some(((q / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

/// Exact nearest-rank percentile over an already-sorted slice. Total:
/// empty input yields `None` instead of the former panic.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    nearest_rank(sorted.len(), q).map(|rank| sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_inverts() {
        // Exact below 16, and bucket_low is a left inverse everywhere.
        for v in 0..16u64 {
            assert_eq!(bucket_of(v), v as usize);
        }
        let mut vals: Vec<u64> = (0..63u32)
            .flat_map(|e| [1u64 << e, (1u64 << e) + 1, (1u64 << (e + 1)) - 1])
            .collect();
        vals.sort_unstable();
        let mut prev = 0usize;
        for v in vals {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket index regressed at {v}");
            prev = b;
            assert!(b < HIST_BUCKETS);
            let low = bucket_low(b);
            assert_eq!(bucket_of(low), b, "bucket_low not in its own bucket");
            assert!(low <= v, "lower bound above value at {v}");
        }
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [17u64, 1000, 123_456, 987_654_321, 1 << 50] {
            let low = bucket_low(bucket_of(v));
            assert!(low <= v && (v - low) as f64 <= v as f64 / 16.0, "{v}");
        }
    }

    #[test]
    fn counters_are_exact_and_percentiles_bounded() {
        let mut h = Hist::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.sum(), 10_000 * 10_001 / 2);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(10_000));
        for q in [50.0, 90.0, 99.0, 100.0] {
            let exact = f64::ceil(q / 100.0 * 10_000.0);
            let got = h.percentile(q).unwrap() as f64;
            assert!(
                got <= exact && got >= exact * (1.0 - 1.0 / 16.0) - 1.0,
                "p{q}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn empty_hist_is_total() {
        let h = Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn merge_equals_interleaved_recording() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut whole = Hist::new();
        for i in 0..5000u64 {
            let v = (i * 2654435761) % 1_000_003;
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn sparse_round_trip() {
        let mut h = Hist::new();
        for v in [0u64, 3, 17, 900, 1 << 40] {
            h.record(v);
            h.record(v);
        }
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        let back = Hist::from_parts(&buckets, h.sum(), h.min().unwrap(), h.max().unwrap())
            .expect("round trip");
        assert_eq!(back, h);
        assert!(Hist::from_parts(&[(1 << 40 | 1, 1)], 0, 0, 0).is_err());
    }

    #[test]
    fn nearest_rank_percentile_is_total() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[5], 50.0), Some(5));
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 50.0), Some(3));
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 99.0), Some(5));
        assert_eq!(percentile(&[1, 2], 10.0), Some(1));
    }
}
