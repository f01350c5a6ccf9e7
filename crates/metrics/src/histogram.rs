//! Log-linear latency histograms: lock-free recording, real tail
//! percentiles, Prometheus-style exposition.
//!
//! The layout is HdrHistogram's: values are integer nanoseconds, exact
//! below 128 ns, and above that each power of two (octave) splits into 64
//! equal sub-buckets, so a reported value is never more than 1/64 ≈ 1.6 %
//! above the true one.  Every bucket is an *inclusive upper* range —
//! bucket boundaries sit on `v − 1` — which puts each octave boundary
//! 2^k ns at the top of a bucket.  Folding whole octaves therefore yields
//! exact Prometheus `le` counts with no split sub-bucket.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Values (ns, offset by one) below this get one bucket each — exact.
const LINEAR: u64 = 128;
/// Sub-buckets per octave above the linear range.
const SUB: u64 = 64;
/// Octaves above the linear range: 2^7 … 2^40 ns.
const OCTAVES: u64 = 34;
/// Largest recordable value, 2^41 ns ≈ 36.6 min.  Longer durations
/// saturate to it (in the buckets, the sum and the max alike).
const CEILING_NS: u64 = 1 << 41;
/// One bucket for zero, the linear range, then the octaves.
const BUCKETS: usize = (1 + LINEAR + OCTAVES * SUB) as usize;
/// The exposed `le` edges are 2^FIRST_EDGE ns (≈ 1 µs) … 2^LAST_EDGE ns
/// (≈ 17 s), EDGES of them; the `+Inf` edge is implicit.
const FIRST_EDGE: u32 = 10;
const LAST_EDGE: u32 = 34;
const EDGES: usize = (LAST_EDGE - FIRST_EDGE + 1) as usize;

/// Bucket holding `ns` (which must be `<= CEILING_NS`).
fn index(ns: u64) -> usize {
    // Bucket 0 holds exactly zero; the rest are keyed by `ns - 1`.
    let Some(x) = ns.checked_sub(1) else { return 0 };
    let i = if x < LINEAR {
        x
    } else {
        // Top set bit m >= 7; the 6 bits below it pick the sub-bucket.
        let m = 63 - u64::from(x.leading_zeros());
        LINEAR + (m - 7) * SUB + ((x >> (m - 6)) & (SUB - 1))
    };
    1 + i as usize
}

/// Largest value (ns) that lands in bucket `i`.
fn upper_bound(i: usize) -> u64 {
    let Some(j) = (i as u64).checked_sub(1) else { return 0 };
    if j < LINEAR {
        return j + 1;
    }
    let m = (j - LINEAR) / SUB + 7;
    let sub = (j - LINEAR) % SUB;
    (1 << m) + ((sub + 1) << (m - 6))
}

/// First bucket *above* the `le = 2^k ns` edge.
fn edge_end(k: u32) -> usize {
    1 + (LINEAR + u64::from(k - 7) * SUB) as usize
}

/// A log-linear histogram of durations, safe to record into from any
/// number of threads.
///
/// Recording is O(1): one relaxed `fetch_add` on the bucket, one on the
/// integer-nanosecond sum, and a `fetch_max` only when the value is a new
/// maximum.  The bucket array (~18 KiB) is allocated once, by
/// [`Histogram::new`].
pub struct Histogram {
    /// Per-bucket counts, laid out as described in the module docs.
    counts: Box<[AtomicU64]>,
    /// Σ of recorded values, ns.
    sum_ns: AtomicU64,
    /// Largest recorded value, ns.
    max_ns: AtomicU64,
}

/// A point-in-time copy of a histogram's exposed state (taken at render
/// time).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// The inclusive upper `le` edges in seconds (without `+Inf`).
    pub bounds: Vec<f64>,
    /// *Cumulative* counts per edge, ending with the `+Inf` total.
    pub cumulative: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of observed values, seconds.
    pub sum: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum_ns", &self.sum_ns.load(Ordering::Relaxed))
            .field("max_ns", &self.max_ns.load(Ordering::Relaxed))
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one duration.
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).map_or(CEILING_NS, |n| n.min(CEILING_NS));
        if let Some(c) = self.counts.get(index(ns)) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        // `fetch_max` is a CAS loop on x86; a plain load skips it for every
        // value that is not a new maximum, which is nearly all of them.
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Folds the buckets into the exposed `le` edges.  Individual loads
    /// are relaxed, so a snapshot taken concurrently with observations
    /// may be mid-update by a few counts — fine for monitoring, which is
    /// the only consumer.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut bounds = Vec::with_capacity(EDGES);
        let mut cumulative = Vec::with_capacity(EDGES + 1);
        let mut running = 0u64;
        let mut next = 0usize;
        for k in FIRST_EDGE..=LAST_EDGE {
            let end = edge_end(k);
            running = self.sum_counts(next..end, running);
            next = end;
            bounds.push((1u64 << k) as f64 / 1e9);
            cumulative.push(running);
        }
        let count = self.sum_counts(next..BUCKETS, running);
        cumulative.push(count);
        HistogramSnapshot { bounds, cumulative, count, sum: self.sum_ns() as f64 / 1e9 }
    }

    /// `start` plus the counts of the buckets in `range`.
    fn sum_counts(&self, range: std::ops::Range<usize>, start: u64) -> u64 {
        self.counts
            .get(range)
            .unwrap_or_default()
            .iter()
            .fold(start, |acc, c| acc.saturating_add(c.load(Ordering::Relaxed)))
    }

    fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Total number of observations so far.
    pub fn count(&self) -> u64 {
        self.sum_counts(0..BUCKETS, 0)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<Duration> {
        (self.count() > 0).then(|| Duration::from_nanos(self.max_ns.load(Ordering::Relaxed)))
    }

    /// Arithmetic mean of the observations; `None` when empty.
    pub fn mean(&self) -> Option<Duration> {
        let n = self.count();
        (n > 0).then(|| Duration::from_nanos(self.sum_ns() / n))
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the ⌈q·n⌉-th smallest observation, capped at the largest
    /// one.  Never below the exact sample quantile, and at most 1/64
    /// above it.
    ///
    /// `None` when nothing was recorded — an empty histogram has no p999,
    /// and a fabricated zero would read as "everything was instant".
    /// With a single sample every quantile is that sample.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let max = self.max_ns.load(Ordering::Relaxed);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c.load(Ordering::Relaxed));
            if seen >= rank {
                return Some(Duration::from_nanos(upper_bound(i).min(max)));
            }
        }
        Some(Duration::from_nanos(max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn ns(v: u64) -> Duration {
        Duration::from_nanos(v)
    }

    #[test]
    fn layout_is_consistent() {
        assert_eq!(index(0), 0);
        assert_eq!(upper_bound(0), 0);
        assert_eq!(index(CEILING_NS), BUCKETS - 1);
        assert_eq!(upper_bound(BUCKETS - 1), CEILING_NS);
        for i in 1..BUCKETS {
            let hi = upper_bound(i);
            // Each bucket's upper bound maps back to it, and the next
            // value starts the next bucket.
            assert_eq!(index(hi), i, "bucket {i}");
            if i + 1 < BUCKETS {
                assert_eq!(index(hi + 1), i + 1, "bucket {i}");
            }
        }
        // Octave edges close a bucket: 2^k is the last value of the
        // folded range, 2^k + 1 the first value past it.
        for k in FIRST_EDGE..=LAST_EDGE {
            assert_eq!(index(1 << k), edge_end(k) - 1, "k={k}");
            assert_eq!(index((1 << k) + 1), edge_end(k), "k={k}");
        }
    }

    #[test]
    fn empty_reports_nothing() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), None, "q={q}");
        }
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert!(s.cumulative.iter().all(|&c| c == 0));
    }

    /// A single sample defines every quantile: the answer is that sample,
    /// never a fabricated tail value.
    #[test]
    fn one_sample_answers_every_quantile_with_it() {
        let h = Histogram::new();
        h.observe_duration(Duration::from_micros(77));
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), Some(Duration::from_micros(77)), "q={q}");
        }
        assert_eq!(h.max(), Some(Duration::from_micros(77)));
        assert_eq!(h.mean(), Some(Duration::from_micros(77)));
    }

    #[test]
    fn linear_range_is_exact() {
        let h = Histogram::new();
        for v in 0..=LINEAR {
            h.observe_duration(ns(v));
        }
        assert_eq!(h.quantile(0.5), Some(ns(LINEAR / 2)));
        assert_eq!(h.quantile(1.0), Some(ns(LINEAR)));
        assert_eq!(h.quantile(0.0), Some(ns(0)));
    }

    #[test]
    fn log_range_error_is_bounded() {
        for v in [200u64, 1_000, 10_000, 123_456, 5_000_000, 987_654_321_000] {
            let solo = Histogram::new();
            solo.observe_duration(ns(v));
            solo.observe_duration(ns(v * 2));
            let got = solo.quantile(0.5).expect("samples recorded").as_nanos() as u64;
            assert!(got >= v && (got - v) * 64 <= v, "{v} -> {got}");
        }
    }

    #[test]
    fn quantiles_are_monotone_and_ordered() {
        let h = Histogram::new();
        for i in 0..10_000u64 {
            h.observe_duration(Duration::from_micros(i * 7 % 90_000));
        }
        let q = |q: f64| h.quantile(q).expect("samples recorded");
        let (p50, p90, p99, p999) = (q(0.50), q(0.90), q(0.99), q(0.999));
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999, "{p50:?} {p90:?} {p99:?} {p999:?}");
        assert!(Some(p999) <= h.max());
    }

    #[test]
    fn huge_values_saturate_instead_of_panicking() {
        let h = Histogram::new();
        h.observe_duration(Duration::MAX);
        h.observe_duration(Duration::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(ns(CEILING_NS)));
        assert_eq!(h.quantile(0.5), Some(ns(CEILING_NS)));
        assert_eq!(h.snapshot().sum, 2.0 * CEILING_NS as f64 / 1e9);
    }

    #[test]
    fn edges_are_inclusive_upper_bounds() {
        let h = Histogram::new();
        h.observe_duration(ns(1 << 10));
        h.observe_duration(ns((1 << 10) + 1));
        h.observe_duration(ns(1 << 40));
        let s = h.snapshot();
        assert_eq!(s.bounds.first(), Some(&1.024e-6));
        assert_eq!(s.bounds.len(), EDGES);
        assert_eq!(s.cumulative.first(), Some(&1));
        assert_eq!(s.cumulative.get(1), Some(&2));
        // Past the last edge only +Inf counts it.
        assert_eq!(s.cumulative.iter().rev().nth(1), Some(&2));
        assert_eq!(s.cumulative.last(), Some(&3));
    }

    #[test]
    fn concurrent_observations_are_exact() {
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let h = h.clone();
                std::thread::spawn(move || {
                    // Half the threads stay under the 2^18 ns edge, half
                    // land above it.
                    let v = if i % 2 == 0 { ns(250_000) } else { ns(750_000) };
                    for _ in 0..10_000 {
                        h.observe_duration(v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 80_000);
        let at = |k: u32| s.cumulative.get((k - FIRST_EDGE) as usize).copied();
        assert_eq!(at(17), Some(0));
        assert_eq!(at(18), Some(40_000));
        assert_eq!(at(20), Some(80_000));
        // The integer-ns sum is exact, not a rounded float accumulation.
        assert_eq!(h.sum_ns(), 40_000 * 250_000 + 40_000 * 750_000);
        assert_eq!(h.mean(), Some(ns(500_000)));
        assert_eq!(h.max(), Some(ns(750_000)));
    }

    /// Sample values spread over the whole range, with extra weight on
    /// the exposed edges and their neighbours.
    fn sample(kind: u8, exp: u32, r: u64) -> u64 {
        let k = FIRST_EDGE + exp % EDGES as u32;
        match kind {
            0 => 1 << k,
            1 => (1 << k) + 1,
            2 => (1 << k) - 1,
            _ => r % (1 << (exp % 37)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn quantiles_track_a_sorted_reference(
            raw in prop::collection::vec((0u8..6, 0u32..64, any::<u64>()), 1..400),
        ) {
            let h = Histogram::new();
            let mut sorted: Vec<u64> = raw.iter().map(|&(k, e, r)| sample(k, e, r)).collect();
            for &v in &sorted {
                h.observe_duration(ns(v));
            }
            sorted.sort_unstable();
            let n = sorted.len() as u64;
            let max = *sorted.last().expect("non-empty");
            prop_assert_eq!(h.max(), Some(ns(max)));
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
                let exact = sorted[(rank - 1) as usize];
                let got = h.quantile(q).expect("non-empty").as_nanos() as u64;
                prop_assert!(got >= exact && (got - exact) * 64 <= exact,
                    "q={} exact={} got={}", q, exact, got);
                prop_assert!(got <= max, "q={} got={} max={}", q, got, max);
            }
        }

        #[test]
        fn exposed_le_counts_are_exact(
            raw in prop::collection::vec((0u8..6, 0u32..64, any::<u64>()), 0..400),
        ) {
            let registry = crate::Registry::new();
            let h = registry.histogram("x_seconds", "x");
            let samples: Vec<u64> = raw.iter().map(|&(k, e, r)| sample(k, e, r)).collect();
            for &v in &samples {
                h.observe_duration(ns(v));
            }
            let text = registry.render_text();
            let mut edges = 0;
            for line in text.lines().filter(|l| l.starts_with("x_seconds_bucket")) {
                let (le, count) = line
                    .strip_prefix("x_seconds_bucket{le=\"")
                    .and_then(|rest| rest.split_once("\"} "))
                    .expect("bucket line shape");
                let count: usize = count.parse().expect("integer count");
                if le == "+Inf" {
                    prop_assert_eq!(count, samples.len());
                    continue;
                }
                let edge = (le.parse::<f64>().expect("numeric le") * 1e9).round() as u64;
                prop_assert!(edge.is_power_of_two(), "le {} is not 2^k ns", le);
                let exact = samples.iter().filter(|&&v| v <= edge).count();
                prop_assert_eq!(count, exact, "le={}", le);
                edges += 1;
            }
            prop_assert_eq!(edges, EDGES);
        }
    }
}
