//! Log-bucketed histograms for long-tailed simulation outputs.
//!
//! Deadline-miss analysis cares about the lateness *tail*, not just the
//! mean: a scheduler can improve the mean while wrecking p99. This is an
//! HDR-style histogram — geometric buckets with a configurable precision —
//! giving bounded relative error on quantiles with O(1) recording and a
//! few KB of memory, deterministic across platforms.

/// A histogram over non-negative `f64` values with geometric buckets.
///
/// Values are bucketed as `floor(log_gamma(value / min))` where
/// `gamma = 1 + precision`; quantiles are reported as the geometric
/// midpoint of their bucket, so the relative error is at most
/// `precision / 2`.
#[derive(Debug, Clone)]
pub struct Histogram {
    min_value: f64,
    log_gamma: f64,
    gamma: f64,
    counts: Vec<u64>,
    /// Values in `[0, min_value)` (including exact zeros, which dominate
    /// tardiness data: most transactions are on time).
    underflow: u64,
    total: u64,
    max_seen: f64,
    sum: f64,
}

impl Histogram {
    /// Histogram tracking values down to `min_value` with the given
    /// relative `precision` (e.g. `0.01` = 1% buckets).
    ///
    /// # Panics
    /// Panics unless `min_value > 0` and `0 < precision < 1`.
    pub fn new(min_value: f64, precision: f64) -> Self {
        assert!(min_value > 0.0, "min_value must be positive");
        assert!(
            precision > 0.0 && precision < 1.0,
            "precision must be in (0,1)"
        );
        let gamma = 1.0 + precision;
        Histogram {
            min_value,
            log_gamma: gamma.ln(),
            gamma,
            counts: Vec::new(),
            underflow: 0,
            total: 0,
            max_seen: 0.0,
            sum: 0.0,
        }
    }

    /// A histogram suited to millisecond latencies: 10 µs floor, 1%
    /// relative precision.
    pub fn for_latency_ms() -> Self {
        Histogram::new(0.01, 0.01)
    }

    /// Record one value (negative values are clamped to zero).
    pub fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        self.total += 1;
        self.sum += v;
        if v > self.max_seen {
            self.max_seen = v;
        }
        if v < self.min_value {
            self.underflow += 1;
            return;
        }
        let bucket = ((v / self.min_value).ln() / self.log_gamma) as usize;
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded values (exact, not bucketed).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> f64 {
        self.max_seen
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), approximated to the bucket
    /// precision. Returns 0 for an empty histogram.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.total == 0 {
            return 0.0;
        }
        // Rank of the target observation (1-based), clamped into range.
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        if rank <= self.underflow {
            // Within the underflow mass; report 0 (on-time transactions).
            return 0.0;
        }
        let mut cum = self.underflow;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                // Geometric midpoint of bucket i.
                let lo = self.min_value * self.gamma.powi(i as i32);
                return lo * self.gamma.sqrt();
            }
        }
        self.max_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::for_latency_ms();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = Histogram::new(0.01, 0.01);
        // Uniform 1..=10000 (ms).
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        for (q, expect) in [(0.5, 5000.0), (0.9, 9000.0), (0.99, 9900.0)] {
            let got = h.quantile(q);
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.02, "q={q}: got {got}, expect {expect}");
        }
        assert_eq!(h.max(), 10_000.0);
        assert!((h.mean() - 5000.5).abs() < 1e-9);
    }

    #[test]
    fn zeros_dominate_like_tardiness_data() {
        let mut h = Histogram::for_latency_ms();
        for _ in 0..90 {
            h.record(0.0);
        }
        for _ in 0..10 {
            h.record(100.0);
        }
        assert_eq!(h.quantile(0.5), 0.0, "median transaction is on time");
        assert_eq!(h.quantile(0.9), 0.0);
        let p95 = h.quantile(0.95);
        assert!((p95 - 100.0).abs() / 100.0 < 0.02, "p95 {p95}");
    }

    #[test]
    fn negative_values_clamped() {
        let mut h = Histogram::for_latency_ms();
        h.record(-5.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(1.0), 0.0);
    }

    #[test]
    fn quantile_extremes() {
        let mut h = Histogram::for_latency_ms();
        for v in [1.0, 2.0, 3.0] {
            h.record(v);
        }
        let q0 = h.quantile(0.0);
        assert!((q0 - 1.0).abs() / 1.0 < 0.02, "q0 {q0}");
        let q1 = h.quantile(1.0);
        assert!((q1 - 3.0).abs() / 3.0 < 0.02, "q1 {q1}");
    }

    #[test]
    fn single_sample_pins_every_quantile() {
        let mut h = Histogram::for_latency_ms();
        h.record(42.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 42.0);
        assert_eq!(h.max(), 42.0);
        // With one observation, every quantile names the same bucket —
        // reported to bucket precision.
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let got = h.quantile(q);
            assert!((got - 42.0).abs() / 42.0 < 0.02, "q={q}: got {got}");
        }
    }

    #[test]
    fn saturated_bucket_keeps_quantiles_flat() {
        // Heavy identical load: a single bucket holds all the mass, so
        // the whole quantile curve is flat at that bucket's midpoint and
        // none of the cumulative walks overflow or fall off the end.
        let mut h = Histogram::for_latency_ms();
        for _ in 0..1_000_000 {
            h.record(7.5);
        }
        assert_eq!(h.count(), 1_000_000);
        assert_eq!(h.max(), 7.5);
        let median = h.quantile(0.5);
        assert!((median - 7.5).abs() / 7.5 < 0.02, "median {median}");
        for q in [0.0, 0.1, 0.9, 0.999, 1.0] {
            assert_eq!(h.quantile(q), median, "flat curve at q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn quantile_range_checked() {
        Histogram::for_latency_ms().quantile(1.5);
    }
}
