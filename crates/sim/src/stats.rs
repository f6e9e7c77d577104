//! Statistics collection for simulation output analysis.
//!
//! Three layers, mirroring how the paper reports results:
//!
//! * [`Accumulator`] — within-run online mean/variance (Welford) for
//!   per-transaction observations (lateness, restarts, …);
//! * [`TimeWeighted`] — within-run time-integrated averages for state
//!   variables (P-list length, disk utilization, queue lengths);
//! * [`Replications`] — across-run aggregation with Student-t confidence
//!   intervals ("the result were collected and averaged over the 10 runs").

use std::fmt;

/// Online accumulator for scalar observations (Welford's algorithm).
///
/// Numerically stable single-pass mean and variance; also tracks extrema
/// and sum so callers can derive rates.
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Accumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty, so ratios of empty runs stay finite).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

impl fmt::Display for Accumulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} std={:.4}",
            self.n,
            self.mean(),
            self.std_dev()
        )
    }
}

/// Time-weighted average of a piecewise-constant state variable.
///
/// Feed it `(time, new_value)` transitions; it integrates the previous
/// value over the elapsed span. Used for P-list length ("the average
/// number of partially executed transactions is 1 to 2", §4.1) and disk
/// utilization (§5).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: f64,
    value: f64,
    integral: f64,
    start: f64,
    max: f64,
}

impl TimeWeighted {
    /// Start integrating at `start_time` with initial value `initial`.
    pub fn new(start_time: f64, initial: f64) -> Self {
        TimeWeighted {
            last_time: start_time,
            value: initial,
            integral: 0.0,
            start: start_time,
            max: initial,
        }
    }

    /// Record that the variable changed to `value` at time `time`.
    ///
    /// # Panics
    /// Panics (debug) if `time` moves backwards.
    pub fn set(&mut self, time: f64, value: f64) {
        debug_assert!(time >= self.last_time, "TimeWeighted time went backwards");
        self.integral += self.value * (time - self.last_time);
        self.last_time = time;
        self.value = value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Add `delta` to the current value at `time` (convenience for
    /// counters like queue lengths).
    pub fn add(&mut self, time: f64, delta: f64) {
        let v = self.value + delta;
        self.set(time, v);
    }

    /// Current value of the state variable.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Largest value seen.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Time-weighted mean over `[start_time, end]`.
    pub fn mean_until(&self, end: f64) -> f64 {
        let span = end - self.start;
        if span <= 0.0 {
            return self.value;
        }
        (self.integral + self.value * (end - self.last_time)) / span
    }
}

/// Across-replication aggregation of one output metric.
///
/// Each replication contributes a single number (e.g. that run's miss
/// percentage); the summary is mean ± half-width of a 95% Student-t
/// confidence interval.
#[derive(Debug, Clone, Default)]
pub struct Replications {
    values: Vec<f64>,
}

/// Point estimate with a 95% confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Mean across replications.
    pub mean: f64,
    /// Half-width of the 95% CI (0 for a single replication).
    pub half_width: f64,
    /// Number of replications.
    pub n: usize,
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ± {:.3}", self.mean, self.half_width)
    }
}

/// Two-sided 97.5% quantiles of the Student-t distribution for
/// `df = 1..=30`; beyond 30 the normal approximation 1.96 is used.
const T_975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

impl Replications {
    /// Empty set of replications.
    pub fn new() -> Self {
        Replications { values: Vec::new() }
    }

    /// Record one replication's value.
    pub fn record(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Record every value from `values`, in iteration order.
    ///
    /// Equivalent to calling [`record`](Self::record) once per value;
    /// useful when a batch of replications was collected elsewhere (e.g.
    /// on worker threads) and is being folded back in a fixed order.
    pub fn record_all<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        self.values.extend(values);
    }

    /// Number of replications recorded.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Raw per-replication values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mean with 95% Student-t confidence half-width.
    pub fn estimate(&self) -> Estimate {
        let n = self.values.len();
        if n == 0 {
            return Estimate {
                mean: 0.0,
                half_width: 0.0,
                n: 0,
            };
        }
        let mean = self.values.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Estimate {
                mean,
                half_width: 0.0,
                n,
            };
        }
        let var = self
            .values
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        let df = n - 1;
        let t = if df <= 30 { T_975[df - 1] } else { 1.96 };
        Estimate {
            mean,
            half_width: t * (var / n as f64).sqrt(),
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_basic_moments() {
        let mut a = Accumulator::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.record(x);
        }
        assert_eq!(a.count(), 8);
        assert!((a.mean() - 5.0).abs() < 1e-12);
        assert!((a.sum() - 40.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((a.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(a.min(), Some(2.0));
        assert_eq!(a.max(), Some(9.0));
    }

    #[test]
    fn accumulator_empty_is_safe() {
        let a = Accumulator::new();
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.variance(), 0.0);
        assert_eq!(a.min(), None);
        assert_eq!(a.max(), None);
    }

    #[test]
    fn time_weighted_step_function() {
        // value 0 on [0,10), 2 on [10,30), 1 on [30,40]
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.set(10.0, 2.0);
        tw.set(30.0, 1.0);
        let mean = tw.mean_until(40.0);
        // integral = 0*10 + 2*20 + 1*10 = 50 over 40
        assert!((mean - 1.25).abs() < 1e-12);
        assert_eq!(tw.max(), 2.0);
        assert_eq!(tw.current(), 1.0);
    }

    #[test]
    fn time_weighted_add_counter() {
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.add(5.0, 1.0);
        tw.add(10.0, 1.0);
        tw.add(15.0, -2.0);
        // integral = 0*5 + 1*5 + 2*5 = 15 over 20
        assert!((tw.mean_until(20.0) - 0.75).abs() < 1e-12);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn time_weighted_zero_span() {
        let tw = TimeWeighted::new(5.0, 3.0);
        assert_eq!(tw.mean_until(5.0), 3.0);
    }

    #[test]
    fn replications_single_run() {
        let mut r = Replications::new();
        r.record(12.5);
        let e = r.estimate();
        assert_eq!(e.mean, 12.5);
        assert_eq!(e.half_width, 0.0);
        assert_eq!(e.n, 1);
    }

    #[test]
    fn replications_known_ci() {
        // n=10, values 1..=10: mean 5.5, sample std ≈ 3.0277.
        let mut r = Replications::new();
        for i in 1..=10 {
            r.record(i as f64);
        }
        let e = r.estimate();
        assert!((e.mean - 5.5).abs() < 1e-12);
        // t(9, .975) = 2.262; hw = 2.262 * 3.0277 / sqrt(10) ≈ 2.1659
        assert!((e.half_width - 2.1659).abs() < 1e-3, "hw {}", e.half_width);
    }

    #[test]
    fn replications_empty() {
        let r = Replications::new();
        let e = r.estimate();
        assert_eq!(e.n, 0);
        assert_eq!(e.mean, 0.0);
    }

    #[test]
    fn replications_large_n_uses_normal() {
        let mut r = Replications::new();
        for i in 0..100 {
            r.record((i % 2) as f64);
        }
        let e = r.estimate();
        assert!((e.mean - 0.5).abs() < 1e-12);
        assert!(e.half_width > 0.09 && e.half_width < 0.11);
    }

    #[test]
    fn record_all_matches_repeated_record() {
        let mut a = Replications::new();
        a.record_all([1.0, 2.0, 3.0]);
        let mut b = Replications::new();
        for v in [1.0, 2.0, 3.0] {
            b.record(v);
        }
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn estimate_display() {
        let e = Estimate {
            mean: 1.23456,
            half_width: 0.5,
            n: 3,
        };
        assert_eq!(format!("{e}"), "1.235 ± 0.500");
    }
}
