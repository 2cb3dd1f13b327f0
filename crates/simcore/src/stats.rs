//! Statistics collectors used by the evaluation harness.
//!
//! * [`OnlineStats`] — streaming mean/variance/min/max (Welford).
//! * [`Cdf`] — empirical cumulative distribution over `f64` samples; this
//!   is what every "CDF of ..." figure in the paper is built from.
//! * [`IntervalTracker`] — records when a boolean condition (e.g. "client
//!   has end-to-end connectivity") is on or off and produces the
//!   connection-duration / disruption-length distributions and the overall
//!   connectivity fraction reported in the paper's Tables 2 and 4.
//! * [`RateMeter`] — bins byte deliveries into fixed windows to produce
//!   the instantaneous-bandwidth distribution of Figure 13.

use crate::time::{SimDuration, SimTime};

/// Streaming summary statistics (Welford's online algorithm).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample (Bessel-corrected) standard deviation.
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Minimum sample (`NaN` if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Maximum sample (`NaN` if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// An empirical cumulative distribution function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// Create an empty distribution.
    pub fn new() -> Self {
        Cdf {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Build from a vector of samples.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        let mut c = Cdf {
            samples,
            sorted: false,
        };
        c.ensure_sorted();
        c
    }

    /// Add a sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the distribution has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Empirical CDF value: fraction of samples `<= x` (0 if empty).
    pub fn fraction_le(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s <= x);
        idx as f64 / self.samples.len() as f64
    }

    /// Quantile `q` in `[0, 1]` (nearest-rank). `NaN` if empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.samples.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.samples.len() - 1);
        self.samples[idx]
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean of all samples (`NaN` if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Evaluate the CDF at `n` evenly spaced points between the min and
    /// max sample, returning `(x, F(x))` pairs — the series the paper's
    /// CDF figures plot.
    pub fn series(&mut self, n: usize) -> Vec<(f64, f64)> {
        if self.samples.is_empty() || n == 0 {
            return Vec::new();
        }
        self.ensure_sorted();
        let lo = self.samples[0];
        let hi = self.samples[self.samples.len() - 1];
        if n == 1 || hi == lo {
            return vec![(hi, 1.0)];
        }
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                let idx = self.samples.partition_point(|&s| s <= x);
                (x, idx as f64 / self.samples.len() as f64)
            })
            .collect()
    }

    /// Access the sorted samples.
    pub fn sorted_samples(&mut self) -> &[f64] {
        self.ensure_sorted();
        &self.samples
    }

    /// Merge all samples from another distribution.
    pub fn merge(&mut self, other: &Cdf) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

/// Tracks alternating on/off intervals of a boolean condition over
/// simulated time.
#[derive(Debug, Clone)]
pub struct IntervalTracker {
    on: bool,
    last_transition: SimTime,
    started: SimTime,
    on_durations: Vec<SimDuration>,
    off_durations: Vec<SimDuration>,
    total_on: SimDuration,
}

impl IntervalTracker {
    /// Start tracking at `start`, with the condition initially `initial`.
    pub fn new(start: SimTime, initial: bool) -> Self {
        IntervalTracker {
            on: initial,
            last_transition: start,
            started: start,
            on_durations: Vec::new(),
            off_durations: Vec::new(),
            total_on: SimDuration::ZERO,
        }
    }

    /// Report the condition's value at time `now`. Transitions close the
    /// current interval; repeated identical reports are idempotent.
    pub fn set(&mut self, now: SimTime, value: bool) {
        if value == self.on {
            return;
        }
        let span = now.saturating_since(self.last_transition);
        if self.on {
            self.on_durations.push(span);
            self.total_on += span;
        } else {
            self.off_durations.push(span);
        }
        self.on = value;
        self.last_transition = now;
    }

    /// Close the final interval at `end` and return
    /// `(on_durations, off_durations, connectivity_fraction)`.
    pub fn finish(mut self, end: SimTime) -> IntervalReport {
        let span = end.saturating_since(self.last_transition);
        if self.on {
            self.on_durations.push(span);
            self.total_on += span;
        } else if !span.is_zero() {
            self.off_durations.push(span);
        }
        let total = end.saturating_since(self.started);
        let fraction = if total.is_zero() {
            0.0
        } else {
            self.total_on / total
        };
        IntervalReport {
            on_durations: self.on_durations,
            off_durations: self.off_durations,
            on_fraction: fraction,
        }
    }
}

/// Result of an [`IntervalTracker`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalReport {
    /// Lengths of every maximal interval during which the condition held.
    pub on_durations: Vec<SimDuration>,
    /// Lengths of every maximal interval during which it did not.
    pub off_durations: Vec<SimDuration>,
    /// Fraction of total tracked time the condition held.
    pub on_fraction: f64,
}

impl IntervalReport {
    /// On-interval lengths in seconds, as a CDF.
    pub fn on_cdf(&self) -> Cdf {
        Cdf::from_samples(self.on_durations.iter().map(|d| d.as_secs_f64()).collect())
    }

    /// Off-interval lengths in seconds, as a CDF.
    pub fn off_cdf(&self) -> Cdf {
        Cdf::from_samples(self.off_durations.iter().map(|d| d.as_secs_f64()).collect())
    }
}

/// Bins byte deliveries into fixed windows of simulated time.
///
/// The per-window rates (for windows in which any data arrived) form the
/// "instantaneous bandwidth" distribution of the paper's Figure 13; the
/// fraction of non-empty windows is its "average connectivity" metric.
#[derive(Debug, Clone)]
pub struct RateMeter {
    window: SimDuration,
    start: SimTime,
    current_window: u64,
    current_bytes: u64,
    /// Bytes per completed window, indexed by window number.
    windows: Vec<(u64, u64)>,
    total_bytes: u64,
}

impl RateMeter {
    /// Create a meter with the given window length, starting at `start`.
    pub fn new(start: SimTime, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        RateMeter {
            window,
            start,
            current_window: 0,
            current_bytes: 0,
            windows: Vec::new(),
            total_bytes: 0,
        }
    }

    /// Record `bytes` delivered at time `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        let w = now.saturating_since(self.start).as_micros() / self.window.as_micros();
        if w != self.current_window {
            if self.current_bytes > 0 {
                self.windows.push((self.current_window, self.current_bytes));
            }
            self.current_window = w;
            self.current_bytes = 0;
        }
        self.current_bytes += bytes;
        self.total_bytes += bytes;
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Average throughput in bytes/second over `[start, end]`.
    pub fn average_throughput(&self, end: SimTime) -> f64 {
        let span = end.saturating_since(self.start).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.total_bytes as f64 / span
        }
    }

    /// Fraction of windows in `[start, end]` during which any data
    /// arrived — the paper's "average connectivity".
    pub fn connectivity_fraction(&self, end: SimTime) -> f64 {
        let total_windows = end.saturating_since(self.start).as_micros() / self.window.as_micros();
        if total_windows == 0 {
            return 0.0;
        }
        let mut active = self.windows.len() as u64;
        if self.current_bytes > 0 {
            active += 1;
        }
        (active as f64 / total_windows as f64).min(1.0)
    }

    /// Per-window throughput (bytes/second) for every window with data —
    /// the instantaneous-bandwidth samples of Figure 13.
    pub fn instantaneous_rates(&self) -> Vec<f64> {
        let wsecs = self.window.as_secs_f64();
        let mut rates: Vec<f64> = self
            .windows
            .iter()
            .map(|&(_, b)| b as f64 / wsecs)
            .collect();
        if self.current_bytes > 0 {
            rates.push(self.current_bytes as f64 / wsecs);
        }
        rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn cdf_quantiles() {
        let mut c = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(c.median(), 3.0);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 5.0);
        assert_eq!(c.quantile(0.2), 1.0);
        assert!((c.fraction_le(3.0) - 0.6).abs() < 1e-12);
        assert_eq!(c.fraction_le(0.5), 0.0);
        assert_eq!(c.fraction_le(10.0), 1.0);
    }

    #[test]
    fn cdf_series_is_monotone() {
        let mut c = Cdf::from_samples(vec![5.0, 1.0, 3.0, 3.0, 9.0, 2.0]);
        let series = c.series(20);
        assert_eq!(series.len(), 20);
        for pair in series.windows(2) {
            assert!(pair[1].1 >= pair[0].1);
            assert!(pair[1].0 >= pair[0].0);
        }
        assert_eq!(series.last().unwrap().1, 1.0);
    }

    #[test]
    fn interval_tracker_splits_time() {
        let mut t = IntervalTracker::new(SimTime::ZERO, false);
        t.set(SimTime::from_secs(2), true); // 2s off
        t.set(SimTime::from_secs(5), false); // 3s on
        t.set(SimTime::from_secs(5), false); // idempotent
        t.set(SimTime::from_secs(6), true); // 1s off
        let report = t.finish(SimTime::from_secs(10)); // 4s on
        assert_eq!(
            report.on_durations,
            vec![SimDuration::from_secs(3), SimDuration::from_secs(4)]
        );
        assert_eq!(
            report.off_durations,
            vec![SimDuration::from_secs(2), SimDuration::from_secs(1)]
        );
        assert!((report.on_fraction - 0.7).abs() < 1e-12);
    }

    #[test]
    fn rate_meter_throughput_and_connectivity() {
        let mut m = RateMeter::new(SimTime::ZERO, SimDuration::from_secs(1));
        m.record(SimTime::from_millis(100), 1000);
        m.record(SimTime::from_millis(900), 1000);
        // nothing in window 1
        m.record(SimTime::from_millis(2_500), 500);
        let end = SimTime::from_secs(4);
        assert_eq!(m.total_bytes(), 2500);
        assert!((m.average_throughput(end) - 625.0).abs() < 1e-9);
        // windows 0 and 2 active out of 4
        assert!((m.connectivity_fraction(end) - 0.5).abs() < 1e-9);
        let rates = m.instantaneous_rates();
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 2000.0).abs() < 1e-9);
        assert!((rates[1] - 500.0).abs() < 1e-9);
    }

    #[cfg(feature = "proptest-tests")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
        /// The empirical CDF is monotone non-decreasing in its argument.
        #[test]
        fn cdf_monotone(mut xs in prop::collection::vec(-1e3f64..1e3, 1..100),
                        a in -1e3f64..1e3, b in -1e3f64..1e3) {
            let mut c = Cdf::from_samples(std::mem::take(&mut xs));
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(c.fraction_le(lo) <= c.fraction_le(hi));
        }

        /// Quantile of fraction_le(x) recovers a value <= ... sanity: for
        /// every sample s, fraction_le(s) > 0 and quantile(1.0) >= s.
        #[test]
        fn quantile_bounds(xs in prop::collection::vec(-1e3f64..1e3, 1..50)) {
            let mut c = Cdf::from_samples(xs.clone());
            let top = c.quantile(1.0);
            for &s in &xs {
                prop_assert!(top >= s);
                prop_assert!(c.fraction_le(s) > 0.0);
            }
        }

        /// Interval tracker conserves time: on + off durations == total.
        #[test]
        fn interval_conservation(transitions in prop::collection::vec(1u64..1000, 0..40)) {
            let mut t = IntervalTracker::new(SimTime::ZERO, false);
            let mut now = 0u64;
            let mut state = false;
            for step in &transitions {
                now += step;
                state = !state;
                t.set(SimTime::from_millis(now), state);
            }
            let end = now + 10;
            let report = t.finish(SimTime::from_millis(end));
            let sum: u64 = report
                .on_durations
                .iter()
                .chain(report.off_durations.iter())
                .map(|d| d.as_micros())
                .sum();
            prop_assert_eq!(sum, end * 1000);
        }
        }
    }
}
