//! Simulated time.
//!
//! Time is measured in integer microseconds since the start of the
//! simulation. Microsecond resolution is fine enough to represent 802.11
//! inter-frame spacings (SIFS = 10 µs) while keeping arithmetic exact —
//! floating point time is a classic source of non-determinism in network
//! simulators.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far"
    /// sentinel for wakeups that are not currently scheduled.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from a raw microsecond count.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from milliseconds, saturating at [`SimTime::MAX`].
    /// Saturation (rather than wrap) keeps an absurd config value pinned
    /// at the far-future sentinel instead of silently landing in the
    /// middle of a run.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000))
    }

    /// Construct from whole seconds, saturating at [`SimTime::MAX`].
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(1_000_000))
    }

    /// Construct from fractional seconds. Panics on negative input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0, "SimTime cannot be negative: {s}");
        SimTime((s * 1e6).round() as u64)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction of two instants.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Saturating addition of a duration (does not wrap past [`SimTime::MAX`]).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from a raw microsecond count.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds, saturating at [`SimDuration::MAX`]
    /// (see [`SimTime::from_millis`] for why saturation).
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000))
    }

    /// Construct from whole seconds, saturating at [`SimDuration::MAX`].
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000))
    }

    /// Construct from fractional seconds. Panics on negative input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0, "SimDuration cannot be negative: {s}");
        SimDuration((s * 1e6).round() as u64)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by a non-negative float, rounding to the nearest microsecond.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        assert!(k >= 0.0, "cannot scale a duration by a negative factor");
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimDuration::from_millis(400).as_micros(), 400_000);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(100);
        let d = SimDuration::from_millis(50);
        assert_eq!((t + d).as_micros(), 150_000);
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 3, SimDuration::from_millis(150));
        assert_eq!(d / 2, SimDuration::from_millis(25));
        assert!(
            (SimDuration::from_millis(100) / SimDuration::from_millis(400) - 0.25).abs() < 1e-12
        );
    }

    #[test]
    fn saturating_ops() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(20);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_millis(10));
        assert_eq!(a.checked_since(b), None);
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn fractional_seconds() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_micros(), 1_250_000);
        let d = SimDuration::from_secs_f64(0.5);
        assert_eq!(d.as_millis_f64(), 500.0);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(250));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_micros(7)), "7us");
        assert_eq!(format!("{}", SimDuration::from_millis(7)), "7.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(7)), "7.000s");
    }

    #[test]
    #[should_panic]
    fn negative_seconds_panic() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn constructors_saturate_instead_of_wrapping() {
        // A u64::MAX-seconds config is nonsense, but it must pin to the
        // far-future sentinel, not wrap into the middle of a run.
        assert_eq!(SimTime::from_secs(u64::MAX), SimTime::MAX);
        assert_eq!(SimTime::from_millis(u64::MAX), SimTime::MAX);
        assert_eq!(SimDuration::from_secs(u64::MAX), SimDuration::MAX);
        assert_eq!(SimDuration::from_millis(u64::MAX), SimDuration::MAX);
        // The largest exactly-representable inputs still convert exactly.
        assert_eq!(
            SimTime::from_secs(u64::MAX / 1_000_000).as_micros(),
            (u64::MAX / 1_000_000) * 1_000_000
        );
    }

    #[test]
    fn float_constructors_saturate() {
        // Rust float→int casts saturate; huge configs pin to MAX.
        assert_eq!(SimTime::from_secs_f64(1e30), SimTime::MAX);
        assert_eq!(SimDuration::from_secs_f64(1e30), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs(1).mul_f64(1e30), SimDuration::MAX);
    }

    #[test]
    #[should_panic]
    fn nan_scale_panics() {
        let _ = SimDuration::from_secs(1).mul_f64(f64::NAN);
    }

    // Overflow in the raw Add/Sub/Mul operators is a simulator bug, not
    // saturation territory: `overflow-checks = true` in the dev and test
    // profiles (workspace Cargo.toml) turns it into a panic. These
    // regressions pin that behaviour wherever checks are armed.
    #[cfg(debug_assertions)]
    mod overflow_panics {
        use super::*;

        #[test]
        #[should_panic]
        fn time_plus_duration_overflow() {
            let _ = SimTime::MAX + SimDuration::from_micros(1);
        }

        #[test]
        #[should_panic]
        fn time_minus_duration_underflow() {
            let _ = SimTime::ZERO - SimDuration::from_micros(1);
        }

        #[test]
        #[should_panic]
        fn instant_difference_underflow() {
            let _ = SimTime::from_millis(1) - SimTime::from_millis(2);
        }

        #[test]
        #[should_panic]
        fn duration_sum_overflow() {
            let _ = SimDuration::MAX + SimDuration::from_micros(1);
        }

        #[test]
        #[should_panic]
        fn duration_scale_overflow() {
            let _ = SimDuration::MAX * 2;
        }
    }
}
