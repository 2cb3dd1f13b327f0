//! Radio propagation: reach and received signal strength.
//!
//! A disk model decides *whether* a frame is receivable (the paper's
//! analysis assumes a practical range of 100 m); a log-distance path-loss
//! model provides the RSSI Spider's AP-selection uses for tie-breaking
//! and its "sufficient signal strength" bootstrap filter (§3.1, Design
//! Choice 2).

/// `log10` for distances, without the libm call.
///
/// Splits the float into exponent and mantissa, folds the mantissa into
/// `[1/√2, √2)`, and evaluates `ln` through the odd `atanh` series on
/// `s = (m−1)/(m+1)` (|s| ≤ 0.1716, so truncating at `s¹³` leaves a
/// tail below 1e-12). Absolute error is under 1e-12 across the positive
/// normal range — the RSSI model scales it by `10·ple ≈ 27`, which
/// stays far inside every tolerance the tests and drivers use.
///
/// Callers must pass a positive, finite, normal value; [`Propagation::rssi_dbm`]
/// clamps distances to ≥ 1 m before calling.
pub fn fast_log10(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x >= f64::MIN_POSITIVE, "fast_log10({x})");
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    // atanh(s) = s + s³/3 + s⁵/5 + …, truncated at s¹³.
    let atanh = s
        * (1.0
            + s2 * (1.0 / 3.0
                + s2 * (1.0 / 5.0
                    + s2 * (1.0 / 7.0
                        + s2 * (1.0 / 9.0 + s2 * (1.0 / 11.0 + s2 * (1.0 / 13.0)))))));
    // ln(m) = 2·atanh(s);  log10(x) = e·log10(2) + ln(m)·log10(e).
    (e as f64) * std::f64::consts::LOG10_2 + 2.0 * atanh * std::f64::consts::LOG10_E
}

/// Propagation model parameters.
#[derive(Debug, Clone)]
pub struct Propagation {
    /// Hard communication range in metres (disk model cut-off).
    pub range_m: f64,
    /// Transmit power + antenna gains at 1 m, in dBm (reference RSSI).
    pub rssi_at_1m_dbm: f64,
    /// Path-loss exponent (2 = free space; 2.7–3.5 typical outdoor
    /// suburban).
    pub path_loss_exponent: f64,
}

impl Propagation {
    /// Outdoor suburban defaults matching the paper's environment.
    /// Calibrated so the edge of the 100 m practical range sits at
    /// ≈ −84 dBm — comfortably above a client's selection floor, making
    /// the whole disk usable as the paper's analysis assumes.
    pub const fn outdoor() -> Propagation {
        Propagation {
            range_m: 100.0,
            rssi_at_1m_dbm: -30.0,
            path_loss_exponent: 2.7,
        }
    }

    /// Whether a frame sent over `distance_m` is receivable at all.
    pub fn in_range(&self, distance_m: f64) -> bool {
        distance_m <= self.range_m
    }

    /// [`Propagation::in_range`] from a squared distance — the hot
    /// transmit paths carry d² and never take the root for the disk
    /// test. May differ from `in_range(d)` by a 1-ulp boundary flip.
    pub fn in_range_sq(&self, distance_sq_m2: f64) -> bool {
        distance_sq_m2 <= self.range_m * self.range_m
    }

    /// Received signal strength in dBm at `distance_m` (log-distance
    /// model, deterministic component).
    pub fn rssi_dbm(&self, distance_m: f64) -> f64 {
        #[cfg(debug_assertions)]
        assert!(
            distance_m.is_finite() && distance_m >= 0.0,
            "rssi_dbm: bad distance {distance_m}"
        );
        let d = distance_m.max(1.0);
        let rssi = self.rssi_at_1m_dbm - 10.0 * self.path_loss_exponent * fast_log10(d);
        #[cfg(debug_assertions)]
        assert!(
            rssi.is_finite(),
            "rssi_dbm({distance_m}) produced non-finite {rssi} \
             (ref {} dBm, ple {})",
            self.rssi_at_1m_dbm,
            self.path_loss_exponent
        );
        rssi
    }

    /// RSSI at the edge of the disk — frames near this level are barely
    /// receivable.
    pub fn edge_rssi_dbm(&self) -> f64 {
        self.rssi_dbm(self.range_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simcore::check::check;

    #[test]
    fn range_cutoff() {
        let p = Propagation::outdoor();
        assert!(p.in_range(0.0));
        assert!(p.in_range(100.0));
        assert!(!p.in_range(100.1));
    }

    #[test]
    fn rssi_decreases_with_distance() {
        let p = Propagation::outdoor();
        assert!(p.rssi_dbm(10.0) > p.rssi_dbm(50.0));
        assert!(p.rssi_dbm(50.0) > p.rssi_dbm(100.0));
    }

    #[test]
    fn rssi_values_are_plausible() {
        let p = Propagation::outdoor();
        // At 10m: -30 - 27 = -57 dBm. At 100m: -30 - 54 = -84 dBm.
        assert!((p.rssi_dbm(10.0) - -57.0).abs() < 1e-9);
        assert!((p.edge_rssi_dbm() - -84.0).abs() < 1e-9);
        // The whole practical range is above a -90 dBm selection floor.
        assert!(p.edge_rssi_dbm() > -90.0);
    }

    #[test]
    fn fast_log10_matches_libm() {
        // Dense sweep over the distances the RSSI model sees, plus a
        // log-spaced sweep across magnitudes.
        let mut d = 1.0f64;
        while d < 500.0 {
            let err = (fast_log10(d) - d.log10()).abs();
            assert!(err < 1e-12, "d={d}: err={err:e}");
            d += 0.37;
        }
        for exp in -30..30 {
            let x = 1.7f64 * 10f64.powi(exp);
            let err = (fast_log10(x) - x.log10()).abs();
            assert!(err < 1e-12, "x={x}: err={err:e}");
        }
        // Exact powers of two exercise the mantissa-fold boundary.
        for exp in 0..20 {
            let x = (1u64 << exp) as f64;
            assert!((fast_log10(x) - x.log10()).abs() < 1e-12);
        }
    }

    #[test]
    fn in_range_sq_matches_in_range() {
        let p = Propagation::outdoor();
        for d in [0.0, 50.0, 99.9, 100.0, 100.1, 200.0] {
            assert_eq!(p.in_range(d), p.in_range_sq(d * d), "d={d}");
        }
    }

    #[test]
    fn sub_metre_distances_clamp() {
        let p = Propagation::outdoor();
        assert_eq!(p.rssi_dbm(0.0), p.rssi_dbm(1.0));
        assert_eq!(p.rssi_dbm(0.5), p.rssi_dbm(1.0));
    }

    /// RSSI is monotone non-increasing in distance.
    #[test]
    fn rssi_monotone() {
        check("rssi_monotone", 256, |g| {
            let p = Propagation::outdoor();
            let (a, b) = (g.f64(0.0..500.0), g.f64(0.0..500.0));
            let (near, far) = (a.min(b), a.max(b));
            assert!(p.rssi_dbm(near) >= p.rssi_dbm(far), "{near} m vs {far} m");
        });
    }
}
