//! Frame-loss processes.
//!
//! The analytical model (§2.1.1) assumes a flat message-loss probability
//! `h` (10 % in the paper's numbers); real outdoor links lose more near
//! the cell edge. Both are provided, plus smoltcp-style fault-injection
//! helpers used by integration tests.

use spider_simcore::SimRng;

/// A frame-loss model, evaluated per frame.
#[derive(Debug, Clone)]
pub enum LossModel {
    /// Lossless medium (for calibration tests).
    None,
    /// Independent Bernoulli loss with fixed probability — the analytical
    /// model's `h`.
    Bernoulli {
        /// Loss probability in `[0, 1]`.
        h: f64,
    },
    /// Distance-dependent loss: `base` inside `edge_start` × range, then
    /// rising linearly to 1.0 at the range limit. Models the lossy
    /// association band at cell edges reported by vehicular Wi-Fi
    /// studies.
    DistanceRamp {
        /// Loss probability inside the reliable core of the cell.
        base: f64,
        /// Fraction of the range at which loss starts ramping (e.g. 0.7).
        edge_start: f64,
    },
}

impl LossModel {
    /// The paper's default: h = 10 %.
    pub fn paper_default() -> LossModel {
        LossModel::Bernoulli { h: 0.10 }
    }

    /// Loss probability for a frame crossing `distance_m` of a cell with
    /// range `range_m`.
    pub fn loss_probability(&self, distance_m: f64, range_m: f64) -> f64 {
        #[cfg(debug_assertions)]
        assert!(
            distance_m.is_finite() && range_m.is_finite() && range_m > 0.0,
            "loss_probability: bad inputs d={distance_m} range={range_m}"
        );
        let p = match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { h } => h.clamp(0.0, 1.0),
            LossModel::DistanceRamp { base, edge_start } => {
                let base = base.clamp(0.0, 1.0);
                let start = (edge_start.clamp(0.0, 1.0)) * range_m;
                if distance_m <= start {
                    base
                } else if distance_m >= range_m {
                    1.0
                } else {
                    // Linear ramp from base at `start` to 1.0 at `range`.
                    let t = (distance_m - start) / (range_m - start);
                    base + (1.0 - base) * t
                }
            }
        };
        #[cfg(debug_assertions)]
        assert!(
            (0.0..=1.0).contains(&p),
            "loss_probability({distance_m}, {range_m}) produced invalid probability {p}"
        );
        p
    }

    /// Loss probability from a *squared* distance, skipping the `sqrt`
    /// whenever the answer doesn't depend on the exact distance: the
    /// `None` and `Bernoulli` models are distance-independent, and the
    /// ramp model is flat (`base`) inside `edge_start × range`, so only
    /// frames in the edge band — a minority in any dense deployment —
    /// pay for a root. Agrees with [`LossModel::loss_probability`]
    /// everywhere except possible 1-ulp boundary flips from comparing
    /// `d² ≤ start²` instead of `d ≤ start`.
    pub fn loss_probability_sq(&self, distance_sq_m2: f64, range_m: f64) -> f64 {
        #[cfg(debug_assertions)]
        assert!(
            distance_sq_m2.is_finite() && distance_sq_m2 >= 0.0 && range_m > 0.0,
            "loss_probability_sq: bad inputs d²={distance_sq_m2} range={range_m}"
        );
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { h } => h.clamp(0.0, 1.0),
            LossModel::DistanceRamp { base, edge_start } => {
                let start = (edge_start.clamp(0.0, 1.0)) * range_m;
                if distance_sq_m2 <= start * start {
                    base.clamp(0.0, 1.0)
                } else {
                    self.loss_probability(distance_sq_m2.sqrt(), range_m)
                }
            }
        }
    }

    /// Sample whether a frame at `distance_m` is lost.
    pub fn is_lost(&self, rng: &mut SimRng, distance_m: f64, range_m: f64) -> bool {
        rng.chance(self.loss_probability(distance_m, range_m))
    }
}

impl Default for LossModel {
    fn default() -> Self {
        LossModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simcore::check::check;

    #[test]
    fn none_never_loses() {
        let mut rng = SimRng::new(1);
        assert!(!LossModel::None.is_lost(&mut rng, 99.0, 100.0));
        assert_eq!(LossModel::None.loss_probability(50.0, 100.0), 0.0);
    }

    #[test]
    fn bernoulli_rate_is_respected() {
        let m = LossModel::Bernoulli { h: 0.10 };
        let mut rng = SimRng::new(2);
        let n = 100_000;
        let lost = (0..n).filter(|_| m.is_lost(&mut rng, 50.0, 100.0)).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.10).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn squared_path_matches_linear_path() {
        let models = [
            LossModel::None,
            LossModel::Bernoulli { h: 0.1 },
            LossModel::DistanceRamp {
                base: 0.05,
                edge_start: 0.7,
            },
        ];
        for m in &models {
            for d in [0.0, 10.0, 69.9, 70.0, 70.1, 85.0, 99.0, 100.0, 140.0] {
                let direct = m.loss_probability(d, 100.0);
                let squared = m.loss_probability_sq(d * d, 100.0);
                assert!(
                    (direct - squared).abs() < 1e-12,
                    "{m:?} at {d}: {direct} vs {squared}"
                );
            }
        }
    }

    #[test]
    fn ramp_shape() {
        let m = LossModel::DistanceRamp {
            base: 0.05,
            edge_start: 0.7,
        };
        assert_eq!(m.loss_probability(0.0, 100.0), 0.05);
        assert_eq!(m.loss_probability(70.0, 100.0), 0.05);
        assert!((m.loss_probability(85.0, 100.0) - 0.525).abs() < 1e-9);
        assert_eq!(m.loss_probability(100.0, 100.0), 1.0);
        assert_eq!(m.loss_probability(150.0, 100.0), 1.0);
    }

    /// Loss probability is always a valid probability and monotone in
    /// distance for the ramp model.
    #[test]
    fn ramp_is_monotone_probability() {
        check("ramp_is_monotone_probability", 256, |g| {
            let (base, edge) = (g.f64(0.0..1.0), g.f64(0.0..1.0));
            let m = LossModel::DistanceRamp {
                base,
                edge_start: edge,
            };
            let (a, b) = (g.f64(0.0..200.0), g.f64(0.0..200.0));
            let (near, far) = (a.min(b), a.max(b));
            let pn = m.loss_probability(near, 100.0);
            let pf = m.loss_probability(far, 100.0);
            assert!((0.0..=1.0).contains(&pn), "p({near}) = {pn}");
            assert!((0.0..=1.0).contains(&pf), "p({far}) = {pf}");
            assert!(pn <= pf + 1e-12, "p({near}) = {pn} > p({far}) = {pf}");
        });
    }
}
