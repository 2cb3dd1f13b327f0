//! Encounter computation: when is the client within range of which AP?
//!
//! Encounters drive everything in the paper — the join model's `t` is the
//! encounter duration, and §2.3 reports a median encounter of ~8 s at
//! town speeds. For linear motion encounters are computed in closed form
//! (circle/line intersection); loops and other models are sampled
//! numerically.

use crate::deployment::Deployment;
use crate::path::MobilityModel;
use spider_simcore::{SimDuration, SimTime};

/// A maximal interval during which the client is within `range` of an AP.
#[derive(Debug, Clone, PartialEq)]
pub struct Encounter {
    /// The AP's id in the deployment.
    pub ap_id: usize,
    /// When the client enters range.
    pub enter: SimTime,
    /// When the client exits range.
    pub exit: SimTime,
}

impl Encounter {
    /// Length of the encounter.
    pub fn duration(&self) -> SimDuration {
        self.exit.saturating_since(self.enter)
    }
}

/// Compute every encounter in `[0, horizon]` between `mobility` and the
/// APs of `deployment`, given a communication range in metres.
///
/// Results are sorted by entry time.
pub fn encounters(
    mobility: &MobilityModel,
    deployment: &Deployment,
    range_m: f64,
    horizon: SimTime,
) -> Vec<Encounter> {
    let mut out = Vec::new();
    for site in &deployment.sites {
        match mobility {
            MobilityModel::Linear { start, velocity } => {
                // Solve |start + v t - ap|^2 = range^2 for t.
                let rel = *start - site.position;
                let a = velocity.dot(*velocity);
                let b = 2.0 * rel.dot(*velocity);
                let c = rel.dot(rel) - range_m * range_m;
                if a == 0.0 {
                    // Stationary-as-linear: in range forever or never.
                    if c <= 0.0 {
                        out.push(Encounter {
                            ap_id: site.id,
                            enter: SimTime::ZERO,
                            exit: horizon,
                        });
                    }
                    continue;
                }
                let disc = b * b - 4.0 * a * c;
                if disc <= 0.0 {
                    continue;
                }
                let sqrt_d = disc.sqrt();
                let t_in = (-b - sqrt_d) / (2.0 * a);
                let t_out = (-b + sqrt_d) / (2.0 * a);
                let enter = t_in.max(0.0);
                let exit = t_out.min(horizon.as_secs_f64());
                if exit > enter {
                    out.push(Encounter {
                        ap_id: site.id,
                        enter: SimTime::from_secs_f64(enter),
                        exit: SimTime::from_secs_f64(exit),
                    });
                }
            }
            MobilityModel::Static(p) => {
                if p.distance_to(site.position) <= range_m {
                    out.push(Encounter {
                        ap_id: site.id,
                        enter: SimTime::ZERO,
                        exit: horizon,
                    });
                }
            }
            MobilityModel::Loop { .. } => {
                // Numeric sweep at 100ms resolution.
                let step = SimDuration::from_millis(100);
                let mut t = SimTime::ZERO;
                let mut inside = false;
                let mut entered = SimTime::ZERO;
                while t <= horizon {
                    let d = mobility.position(t).distance_to(site.position);
                    let now_inside = d <= range_m;
                    if now_inside && !inside {
                        entered = t;
                        inside = true;
                    } else if !now_inside && inside {
                        out.push(Encounter {
                            ap_id: site.id,
                            enter: entered,
                            exit: t,
                        });
                        inside = false;
                    }
                    t += step;
                }
                if inside {
                    out.push(Encounter {
                        ap_id: site.id,
                        enter: entered,
                        exit: horizon,
                    });
                }
            }
        }
    }
    out.sort_by_key(|e| e.enter);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use crate::geometry::Position;
    use spider_simcore::check::check;
    use spider_simcore::SimRng;
    use spider_wire::Channel;

    fn lab_at(positions: Vec<Position>) -> Deployment {
        Deployment::lab(
            positions.into_iter().map(|p| (p, Channel::CH6)).collect(),
            500_000.0,
        )
    }

    #[test]
    fn head_on_pass_has_full_chord() {
        // AP directly on the road at x=500; client eastbound at 10 m/s,
        // range 100m: in range for x in [400, 600] -> t in [40, 60].
        let mob = MobilityModel::straight_road(10.0);
        let dep = lab_at(vec![Position::new(500.0, 0.0)]);
        let enc = encounters(&mob, &dep, 100.0, SimTime::from_secs(200));
        assert_eq!(enc.len(), 1);
        assert!((enc[0].enter.as_secs_f64() - 40.0).abs() < 1e-6);
        assert!((enc[0].exit.as_secs_f64() - 60.0).abs() < 1e-6);
        assert!((enc[0].duration().as_secs_f64() - 20.0).abs() < 1e-6);
    }

    #[test]
    fn offset_ap_has_shorter_chord() {
        // AP 60m off the road: chord = 2*sqrt(100^2-60^2) = 160m -> 16s.
        let mob = MobilityModel::straight_road(10.0);
        let dep = lab_at(vec![Position::new(500.0, 60.0)]);
        let enc = encounters(&mob, &dep, 100.0, SimTime::from_secs(200));
        assert_eq!(enc.len(), 1);
        assert!((enc[0].duration().as_secs_f64() - 16.0).abs() < 1e-6);
    }

    #[test]
    fn out_of_reach_ap_is_never_encountered() {
        let mob = MobilityModel::straight_road(10.0);
        let dep = lab_at(vec![Position::new(500.0, 150.0)]);
        assert!(encounters(&mob, &dep, 100.0, SimTime::from_secs(200)).is_empty());
    }

    #[test]
    fn horizon_clips_encounters() {
        let mob = MobilityModel::straight_road(10.0);
        let dep = lab_at(vec![Position::new(500.0, 0.0)]);
        let enc = encounters(&mob, &dep, 100.0, SimTime::from_secs(50));
        assert_eq!(enc.len(), 1);
        assert_eq!(enc[0].exit, SimTime::from_secs(50));
    }

    #[test]
    fn encounter_behind_start_is_clipped_to_zero() {
        // Client starts inside the AP's range.
        let mob = MobilityModel::Linear {
            start: Position::new(450.0, 0.0),
            velocity: Position::new(10.0, 0.0),
        };
        let dep = lab_at(vec![Position::new(500.0, 0.0)]);
        let enc = encounters(&mob, &dep, 100.0, SimTime::from_secs(100));
        assert_eq!(enc.len(), 1);
        assert_eq!(enc[0].enter, SimTime::ZERO);
        assert!((enc[0].exit.as_secs_f64() - 15.0).abs() < 1e-6);
    }

    #[test]
    fn static_node_is_in_range_forever_or_never() {
        let dep = lab_at(vec![Position::new(50.0, 0.0), Position::new(500.0, 0.0)]);
        let mob = MobilityModel::Static(Position::ORIGIN);
        let enc = encounters(&mob, &dep, 100.0, SimTime::from_secs(10));
        assert_eq!(enc.len(), 1);
        assert_eq!(enc[0].ap_id, 0);
        assert_eq!(enc[0].exit, SimTime::from_secs(10));
    }

    #[test]
    fn loop_route_reencounters_ap_each_lap() {
        // 400x100 loop at 20 m/s: perimeter 1000m, lap 50s. AP near the
        // first corner.
        let mob = MobilityModel::rectangular_loop(400.0, 100.0, 20.0);
        let dep = lab_at(vec![Position::new(0.0, 0.0)]);
        let enc = encounters(&mob, &dep, 80.0, SimTime::from_secs(150));
        // Expect ~3 encounter clusters (one per lap).
        assert!(enc.len() >= 3, "encounters: {enc:?}");
        for e in &enc {
            assert!(e.exit > e.enter);
        }
    }

    #[test]
    fn encounters_are_sorted_by_entry() {
        let mob = MobilityModel::straight_road(10.0);
        let dep = lab_at(vec![
            Position::new(900.0, 0.0),
            Position::new(300.0, 0.0),
            Position::new(600.0, 0.0),
        ]);
        let enc = encounters(&mob, &dep, 100.0, SimTime::from_secs(200));
        assert_eq!(enc.len(), 3);
        assert!(enc.windows(2).all(|w| w[0].enter <= w[1].enter));
        assert_eq!(enc[0].ap_id, 1);
        assert_eq!(enc[1].ap_id, 2);
        assert_eq!(enc[2].ap_id, 0);
    }

    #[test]
    fn town_scenario_encounter_durations_match_paper() {
        // At ~10 m/s with APs scattered within ±30m of the road and 100m
        // range, encounter durations should bracket the paper's numbers
        // (median 8s, mean 22s measured across variable speeds; here a
        // single fixed speed gives 16-20s chords).
        let mut rng = SimRng::new(7);
        let params = crate::deployment::RoadsideParams {
            road_length_m: 20_000.0,
            density_per_km: 10.0,
            ..Default::default()
        };
        let dep = Deployment::poisson_roadside(&mut rng, &params);
        let mob = MobilityModel::straight_road(10.0);
        let enc = encounters(&mob, &dep, 100.0, SimTime::from_secs(2_000));
        assert!(!enc.is_empty());
        let mean = enc.iter().map(|e| e.duration().as_secs_f64()).sum::<f64>() / enc.len() as f64;
        assert!((10.0..22.0).contains(&mean), "mean encounter {mean}s");
    }

    /// Linear-mobility encounters are well-formed: exit > enter, bounded
    /// by the horizon, and no encounter outlasts the maximal chord 2R/v.
    #[test]
    fn linear_encounters_are_well_formed() {
        check("linear_encounters_are_well_formed", 256, |g| {
            let speed = g.f64(1.0..40.0);
            let params = crate::deployment::RoadsideParams {
                road_length_m: 3_000.0,
                density_per_km: 8.0,
                ..Default::default()
            };
            let dep = Deployment::poisson_roadside(g.rng(), &params);
            let mob = MobilityModel::straight_road(speed);
            let horizon = SimTime::from_secs(400);
            let max_chord_s = 2.0 * 100.0 / speed;
            for e in encounters(&mob, &dep, 100.0, horizon) {
                assert!(e.exit > e.enter, "{e:?}");
                assert!(e.exit <= horizon, "{e:?}");
                assert!(
                    e.duration().as_secs_f64() <= max_chord_s + 1e-6,
                    "duration {} exceeds max chord {max_chord_s}",
                    e.duration().as_secs_f64(),
                );
            }
        });
    }
}
