//! Mobility models: where the client is at a given simulated time.

use crate::geometry::Position;
use spider_simcore::SimTime;

/// A deterministic mobility model.
#[derive(Debug, Clone)]
pub enum MobilityModel {
    /// A stationary node — the setting multi-AP predecessors (FatVAP,
    /// Juggler) were designed for, used as the indoor scenario of §2.2.2.
    Static(Position),
    /// Constant-velocity travel along a straight road.
    Linear {
        /// Position at t = 0.
        start: Position,
        /// Velocity vector in m/s.
        velocity: Position,
    },
    /// Constant-speed travel around a closed polygonal loop — "the mobile
    /// node following the same route multiple times" (§4.1).
    Loop {
        /// Loop vertices (at least 2; the loop closes back to the first).
        waypoints: Vec<Position>,
        /// Speed along the loop in m/s.
        speed: f64,
    },
}

impl MobilityModel {
    /// A straight eastward drive at `speed` m/s starting at the origin.
    pub fn straight_road(speed: f64) -> MobilityModel {
        MobilityModel::Linear {
            start: Position::ORIGIN,
            velocity: Position::new(speed, 0.0),
        }
    }

    /// A rectangular downtown loop with the given side lengths.
    pub fn rectangular_loop(width_m: f64, height_m: f64, speed: f64) -> MobilityModel {
        MobilityModel::Loop {
            waypoints: vec![
                Position::new(0.0, 0.0),
                Position::new(width_m, 0.0),
                Position::new(width_m, height_m),
                Position::new(0.0, height_m),
            ],
            speed,
        }
    }

    /// Position at time `t`.
    pub fn position(&self, t: SimTime) -> Position {
        match self {
            MobilityModel::Static(p) => *p,
            MobilityModel::Linear { start, velocity } => *start + *velocity * t.as_secs_f64(),
            MobilityModel::Loop { waypoints, speed } => {
                assert!(waypoints.len() >= 2, "a loop needs at least 2 waypoints");
                let perimeter = Self::perimeter(waypoints);
                if perimeter == 0.0 {
                    return waypoints[0];
                }
                let mut dist = (speed * t.as_secs_f64()) % perimeter;
                for i in 0..waypoints.len() {
                    let a = waypoints[i];
                    let b = waypoints[(i + 1) % waypoints.len()];
                    let seg = a.distance_to(b);
                    if dist <= seg {
                        if seg == 0.0 {
                            return a;
                        }
                        return a + (b - a) * (dist / seg);
                    }
                    dist -= seg;
                }
                waypoints[0]
            }
        }
    }

    /// Scalar speed in m/s.
    pub fn speed(&self) -> f64 {
        match self {
            MobilityModel::Static(_) => 0.0,
            MobilityModel::Linear { velocity, .. } => velocity.norm(),
            MobilityModel::Loop { speed, .. } => *speed,
        }
    }

    fn perimeter(waypoints: &[Position]) -> f64 {
        (0..waypoints.len())
            .map(|i| waypoints[i].distance_to(waypoints[(i + 1) % waypoints.len()]))
            .sum()
    }
}

/// A [`MobilityModel`] evaluator with the loop geometry precomputed.
///
/// `MobilityModel::position` re-derives every segment length (one
/// square root each) and the full perimeter on every call; the world
/// evaluates the client position on every frame delivery, so that
/// arithmetic dominates. `CachedPath` computes the lengths once and
/// replays the *same* float-operation sequence at query time, so its
/// positions are bit-identical to the uncached model's — seeded runs
/// do not change.
#[derive(Debug, Clone)]
pub struct CachedPath {
    model: MobilityModel,
    /// Per-segment lengths for [`MobilityModel::Loop`] (empty for the
    /// other variants), in waypoint order, closing segment last.
    segs: Vec<f64>,
    /// Sum of `segs` in order — identical to what
    /// `MobilityModel::position` recomputes per call.
    perimeter: f64,
}

impl CachedPath {
    /// Precompute the geometry of `model`.
    pub fn new(model: MobilityModel) -> CachedPath {
        let (segs, perimeter) = match &model {
            MobilityModel::Loop { waypoints, .. } => {
                assert!(waypoints.len() >= 2, "a loop needs at least 2 waypoints");
                let segs: Vec<f64> = (0..waypoints.len())
                    .map(|i| waypoints[i].distance_to(waypoints[(i + 1) % waypoints.len()]))
                    .collect();
                let perimeter = segs.iter().sum();
                (segs, perimeter)
            }
            _ => (Vec::new(), 0.0),
        };
        CachedPath {
            model,
            segs,
            perimeter,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &MobilityModel {
        &self.model
    }

    /// Position at time `t` — bit-identical to
    /// [`MobilityModel::position`] on the wrapped model.
    pub fn position(&self, t: SimTime) -> Position {
        match &self.model {
            MobilityModel::Static(p) => *p,
            MobilityModel::Linear { start, velocity } => *start + *velocity * t.as_secs_f64(),
            MobilityModel::Loop { waypoints, speed } => {
                if self.perimeter == 0.0 {
                    return waypoints[0];
                }
                let mut dist = (speed * t.as_secs_f64()) % self.perimeter;
                for (i, &seg) in self.segs.iter().enumerate() {
                    let a = waypoints[i];
                    if dist <= seg {
                        if seg == 0.0 {
                            return a;
                        }
                        let b = waypoints[(i + 1) % waypoints.len()];
                        return a + (b - a) * (dist / seg);
                    }
                    dist -= seg;
                }
                waypoints[0]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simcore::check::check;

    #[test]
    fn static_never_moves() {
        let m = MobilityModel::Static(Position::new(5.0, 6.0));
        assert_eq!(m.position(SimTime::from_secs(100)), Position::new(5.0, 6.0));
        assert_eq!(m.speed(), 0.0);
    }

    #[test]
    fn linear_motion() {
        let m = MobilityModel::straight_road(10.0);
        assert_eq!(m.position(SimTime::ZERO), Position::ORIGIN);
        assert_eq!(m.position(SimTime::from_secs(5)), Position::new(50.0, 0.0));
        assert_eq!(m.speed(), 10.0);
    }

    #[test]
    fn loop_traverses_perimeter_and_wraps() {
        // 100x50 rectangle, perimeter 300m, at 10 m/s -> 30s per lap.
        let m = MobilityModel::rectangular_loop(100.0, 50.0, 10.0);
        assert_eq!(m.position(SimTime::ZERO), Position::new(0.0, 0.0));
        assert_eq!(m.position(SimTime::from_secs(5)), Position::new(50.0, 0.0));
        assert_eq!(
            m.position(SimTime::from_secs(10)),
            Position::new(100.0, 0.0)
        );
        // 12s: 20m up the right side.
        assert_eq!(
            m.position(SimTime::from_secs(12)),
            Position::new(100.0, 20.0)
        );
        // Full lap returns to start.
        let lap = m.position(SimTime::from_secs(30));
        assert!(lap.distance_to(Position::ORIGIN) < 1e-9);
        // Wraps identically on the second lap.
        assert!(
            m.position(SimTime::from_secs(35))
                .distance_to(m.position(SimTime::from_secs(5)))
                < 1e-9
        );
    }

    #[test]
    fn cached_path_is_bit_identical_to_the_model() {
        let models = [
            MobilityModel::Static(Position::new(3.0, -4.0)),
            MobilityModel::straight_road(11.3),
            MobilityModel::rectangular_loop(1_700.0, 800.0, 10.0),
            MobilityModel::Loop {
                waypoints: vec![
                    Position::new(0.0, 0.0),
                    Position::new(313.7, 0.1),
                    Position::new(290.0, 451.9),
                ],
                speed: 7.77,
            },
        ];
        for model in models {
            let cached = CachedPath::new(model.clone());
            for ms in (0u64..200_000).step_by(137) {
                let t = SimTime::from_millis(ms);
                let a = model.position(t);
                let b = cached.position(t);
                assert_eq!(a.x.to_bits(), b.x.to_bits(), "{model:?} at {ms}ms");
                assert_eq!(a.y.to_bits(), b.y.to_bits(), "{model:?} at {ms}ms");
            }
        }
    }

    /// Linear displacement over dt equals speed * dt.
    #[test]
    fn linear_speed_consistency() {
        check("linear_speed_consistency", 256, |g| {
            let speed = g.f64(0.1..50.0);
            let (t1, dt) = (g.u64(0..1000), g.u64(1..1000));
            let m = MobilityModel::straight_road(speed);
            let p1 = m.position(SimTime::from_millis(t1));
            let p2 = m.position(SimTime::from_millis(t1 + dt));
            let expected = speed * dt as f64 / 1e3;
            let moved = p1.distance_to(p2);
            assert!(
                (moved - expected).abs() < 1e-6,
                "moved {moved}, expected {expected}"
            );
        });
    }

    /// Loop positions always lie within the rectangle's bounding box.
    #[test]
    fn loop_stays_in_bounds() {
        check("loop_stays_in_bounds", 256, |g| {
            let m = MobilityModel::rectangular_loop(100.0, 50.0, 7.0);
            let p = m.position(SimTime::from_millis(g.u64(0..10_000) * 10));
            assert!((-1e-9..=100.0 + 1e-9).contains(&p.x), "{p:?}");
            assert!((-1e-9..=50.0 + 1e-9).contains(&p.y), "{p:?}");
        });
    }
}
