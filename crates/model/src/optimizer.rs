//! Throughput maximisation (Eqs. 8–10) and the dividing speed.
//!
//! Choose channel fractions `f_i` to maximise `T · Σ f_i · Bw` subject
//! to:
//!
//! * Eq. 9 — the air time scheduled on a channel is only useful up to the
//!   bandwidth actually obtainable there: the already-joined bandwidth
//!   `B_j` plus the available bandwidth `B_a` discounted by the fraction
//!   of the encounter spent still joining (which itself depends on
//!   `f_i` through the join model),
//! * Eq. 10 — slot times plus one switch per active channel fit in `D`.
//!
//! Solved by grid search — the space is tiny (k ≤ 3 channels at 1 %
//! resolution) and the objective is not smooth in `f` because `E[X_i]`
//! is built from the stepwise join model, so a grid beats gradient
//! methods here.

use crate::join::JoinModel;

/// Per-channel bandwidth situation, as fractions of the wireless
/// bandwidth `Bw`.
#[derive(Debug, Clone, Copy)]
pub struct ChannelScenario {
    /// End-to-end bandwidth from APs already joined (`B_j / Bw`).
    pub joined_frac: f64,
    /// End-to-end bandwidth from APs still requiring a join (`B_a / Bw`).
    pub available_frac: f64,
}

/// The optimiser.
#[derive(Debug, Clone)]
pub struct ThroughputOptimizer {
    /// Join model supplying `E[X_i]`.
    pub model: JoinModel,
    /// Wireless channel bandwidth `Bw` in bits/second (11 Mb/s in the
    /// paper).
    pub bw_bps: f64,
    /// Practical Wi-Fi range in metres (encounter length = 2 · range).
    pub range_m: f64,
    /// Grid resolution for the fractions.
    pub grid: usize,
}

/// An optimal schedule for one scenario and speed.
#[derive(Debug, Clone)]
pub struct OptimalSchedule {
    /// Chosen fraction per channel.
    pub fractions: Vec<f64>,
    /// Attainable bandwidth per channel in bits/second (`f_i·Bw` capped
    /// by Eq. 9's right-hand side).
    pub per_channel_bps: Vec<f64>,
    /// Total attainable bandwidth (the objective).
    pub total_bps: f64,
}

impl ThroughputOptimizer {
    /// Paper defaults: Bw = 11 Mb/s, 100 m range, 1 % grid.
    pub fn paper(model: JoinModel) -> ThroughputOptimizer {
        ThroughputOptimizer {
            model,
            bw_bps: 11e6,
            range_m: 100.0,
            grid: 50,
        }
    }

    /// Usable time in range at `speed` m/s. Joining starts when the AP
    /// is first heard, which on average happens mid-cell, so the time
    /// available to join-and-use an AP is one range radius — `R / v` —
    /// not the full 2R chord ("given a practical Wi-Fi range of 100
    /// meters", §2.1.3).
    pub fn encounter_secs(&self, speed_mps: f64) -> f64 {
        assert!(speed_mps > 0.0);
        self.range_m / speed_mps
    }

    /// Eq. 9's right-hand side: the usable bandwidth fraction on a
    /// channel given its fraction `f` and encounter length `t`.
    fn usable_frac(&self, sc: &ChannelScenario, f: f64, t: f64) -> f64 {
        let join_frac = self.model.expected_join_fraction(f, t);
        (sc.joined_frac + (1.0 - join_frac) * sc.available_frac).min(1.0)
    }

    /// Solve for the optimal fractions over `scenarios` (one per
    /// channel) at the given node speed.
    ///
    /// Eq. 9 is a *feasibility* constraint with `f_i` on both sides
    /// (spending more time on a channel also speeds up its joins):
    /// `f_i ≤ (B_j + (1 − E[X_i(f_i)])·B_a) / Bw`. A fraction is usable
    /// only if it satisfies its own fixed-point inequality — which is
    /// exactly why a fast-moving node must abandon a join-needing
    /// channel: at short encounters, every positive `f` demands more air
    /// time than the still-joining APs can repay.
    pub fn optimize(&self, scenarios: &[ChannelScenario], speed_mps: f64) -> OptimalSchedule {
        assert!(!scenarios.is_empty());
        let t = self.encounter_secs(speed_mps);
        let k = scenarios.len();
        let g = self.grid;
        // Per-channel feasible grid fractions under Eq. 9.
        let feasible: Vec<Vec<bool>> = scenarios
            .iter()
            .map(|sc| {
                (0..=g)
                    .map(|i| {
                        let f = i as f64 / g as f64;
                        f <= self.usable_frac(sc, f, t) + 1e-9
                    })
                    .collect()
            })
            .collect();
        let switch_frac = self.model.w / self.model.d;

        let mut best = OptimalSchedule {
            fractions: vec![0.0; k],
            per_channel_bps: vec![0.0; k],
            total_bps: 0.0,
        };
        let mut idx = vec![0usize; k];
        loop {
            let eq9_ok = idx.iter().enumerate().all(|(ch, &i)| feasible[ch][i]);
            // Eq. 10: Σ f_i + (#active channels)·w/D ≤ 1.
            let active = idx.iter().filter(|&&i| i > 0).count();
            let sum: f64 = idx.iter().map(|&i| i as f64 / g as f64).sum();
            if eq9_ok && sum + active as f64 * switch_frac <= 1.0 + 1e-9 {
                let per: Vec<f64> = idx
                    .iter()
                    .map(|&i| i as f64 / g as f64 * self.bw_bps)
                    .collect();
                let total = per.iter().sum::<f64>();
                if total > best.total_bps + 1e-6 {
                    best = OptimalSchedule {
                        fractions: idx.iter().map(|&i| i as f64 / g as f64).collect(),
                        per_channel_bps: per,
                        total_bps: total,
                    };
                }
            }
            // Advance the odometer.
            let mut pos = 0;
            loop {
                if pos == k {
                    return best;
                }
                idx[pos] += 1;
                if idx[pos] <= g {
                    break;
                }
                idx[pos] = 0;
                pos += 1;
            }
        }
    }

    /// The dividing speed for a two-channel scenario: the lowest speed at
    /// which the optimal schedule abandons the second channel entirely.
    /// Scans `speeds` (ascending); returns the first speed whose optimum
    /// puts less than one grid step on the losing channel.
    pub fn dividing_speed(&self, scenarios: &[ChannelScenario; 2], speeds: &[f64]) -> Option<f64> {
        for &v in speeds {
            let opt = self.optimize(scenarios, v);
            let min_side = opt.fractions.iter().cloned().fold(f64::INFINITY, f64::min);
            if min_side < 1.0 / self.grid as f64 + 1e-9 {
                return Some(v);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simcore::check::check;

    fn optimizer(beta_max: f64) -> ThroughputOptimizer {
        let mut o = ThroughputOptimizer::paper(JoinModel::paper_defaults(beta_max));
        o.grid = 20; // coarser grid keeps tests fast
        o
    }

    /// The paper's three Fig. 4 scenarios.
    fn scenario(joined1: f64, avail2: f64) -> [ChannelScenario; 2] {
        [
            ChannelScenario {
                joined_frac: joined1,
                available_frac: 0.0,
            },
            ChannelScenario {
                joined_frac: 0.0,
                available_frac: avail2,
            },
        ]
    }

    #[test]
    fn fast_nodes_stay_on_the_joined_channel() {
        // Fig. 4 headline: at high speed, all time goes to the channel
        // with already-joined APs; the join-needing channel is
        // infeasible at any positive fraction (Eq. 9 fixed point).
        let o = optimizer(10.0);
        for v in [10.0, 20.0] {
            let opt = o.optimize(&scenario(0.75, 0.25), v);
            assert!(
                opt.fractions[1] < 0.06,
                "at {v} m/s ch2 should be abandoned: {:?}",
                opt.fractions
            );
            assert!(opt.fractions[0] >= 0.70);
            assert!(opt.per_channel_bps[1] < 0.06 * 11e6);
        }
    }

    #[test]
    fn slow_nodes_split_time_when_the_other_channel_offers_more() {
        // At 2.5 m/s with only 25% joined on ch1 and 75% available on
        // ch2, the node should spend real time joining ch2.
        let o = optimizer(10.0);
        let opt = o.optimize(&scenario(0.25, 0.75), 2.5);
        assert!(
            opt.fractions[1] > 0.15,
            "slow node should invest in ch2: {:?}",
            opt.fractions
        );
        assert!(opt.total_bps > 0.25 * 11e6);
    }

    #[test]
    fn dividing_speed_is_below_10mps() {
        // "users that travel with an average speed of 10 m/s or faster
        // should form concurrent Wi-Fi connections only within a single
        // channel" — so the dividing speed is at most 10 m/s in the
        // paper's scenarios (Fig. 4's x-axis: 2.5–20 m/s).
        let o = optimizer(10.0);
        let speeds = [2.5, 3.3, 5.0, 6.6, 10.0, 20.0];
        let div = o
            .dividing_speed(&scenario(0.75, 0.25), &speeds)
            .expect("dividing speed for (0.75,0.25)");
        assert!(div <= 10.0, "dividing speed {div} for (0.75,0.25)");
        // Scenarios with more bandwidth behind the join divide later but
        // still within the vehicular band (Fig. 4's x-axis reaches 20).
        for (j, a) in [(0.5, 0.5), (0.25, 0.75)] {
            let div = o.dividing_speed(&scenario(j, a), &speeds);
            assert!(div.is_some(), "no dividing speed found for ({j},{a})");
            assert!(div.unwrap() <= 20.0, "dividing speed {div:?} for ({j},{a})");
        }
    }

    #[test]
    fn objective_capped_by_offered_bandwidth() {
        let o = optimizer(10.0);
        // Nothing joined, nothing available: zero throughput no matter
        // the schedule.
        let empty = [ChannelScenario {
            joined_frac: 0.0,
            available_frac: 0.0,
        }];
        let opt = o.optimize(&empty, 5.0);
        assert_eq!(opt.total_bps, 0.0);
        // Fully joined single channel: full Bw.
        let full = [ChannelScenario {
            joined_frac: 1.0,
            available_frac: 0.0,
        }];
        let opt = o.optimize(&full, 5.0);
        assert!((opt.total_bps - 11e6).abs() < 11e6 / 20.0 + 1.0);
    }

    /// Eq. 10 on one to three channels of any bandwidth mix and any
    /// vehicular speed: the slots plus one 7 ms switch per active
    /// channel fit in the 500 ms period.
    #[test]
    fn schedule_satisfies_eq10() {
        let o = optimizer(5.0);
        check("schedule_satisfies_eq10", 32, |g| {
            let scenarios = g.vec(1..4, |g| ChannelScenario {
                joined_frac: g.f64(0.0..1.0),
                available_frac: g.f64(0.0..1.0),
            });
            let opt = o.optimize(&scenarios, g.f64(2.5..20.0));
            let active = opt.fractions.iter().filter(|&&f| f > 0.0).count() as f64;
            let sum: f64 = opt.fractions.iter().sum();
            assert!(sum + active * (0.007 / 0.5) <= 1.0 + 1e-6, "{opt:?}");
        });
    }

    #[test]
    fn encounter_shrinks_with_speed() {
        let o = optimizer(5.0);
        assert_eq!(o.encounter_secs(10.0), 10.0);
        assert_eq!(o.encounter_secs(2.5), 40.0);
    }

    #[test]
    fn faster_joins_make_second_channel_more_attractive() {
        let o_fast = optimizer(1.0);
        let o_slow = optimizer(10.0);
        let sc = scenario(0.25, 0.75);
        let at = |o: &ThroughputOptimizer| o.optimize(&sc, 6.6).fractions[1];
        assert!(
            at(&o_fast) >= at(&o_slow),
            "shorter βmax should not reduce time invested on the join channel"
        );
    }
}
