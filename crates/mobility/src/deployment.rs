//! Access-point deployment generation.
//!
//! The paper measured (§4.1) that nearly all open APs in its town sat on
//! channel 1 (28 %), 6 (33 %) or 11 (34 %); Cabernet reported 83 % on
//! those three in Boston. [`Deployment::poisson_roadside`] generates
//! synthetic deployments with that mix: AP positions follow a Poisson
//! process along the road with a configurable density, displaced laterally
//! as buildings would be.

use crate::geometry::Position;
use spider_simcore::SimRng;
use spider_wire::Channel;

/// Relative frequency of APs per channel.
#[derive(Debug, Clone)]
pub struct ChannelMix {
    weights: Vec<(Channel, f64)>,
}

impl ChannelMix {
    /// The paper's measured town mix: 28 % / 33 % / 34 % on channels
    /// 1/6/11 and the remaining 5 % spread over 3 and 9.
    pub fn paper_town() -> ChannelMix {
        ChannelMix {
            weights: vec![
                (Channel::CH1, 0.28),
                (Channel::CH6, 0.33),
                (Channel::CH11, 0.34),
                (Channel::new(3), 0.03),
                (Channel::new(9), 0.02),
            ],
        }
    }

    /// Cabernet's Boston mix: 39 % on channel 6, 83 % total on 1/6/11
    /// (§4.1), remainder spread.
    pub fn boston() -> ChannelMix {
        ChannelMix {
            weights: vec![
                (Channel::CH1, 0.22),
                (Channel::CH6, 0.39),
                (Channel::CH11, 0.22),
                (Channel::new(3), 0.06),
                (Channel::new(4), 0.05),
                (Channel::new(9), 0.06),
            ],
        }
    }

    /// Every AP on a single channel (for controlled micro-benchmarks).
    pub fn single(ch: Channel) -> ChannelMix {
        ChannelMix {
            weights: vec![(ch, 1.0)],
        }
    }

    /// A custom mix. Weights need not be normalised but must be
    /// non-negative with a positive sum.
    pub fn custom(weights: Vec<(Channel, f64)>) -> ChannelMix {
        assert!(
            weights.iter().map(|&(_, w)| w).sum::<f64>() > 0.0,
            "channel mix needs positive total weight"
        );
        ChannelMix { weights }
    }

    /// Sample a channel.
    pub fn sample(&self, rng: &mut SimRng) -> Channel {
        let ws: Vec<f64> = self.weights.iter().map(|&(_, w)| w).collect();
        self.weights[rng.pick_weighted(&ws)].0
    }

    /// The normalised probability of a channel under this mix.
    pub fn probability(&self, ch: Channel) -> f64 {
        let total: f64 = self.weights.iter().map(|&(_, w)| w).sum();
        self.weights
            .iter()
            .filter(|&&(c, _)| c == ch)
            .map(|&(_, w)| w / total)
            .sum()
    }
}

/// One deployed access point.
#[derive(Debug, Clone)]
pub struct ApSite {
    /// Stable identifier (index into the deployment).
    pub id: usize,
    /// Location.
    pub position: Position,
    /// Operating channel.
    pub channel: Channel,
    /// Backhaul capacity in bytes/second.
    pub backhaul_bps: f64,
    /// One-way backhaul latency to the wired server, seconds.
    pub backhaul_latency_s: f64,
    /// Mean DHCP-server response delay βmin..βmax handled by the
    /// netstack; stored here as (min, max) in seconds so deployments can
    /// mix fast and slow APs.
    pub dhcp_beta: (f64, f64),
    /// Whether the AP's DHCP server answers at all. Open but broken APs
    /// (captive portals, filtered DHCP, dead backhauls) are common in
    /// the wild and are exactly what join-history selection avoids.
    pub dhcp_responsive: bool,
}

/// A set of deployed APs.
#[derive(Debug, Clone, Default)]
pub struct Deployment {
    /// The sites.
    pub sites: Vec<ApSite>,
}

/// Parameters for [`Deployment::poisson_roadside`].
#[derive(Debug, Clone)]
pub struct RoadsideParams {
    /// Road length covered, metres.
    pub road_length_m: f64,
    /// AP density per kilometre of road.
    pub density_per_km: f64,
    /// Maximum lateral offset from the road axis, metres.
    pub max_offset_m: f64,
    /// Channel distribution.
    pub mix: ChannelMix,
    /// Backhaul capacity range (bytes/second), sampled uniformly.
    pub backhaul_bps: (f64, f64),
    /// One-way backhaul latency range (seconds), sampled uniformly.
    pub backhaul_latency_s: (f64, f64),
    /// DHCP response time bounds (βmin, βmax) in seconds applied to all
    /// APs.
    pub dhcp_beta: (f64, f64),
    /// Fraction of APs whose DHCP never answers.
    pub dead_dhcp_fraction: f64,
}

impl Default for RoadsideParams {
    fn default() -> Self {
        RoadsideParams {
            road_length_m: 5_000.0,
            density_per_km: 10.0,
            max_offset_m: 30.0,
            mix: ChannelMix::paper_town(),
            // 1–5 Mbps backhaul (Fig. 10 sweeps this band).
            backhaul_bps: (125_000.0, 625_000.0),
            backhaul_latency_s: (0.010, 0.040),
            // βmin = 500ms, βmax = 10s: the paper's model defaults.
            dhcp_beta: (0.5, 10.0),
            dead_dhcp_fraction: 0.0,
        }
    }
}

impl Deployment {
    /// Generate a roadside deployment: AP longitudinal positions follow a
    /// Poisson process with the given density along the x-axis, lateral
    /// offsets are uniform in ±`max_offset_m`.
    pub fn poisson_roadside(rng: &mut SimRng, params: &RoadsideParams) -> Deployment {
        let mean_gap_m = 1_000.0 / params.density_per_km;
        let mut sites = Vec::new();
        let mut x = rng.exponential(mean_gap_m);
        while x < params.road_length_m {
            let y = rng.uniform_in(-params.max_offset_m, params.max_offset_m);
            sites.push(ApSite {
                id: sites.len(),
                position: Position::new(x, y),
                channel: params.mix.sample(rng),
                backhaul_bps: rng.uniform_in(params.backhaul_bps.0, params.backhaul_bps.1),
                backhaul_latency_s: rng
                    .uniform_in(params.backhaul_latency_s.0, params.backhaul_latency_s.1),
                dhcp_beta: params.dhcp_beta,
                dhcp_responsive: !rng.chance(params.dead_dhcp_fraction),
            });
            x += rng.exponential(mean_gap_m);
        }
        Deployment { sites }
    }

    /// Generate a deployment along the perimeter of a rectangular loop
    /// route (the paper's town drives followed "the same route multiple
    /// times", §4.1). AP arc-length positions follow a Poisson process;
    /// lateral offsets are applied perpendicular to the local edge.
    pub fn poisson_loop(
        rng: &mut SimRng,
        width_m: f64,
        height_m: f64,
        params: &RoadsideParams,
    ) -> Deployment {
        let perimeter = 2.0 * (width_m + height_m);
        let mean_gap_m = 1_000.0 / params.density_per_km;
        let mut sites = Vec::new();
        let mut s = rng.exponential(mean_gap_m);
        while s < perimeter {
            let offset = rng.uniform_in(-params.max_offset_m, params.max_offset_m);
            // Map arc length to a point on the rectangle with the offset
            // applied perpendicular to the edge.
            let position = if s < width_m {
                Position::new(s, offset)
            } else if s < width_m + height_m {
                Position::new(width_m + offset, s - width_m)
            } else if s < 2.0 * width_m + height_m {
                Position::new(2.0 * width_m + height_m - s, height_m + offset)
            } else {
                Position::new(offset, perimeter - s)
            };
            sites.push(ApSite {
                id: sites.len(),
                position,
                channel: params.mix.sample(rng),
                backhaul_bps: rng.uniform_in(params.backhaul_bps.0, params.backhaul_bps.1),
                backhaul_latency_s: rng
                    .uniform_in(params.backhaul_latency_s.0, params.backhaul_latency_s.1),
                dhcp_beta: params.dhcp_beta,
                dhcp_responsive: !rng.chance(params.dead_dhcp_fraction),
            });
            s += rng.exponential(mean_gap_m);
        }
        Deployment { sites }
    }

    /// A fixed lab deployment: APs at the given positions/channels with
    /// identical backhaul, used for controlled micro-benchmarks (Fig. 10).
    pub fn lab(aps: Vec<(Position, Channel)>, backhaul_bps: f64) -> Deployment {
        Deployment {
            sites: aps
                .into_iter()
                .enumerate()
                .map(|(id, (position, channel))| ApSite {
                    id,
                    position,
                    channel,
                    backhaul_bps,
                    backhaul_latency_s: 0.005,
                    dhcp_beta: (0.05, 0.3),
                    dhcp_responsive: true,
                })
                .collect(),
        }
    }

    /// Sites operating on `ch`.
    pub fn on_channel(&self, ch: Channel) -> impl Iterator<Item = &ApSite> {
        self.sites.iter().filter(move |s| s.channel == ch)
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the deployment is empty.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mix_frequencies() {
        let mix = ChannelMix::paper_town();
        let mut rng = SimRng::new(1);
        let n = 50_000;
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..n {
            *counts.entry(mix.sample(&mut rng)).or_insert(0u32) += 1;
        }
        let f = |ch: Channel| counts.get(&ch).copied().unwrap_or(0) as f64 / n as f64;
        assert!((f(Channel::CH1) - 0.28).abs() < 0.01);
        assert!((f(Channel::CH6) - 0.33).abs() < 0.01);
        assert!((f(Channel::CH11) - 0.34).abs() < 0.01);
    }

    #[test]
    fn probability_is_normalised() {
        let mix = ChannelMix::paper_town();
        let total: f64 = (1..=14)
            .filter_map(Channel::try_new)
            .map(|c| mix.probability(c))
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_density_is_respected() {
        let mut rng = SimRng::new(2);
        let params = RoadsideParams {
            road_length_m: 100_000.0,
            density_per_km: 10.0,
            ..Default::default()
        };
        let d = Deployment::poisson_roadside(&mut rng, &params);
        // Expect ~1000 APs; Poisson sd ~32.
        assert!((850..1150).contains(&d.len()), "{} APs", d.len());
        for s in &d.sites {
            assert!(s.position.x >= 0.0 && s.position.x <= 100_000.0);
            assert!(s.position.y.abs() <= 30.0);
            assert!(s.backhaul_bps >= 125_000.0 && s.backhaul_bps <= 625_000.0);
        }
        // ids are the indices
        for (i, s) in d.sites.iter().enumerate() {
            assert_eq!(s.id, i);
        }
    }

    #[test]
    fn deployment_is_deterministic_per_seed() {
        let params = RoadsideParams::default();
        let a = Deployment::poisson_roadside(&mut SimRng::new(3), &params);
        let b = Deployment::poisson_roadside(&mut SimRng::new(3), &params);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.sites.iter().zip(&b.sites) {
            assert_eq!(x.position, y.position);
            assert_eq!(x.channel, y.channel);
        }
    }

    #[test]
    fn on_channel_filters() {
        let d = Deployment::lab(
            vec![
                (Position::new(0.0, 0.0), Channel::CH1),
                (Position::new(10.0, 0.0), Channel::CH6),
                (Position::new(20.0, 0.0), Channel::CH1),
            ],
            500_000.0,
        );
        assert_eq!(d.on_channel(Channel::CH1).count(), 2);
        assert_eq!(d.on_channel(Channel::CH6).count(), 1);
        assert_eq!(d.on_channel(Channel::CH11).count(), 0);
        assert!(!d.is_empty());
    }

    #[test]
    fn single_mix() {
        let mix = ChannelMix::single(Channel::CH6);
        let mut rng = SimRng::new(4);
        for _ in 0..100 {
            assert_eq!(mix.sample(&mut rng), Channel::CH6);
        }
        assert_eq!(mix.probability(Channel::CH6), 1.0);
        assert_eq!(mix.probability(Channel::CH1), 0.0);
    }
}
