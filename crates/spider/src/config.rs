//! Spider configuration and the paper's four evaluation modes (§4.1).

use crate::schedule::ChannelSchedule;
use crate::utility::UtilityConfig;
use spider_mac80211::ClientMacConfig;
use spider_netstack::DhcpClientConfig;
use spider_simcore::SimDuration;
use spider_wire::Channel;

/// The four configurations evaluated in §4.1.
#[derive(Debug, Clone)]
pub enum OperationMode {
    /// (1) Single-channel, single-AP: "Spider mimics off-the-shelf Wi-Fi
    /// on a single channel."
    SingleChannelSingleAp(Channel),
    /// (2) Single-channel, multi-AP: stay on one channel, join as many
    /// APs there as possible. The throughput winner.
    SingleChannelMultiAp(Channel),
    /// (3) Multi-channel, multi-AP: static rotation over 1/6/11. The
    /// connectivity winner.
    MultiChannelMultiAp {
        /// Total scheduling period (the paper uses 600 ms).
        period: SimDuration,
    },
    /// (4) Multi-channel, single-AP: rotate channels but hold one AP at a
    /// time.
    MultiChannelSingleAp {
        /// Total scheduling period.
        period: SimDuration,
    },
}

impl OperationMode {
    /// Short label used in experiment output.
    pub fn label(&self) -> String {
        match self {
            OperationMode::SingleChannelSingleAp(ch) => format!("{ch}, Single-AP"),
            OperationMode::SingleChannelMultiAp(ch) => format!("{ch}, Multi-AP"),
            OperationMode::MultiChannelMultiAp { .. } => "Multi-channel, Multi-AP".into(),
            OperationMode::MultiChannelSingleAp { .. } => "Multi-channel, Single-AP".into(),
        }
    }
}

/// Full Spider configuration.
#[derive(Debug, Clone)]
pub struct SpiderConfig {
    /// Number of virtual interfaces the LMM creates at boot (7 in the
    /// paper's experiments).
    pub num_ifaces: usize,
    /// Maximum APs joined concurrently (1 for the single-AP modes).
    pub max_concurrent: usize,
    /// The channel schedule (operation mode).
    pub schedule: ChannelSchedule,
    /// Link-layer timer tuning.
    pub mac: ClientMacConfig,
    /// DHCP timer tuning.
    pub dhcp: DhcpClientConfig,
    /// AP-selection utility parameters.
    pub utility: UtilityConfig,
    /// Client identity (namespaces interface MAC addresses).
    pub client_id: u64,
    /// Restrict AP candidates to these channels (defaults to the
    /// schedule's channels). Used by the §2.2 experiments, which measure
    /// join delays to channel-6 APs while the radio schedule spans
    /// several channels.
    pub candidate_channels: Option<Vec<Channel>>,
}

impl SpiderConfig {
    /// Spider defaults for a given operation mode: 7 interfaces, reduced
    /// link-layer (100 ms) and DHCP (200 ms) timeouts, paper utility
    /// weights.
    pub fn for_mode(mode: OperationMode, client_id: u64) -> SpiderConfig {
        let (schedule, max_concurrent) = match &mode {
            OperationMode::SingleChannelSingleAp(ch) => (ChannelSchedule::single(*ch), 1),
            OperationMode::SingleChannelMultiAp(ch) => (ChannelSchedule::single(*ch), 7),
            OperationMode::MultiChannelMultiAp { period } => {
                (ChannelSchedule::equal(&Channel::ORTHOGONAL, *period), 7)
            }
            OperationMode::MultiChannelSingleAp { period } => {
                (ChannelSchedule::equal(&Channel::ORTHOGONAL, *period), 1)
            }
        };
        SpiderConfig {
            num_ifaces: 7,
            max_concurrent,
            schedule,
            mac: ClientMacConfig::reduced(),
            dhcp: DhcpClientConfig::reduced(SimDuration::from_millis(200)),
            utility: UtilityConfig::default(),
            client_id,
            candidate_channels: None,
        }
    }

    /// Override the schedule while keeping everything else.
    pub fn with_schedule(mut self, schedule: ChannelSchedule) -> SpiderConfig {
        self.schedule = schedule;
        self
    }

    /// Override link-layer and DHCP timers (the sweep of Table 3).
    pub fn with_timeouts(mut self, mac: ClientMacConfig, dhcp: DhcpClientConfig) -> SpiderConfig {
        self.mac = mac;
        self.dhcp = dhcp;
        self
    }

    /// Restrict AP candidates to specific channels regardless of the
    /// schedule.
    pub fn with_candidates(mut self, channels: Vec<Channel>) -> SpiderConfig {
        self.candidate_channels = Some(channels);
        self
    }

    /// Override the interface count (Fig. 15's 1-vs-7 comparison).
    pub fn with_ifaces(mut self, n: usize) -> SpiderConfig {
        assert!(n >= 1);
        self.num_ifaces = n;
        self.max_concurrent = self.max_concurrent.min(n);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_map_to_schedules() {
        let c1 = SpiderConfig::for_mode(OperationMode::SingleChannelSingleAp(Channel::CH1), 0);
        assert!(c1.schedule.is_single_channel());
        assert_eq!(c1.max_concurrent, 1);

        let c2 = SpiderConfig::for_mode(OperationMode::SingleChannelMultiAp(Channel::CH1), 0);
        assert!(c2.schedule.is_single_channel());
        assert_eq!(c2.max_concurrent, 7);

        let c3 = SpiderConfig::for_mode(
            OperationMode::MultiChannelMultiAp {
                period: SimDuration::from_millis(600),
            },
            0,
        );
        assert_eq!(c3.schedule.channels().len(), 3);
        assert_eq!(c3.max_concurrent, 7);

        let c4 = SpiderConfig::for_mode(
            OperationMode::MultiChannelSingleAp {
                period: SimDuration::from_millis(600),
            },
            0,
        );
        assert_eq!(c4.max_concurrent, 1);
    }

    #[test]
    fn builders_compose() {
        let cfg = SpiderConfig::for_mode(OperationMode::SingleChannelMultiAp(Channel::CH6), 1)
            .with_ifaces(3);
        assert_eq!(cfg.num_ifaces, 3);
        assert_eq!(cfg.max_concurrent, 3);
    }

    #[test]
    fn labels() {
        assert_eq!(
            OperationMode::SingleChannelMultiAp(Channel::CH1).label(),
            "ch1, Multi-AP"
        );
    }
}
