//! Shared-medium contention.
//!
//! 802.11 is half-duplex and CSMA/CA serialises transmissions per
//! channel. [`ChannelMedium`] models this at frame granularity: each
//! channel has a "busy until" horizon, and a new transmission starts at
//! `max(now, busy_until)`. This coarse model captures what matters for
//! the paper's results — aggregate throughput from several APs on one
//! channel cannot exceed the channel rate (Fig. 10's ceiling).

use spider_simcore::{SimDuration, SimTime};
use spider_wire::Channel;

/// Per-channel airtime accounting.
///
/// State is a flat array indexed by [`Channel::index`]: `reserve` sits
/// on the per-frame transmit path, so per-channel lookups must not pay
/// for hashing.
#[derive(Debug, Clone)]
pub struct ChannelMedium {
    busy_until: [SimTime; Channel::COUNT],
    /// Cumulative airtime consumed per channel (for utilisation stats).
    airtime_used: [SimDuration; Channel::COUNT],
}

impl Default for ChannelMedium {
    fn default() -> Self {
        ChannelMedium {
            busy_until: [SimTime::ZERO; Channel::COUNT],
            airtime_used: [SimDuration::ZERO; Channel::COUNT],
        }
    }
}

impl ChannelMedium {
    /// Create an idle medium.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the channel for a frame needing `airtime`, starting no
    /// earlier than `now`. Returns `(start, end)` of the transmission.
    pub fn reserve(
        &mut self,
        now: SimTime,
        ch: Channel,
        airtime: SimDuration,
    ) -> (SimTime, SimTime) {
        let free_at = self.busy_until[ch.index()];
        let start = now.max(free_at);
        let end = start + airtime;
        self.busy_until[ch.index()] = end;
        self.airtime_used[ch.index()] += airtime;
        (start, end)
    }

    /// When the channel next becomes idle (never earlier than `now`).
    pub fn idle_at(&self, now: SimTime, ch: Channel) -> SimTime {
        self.busy_until[ch.index()].max(now)
    }

    /// Whether the channel is idle at `now`.
    pub fn is_idle(&self, now: SimTime, ch: Channel) -> bool {
        self.idle_at(now, ch) == now
    }

    /// Total airtime consumed on `ch` so far.
    pub fn airtime_used(&self, ch: Channel) -> SimDuration {
        self.airtime_used[ch.index()]
    }

    /// The furthest instant any reservation extends to, across all
    /// channels. Frame fates are decided at reservation time, so this
    /// bounds how far past "now" the simulation has already peeked —
    /// the checkpoint engine must keep plan swaps strictly beyond it.
    pub fn horizon(&self) -> SimTime {
        self.busy_until
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Channel utilisation over `[SimTime::ZERO, now]` as a fraction.
    pub fn utilisation(&self, now: SimTime, ch: Channel) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        (self.airtime_used(ch) / now.saturating_since(SimTime::ZERO)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simcore::check::check;

    const CH: Channel = Channel::CH6;

    #[test]
    fn idle_channel_starts_immediately() {
        let mut m = ChannelMedium::new();
        let now = SimTime::from_millis(5);
        let (start, end) = m.reserve(now, CH, SimDuration::from_millis(2));
        assert_eq!(start, now);
        assert_eq!(end, SimTime::from_millis(7));
    }

    #[test]
    fn busy_channel_serialises() {
        let mut m = ChannelMedium::new();
        let t0 = SimTime::from_millis(0);
        m.reserve(t0, CH, SimDuration::from_millis(3));
        // Second frame at t=1 must wait until t=3.
        let (start, end) = m.reserve(SimTime::from_millis(1), CH, SimDuration::from_millis(2));
        assert_eq!(start, SimTime::from_millis(3));
        assert_eq!(end, SimTime::from_millis(5));
        assert!(!m.is_idle(SimTime::from_millis(4), CH));
        assert!(m.is_idle(SimTime::from_millis(5), CH));
    }

    #[test]
    fn channels_are_independent() {
        let mut m = ChannelMedium::new();
        m.reserve(SimTime::ZERO, Channel::CH1, SimDuration::from_millis(10));
        let (start, _) = m.reserve(SimTime::ZERO, Channel::CH11, SimDuration::from_millis(1));
        assert_eq!(start, SimTime::ZERO);
    }

    #[test]
    fn horizon_tracks_the_furthest_reservation() {
        let mut m = ChannelMedium::new();
        assert_eq!(m.horizon(), SimTime::ZERO);
        m.reserve(
            SimTime::from_millis(2),
            Channel::CH1,
            SimDuration::from_millis(3),
        );
        m.reserve(
            SimTime::from_millis(1),
            Channel::CH11,
            SimDuration::from_millis(1),
        );
        assert_eq!(m.horizon(), SimTime::from_millis(5));
    }

    #[test]
    fn utilisation_accounting() {
        let mut m = ChannelMedium::new();
        m.reserve(SimTime::ZERO, CH, SimDuration::from_millis(25));
        m.reserve(SimTime::from_millis(50), CH, SimDuration::from_millis(25));
        let u = m.utilisation(SimTime::from_millis(100), CH);
        assert!((u - 0.5).abs() < 1e-9);
        assert_eq!(m.airtime_used(CH), SimDuration::from_millis(50));
        assert_eq!(m.airtime_used(Channel::CH1), SimDuration::ZERO);
    }

    /// Transmissions on one channel never overlap.
    #[test]
    fn no_overlap() {
        check("no_overlap", 256, |g| {
            let mut m = ChannelMedium::new();
            let mut now = SimTime::ZERO;
            let mut intervals: Vec<(SimTime, SimTime)> = Vec::new();
            for (dt, len) in g.vec(1..100, |g| (g.u64(0..10_000), g.u64(1..500))) {
                now += SimDuration::from_micros(dt);
                intervals.push(m.reserve(now, CH, SimDuration::from_micros(len)));
            }
            for pair in intervals.windows(2) {
                assert!(pair[1].0 >= pair[0].1, "overlap: {pair:?}");
            }
        });
    }
}
