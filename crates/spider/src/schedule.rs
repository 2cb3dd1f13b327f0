//! Static channel schedules.
//!
//! An *operation mode* is "the total amount of time to be scheduled among
//! channels and the fraction of time spent on each channel" (§3.2.2). The
//! schedule is round-robin with period `D`: channel *i* holds the radio
//! for `f_i · D`, in slot order. The feasibility constraint is the
//! optimisation framework's Eq. 10: Σ (f_i·D + ⌈f_i⌉·w) ≤ D.

use spider_radio::PhyParams;
use spider_simcore::{SimDuration, SimTime};
use spider_wire::Channel;

/// A static round-robin channel schedule.
#[derive(Debug, Clone)]
pub struct ChannelSchedule {
    period: SimDuration,
    /// `(channel, fraction)` slots in rotation order; fractions sum to 1.
    slots: Vec<(Channel, f64)>,
}

impl ChannelSchedule {
    /// Spend 100 % of the time on one channel (no switching ever).
    pub fn single(ch: Channel) -> ChannelSchedule {
        ChannelSchedule {
            period: SimDuration::from_millis(600),
            slots: vec![(ch, 1.0)],
        }
    }

    /// Equal time on each of the given channels with total period
    /// `period` (e.g. the paper's D = 600 ms over channels 1/6/11).
    pub fn equal(channels: &[Channel], period: SimDuration) -> ChannelSchedule {
        assert!(!channels.is_empty());
        let f = 1.0 / channels.len() as f64;
        ChannelSchedule {
            period,
            slots: channels.iter().map(|&c| (c, f)).collect(),
        }
    }

    /// A custom schedule. Fractions must be positive and sum to ~1.
    pub fn custom(period: SimDuration, slots: Vec<(Channel, f64)>) -> ChannelSchedule {
        assert!(!slots.is_empty(), "schedule needs at least one slot");
        assert!(!period.is_zero(), "period must be positive");
        let sum: f64 = slots.iter().map(|&(_, f)| f).sum();
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "slot fractions must sum to 1, got {sum}"
        );
        assert!(
            slots.iter().all(|&(_, f)| f > 0.0),
            "slot fractions must be positive"
        );
        ChannelSchedule { period, slots }
    }

    /// The paper's experimental schedule notation "(x, y, z)" — percent
    /// of a period dedicated to channels 1, 6 and 11 (zeros skipped),
    /// e.g. `(100, 0, 0)` or `(50, 0, 50)` from Fig. 10.
    pub fn percent_1_6_11(p1: u32, p6: u32, p11: u32, period: SimDuration) -> ChannelSchedule {
        let total = (p1 + p6 + p11) as f64;
        assert!(total > 0.0);
        let mut slots = Vec::new();
        for (ch, p) in [(Channel::CH1, p1), (Channel::CH6, p6), (Channel::CH11, p11)] {
            if p > 0 {
                slots.push((ch, p as f64 / total));
            }
        }
        ChannelSchedule { period, slots }
    }

    /// Scheduling period `D`.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The slots.
    pub fn slots(&self) -> &[(Channel, f64)] {
        &self.slots
    }

    /// Channels appearing in the schedule.
    pub fn channels(&self) -> Vec<Channel> {
        self.slots.iter().map(|&(c, _)| c).collect()
    }

    /// Whether the schedule never switches.
    pub fn is_single_channel(&self) -> bool {
        self.slots.len() == 1
    }

    /// The fraction of time on `ch` (the model's `f_i`).
    pub fn fraction(&self, ch: Channel) -> f64 {
        self.slots
            .iter()
            .filter(|&&(c, _)| c == ch)
            .map(|&(_, f)| f)
            .sum()
    }

    /// The channel scheduled at time `now`.
    pub fn channel_at(&self, now: SimTime) -> Channel {
        if self.slots.len() == 1 {
            return self.slots[0].0;
        }
        let phase = now.as_micros() % self.period.as_micros();
        let mut acc = 0u64;
        for &(ch, f) in &self.slots {
            acc += (self.period.as_micros() as f64 * f).round() as u64;
            if phase < acc {
                return ch;
            }
        }
        self.slots.last().unwrap().0
    }

    /// The next instant at which the scheduled channel changes (strictly
    /// after `now`). For a single-channel schedule this is
    /// [`SimTime::MAX`].
    pub fn next_boundary(&self, now: SimTime) -> SimTime {
        if self.slots.len() == 1 {
            return SimTime::MAX;
        }
        let period_us = self.period.as_micros();
        let phase = now.as_micros() % period_us;
        let mut acc = 0u64;
        for &(_, f) in &self.slots {
            acc += (period_us as f64 * f).round() as u64;
            if phase < acc {
                let boundary = acc.min(period_us);
                return SimTime::from_micros(now.as_micros() - phase + boundary);
            }
        }
        SimTime::from_micros(now.as_micros() - phase + period_us)
    }

    /// Eq. 10 feasibility: the slot times plus one switch per slot must
    /// fit in the period. Returns the slack (negative = infeasible).
    pub fn slack(&self, phy: &PhyParams) -> f64 {
        if self.slots.len() == 1 {
            return 0.0;
        }
        let switches = self.slots.len() as f64;
        let w = phy.switch_latency(0).as_secs_f64();
        let d = self.period.as_secs_f64();
        let used: f64 = self.slots.iter().map(|&(_, f)| f * d).sum::<f64>() + switches * w;
        d - used
    }

    /// Whether the schedule satisfies Eq. 10 under `phy` — note switch
    /// time comes out of the slots themselves in our implementation, so
    /// a schedule is usable if each slot is at least one switch long.
    pub fn is_feasible(&self, phy: &PhyParams) -> bool {
        if self.slots.len() == 1 {
            return true;
        }
        let w = phy.switch_latency(0).as_secs_f64();
        let d = self.period.as_secs_f64();
        self.slots.iter().all(|&(_, f)| f * d > w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simcore::check::check;

    #[test]
    fn single_channel_never_switches() {
        let s = ChannelSchedule::single(Channel::CH1);
        assert!(s.is_single_channel());
        assert_eq!(s.channel_at(SimTime::from_millis(123)), Channel::CH1);
        assert_eq!(s.next_boundary(SimTime::from_millis(123)), SimTime::MAX);
        assert_eq!(s.fraction(Channel::CH1), 1.0);
        assert_eq!(s.fraction(Channel::CH6), 0.0);
    }

    #[test]
    fn equal_three_channel_rotation() {
        let s = ChannelSchedule::equal(&Channel::ORTHOGONAL, SimDuration::from_millis(600));
        // 200ms per channel.
        assert_eq!(s.channel_at(SimTime::from_millis(0)), Channel::CH1);
        assert_eq!(s.channel_at(SimTime::from_millis(199)), Channel::CH1);
        assert_eq!(s.channel_at(SimTime::from_millis(200)), Channel::CH6);
        assert_eq!(s.channel_at(SimTime::from_millis(420)), Channel::CH11);
        // Wraps around the period.
        assert_eq!(s.channel_at(SimTime::from_millis(600)), Channel::CH1);
        assert_eq!(s.channel_at(SimTime::from_millis(800)), Channel::CH6);
    }

    #[test]
    fn boundaries_are_strictly_future() {
        let s = ChannelSchedule::equal(&Channel::ORTHOGONAL, SimDuration::from_millis(600));
        assert_eq!(s.next_boundary(SimTime::ZERO), SimTime::from_millis(200));
        assert_eq!(
            s.next_boundary(SimTime::from_millis(200)),
            SimTime::from_millis(400)
        );
        assert_eq!(
            s.next_boundary(SimTime::from_millis(599)),
            SimTime::from_millis(600)
        );
        assert_eq!(
            s.next_boundary(SimTime::from_millis(1_250)),
            SimTime::from_millis(1_400)
        );
    }

    #[test]
    fn skewed_schedule() {
        let s = ChannelSchedule::custom(
            SimDuration::from_millis(400),
            vec![(Channel::CH6, 0.75), (Channel::CH1, 0.25)],
        );
        assert_eq!(s.channel_at(SimTime::from_millis(299)), Channel::CH6);
        assert_eq!(s.channel_at(SimTime::from_millis(300)), Channel::CH1);
        assert!((s.fraction(Channel::CH6) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn percent_notation() {
        let s = ChannelSchedule::percent_1_6_11(50, 0, 50, SimDuration::from_millis(200));
        assert_eq!(s.slots().len(), 2);
        assert_eq!(s.channels(), vec![Channel::CH1, Channel::CH11]);
        let single = ChannelSchedule::percent_1_6_11(100, 0, 0, SimDuration::from_millis(400));
        assert!(single.is_single_channel());
    }

    #[test]
    fn feasibility_under_switch_cost() {
        let phy = PhyParams::b11();
        // 200ms slots dwarf a 5ms switch.
        let ok = ChannelSchedule::equal(&Channel::ORTHOGONAL, SimDuration::from_millis(600));
        assert!(ok.is_feasible(&phy));
        assert!(ok.slack(&phy) < 0.0); // switches eat into slots
                                       // 3ms slots are shorter than the switch itself.
        let bad = ChannelSchedule::equal(&Channel::ORTHOGONAL, SimDuration::from_millis(9));
        assert!(!bad.is_feasible(&phy));
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_unnormalised() {
        ChannelSchedule::custom(
            SimDuration::from_millis(100),
            vec![(Channel::CH1, 0.5), (Channel::CH6, 0.2)],
        );
    }

    /// channel_at is consistent with next_boundary: the channel is
    /// constant within [now, boundary) and changes at the boundary.
    #[test]
    fn channel_constant_until_boundary() {
        let s = ChannelSchedule::custom(
            SimDuration::from_millis(500),
            vec![
                (Channel::CH1, 0.4),
                (Channel::CH6, 0.35),
                (Channel::CH11, 0.25),
            ],
        );
        check("channel_constant_until_boundary", 256, |g| {
            let now = SimTime::from_micros(g.u64(0..10_000_000));
            let ch = s.channel_at(now);
            let boundary = s.next_boundary(now);
            assert!(boundary > now, "boundary {boundary} not after {now}");
            let just_before = SimTime::from_micros(boundary.as_micros() - 1);
            assert_eq!(s.channel_at(just_before), ch, "changed before {boundary}");
            assert_ne!(s.channel_at(boundary), ch, "unchanged at {boundary}");
        });
    }
}
