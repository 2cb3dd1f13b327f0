//! The client radio: tuning state and channel switching.
//!
//! A physical card listens on exactly one channel. Changing channels
//! requires a hardware reset during which nothing can be sent or received
//! (§3.2.1); the latency `w` is the paper's Table 1 measurement and the
//! `w` of the analytical model. [`Radio`] is the state machine every
//! driver (Spider and the baselines) drives.

use crate::phy::PhyParams;
use spider_simcore::SimTime;
use spider_wire::Channel;

/// The radio's tuning state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadioState {
    /// Tuned and able to send/receive on the channel.
    Tuned(Channel),
    /// Mid hardware reset; deaf until `until`.
    Switching {
        /// Channel being switched to.
        to: Channel,
        /// When the switch completes.
        until: SimTime,
    },
}

/// A single physical Wi-Fi radio.
#[derive(Debug, Clone)]
pub struct Radio {
    state: RadioState,
    switches: u64,
}

impl Radio {
    /// Create a radio initially tuned to `ch`.
    pub fn new(ch: Channel) -> Radio {
        Radio {
            state: RadioState::Tuned(ch),
            switches: 0,
        }
    }

    /// Current state (after settling any completed switch at `now`).
    pub fn state_at(&mut self, now: SimTime) -> RadioState {
        if let RadioState::Switching { to, until } = self.state {
            if now >= until {
                self.state = RadioState::Tuned(to);
            }
        }
        self.state
    }

    /// The channel the radio can currently hear, or `None` while deaf
    /// mid-switch.
    pub fn listening_on(&mut self, now: SimTime) -> Option<Channel> {
        match self.state_at(now) {
            RadioState::Tuned(ch) => Some(ch),
            RadioState::Switching { .. } => None,
        }
    }

    /// Begin switching to `to` at time `now`. `associated_ifaces` is the
    /// number of virtual interfaces that need PSM signalling around the
    /// switch (raises latency, per Table 1). Returns the completion time.
    ///
    /// Switching to the already-tuned channel is free and returns `now`.
    pub fn start_switch(
        &mut self,
        now: SimTime,
        to: Channel,
        phy: &PhyParams,
        associated_ifaces: usize,
    ) -> SimTime {
        match self.state_at(now) {
            RadioState::Tuned(ch) if ch == to => now,
            RadioState::Switching { to: cur, until } if cur == to => until,
            _ => {
                let until = now + phy.switch_latency(associated_ifaces);
                self.state = RadioState::Switching { to, until };
                self.switches += 1;
                until
            }
        }
    }

    /// Whether the radio can possibly be listening on `ch` at `at`,
    /// given its state at `now <= at` and whatever switches start in
    /// `[now, at]`. `false` proves that [`Radio::listening_on`] at `at`
    /// is not `Some(ch)`: unless the radio is tuned to `ch` or its
    /// switch to `ch` completes by `at`, hearing `ch` takes a fresh
    /// switch, which ends no earlier than `now + phy.switch_latency(0)`
    /// (a redundant request for the channel already being switched to
    /// keeps its completion time). `true` is exact too: redirecting
    /// away and back to `ch` at `now`, with no interface to signal,
    /// hears it.
    pub fn may_hear(&self, now: SimTime, ch: Channel, at: SimTime, phy: &PhyParams) -> bool {
        let settled = match self.state {
            RadioState::Tuned(c) => c == ch,
            RadioState::Switching { to, until } => to == ch && until <= at,
        };
        settled || now + phy.switch_latency(0) <= at
    }

    /// Number of hardware switches performed.
    pub fn switch_count(&self) -> u64 {
        self.switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simcore::{SimDuration, SimRng};

    #[test]
    fn starts_tuned() {
        let mut r = Radio::new(Channel::CH6);
        assert_eq!(r.listening_on(SimTime::ZERO), Some(Channel::CH6));
    }

    #[test]
    fn switching_makes_radio_deaf_then_tuned() {
        let phy = PhyParams::b11();
        let mut r = Radio::new(Channel::CH1);
        let done = r.start_switch(SimTime::ZERO, Channel::CH6, &phy, 0);
        assert_eq!(done, SimTime::from_micros(4_900));
        assert_eq!(r.listening_on(SimTime::from_micros(1_000)), None);
        assert_eq!(r.listening_on(done), Some(Channel::CH6));
        assert_eq!(r.switch_count(), 1);
    }

    #[test]
    fn switch_to_same_channel_is_free() {
        let phy = PhyParams::b11();
        let mut r = Radio::new(Channel::CH6);
        let done = r.start_switch(SimTime::from_millis(3), Channel::CH6, &phy, 2);
        assert_eq!(done, SimTime::from_millis(3));
        assert_eq!(r.switch_count(), 0);
    }

    #[test]
    fn redundant_switch_request_returns_same_completion() {
        let phy = PhyParams::b11();
        let mut r = Radio::new(Channel::CH1);
        let d1 = r.start_switch(SimTime::ZERO, Channel::CH11, &phy, 0);
        let d2 = r.start_switch(SimTime::from_micros(100), Channel::CH11, &phy, 0);
        assert_eq!(d1, d2);
        assert_eq!(r.switch_count(), 1);
    }

    #[test]
    fn interfaces_slow_the_switch() {
        let phy = PhyParams::b11();
        let mut a = Radio::new(Channel::CH1);
        let mut b = Radio::new(Channel::CH1);
        let da = a.start_switch(SimTime::ZERO, Channel::CH6, &phy, 0);
        let db = b.start_switch(SimTime::ZERO, Channel::CH6, &phy, 4);
        assert!(db > da);
    }

    #[test]
    fn switch_can_be_redirected_mid_flight() {
        let phy = PhyParams::b11();
        let mut r = Radio::new(Channel::CH1);
        r.start_switch(SimTime::ZERO, Channel::CH6, &phy, 0);
        // Mid-switch, redirect to ch11: a fresh reset starts.
        let done = r.start_switch(SimTime::from_micros(1_000), Channel::CH11, &phy, 0);
        assert_eq!(done, SimTime::from_micros(1_000 + 4_900));
        assert_eq!(r.listening_on(done), Some(Channel::CH11));
        assert_eq!(r.switch_count(), 2);
    }

    #[test]
    fn may_hear_is_exact_under_every_later_switch_schedule() {
        // Seeded differential test: a radio driven by random switch
        // requests (some redundant, some redirected mid-flight, with 0–4
        // interfaces to signal) is asked at random instants whether it
        // may hear a channel at a random arrival time up to 8 ms ahead.
        // A `false` must hold against random later switch schedules in
        // [now, at]; a `true` must be met by a witness schedule (nothing,
        // or a switch away and back to the channel at `now`).
        let phy = PhyParams::b11();
        let chans = [Channel::CH1, Channel::CH6, Channel::CH11];
        let mut rng = SimRng::new(27);
        let mut radio = Radio::new(Channel::CH1);
        let mut now = SimTime::ZERO;
        let (mut deaf, mut hearing) = (0, 0);
        for _ in 0..20_000 {
            now += SimDuration::from_micros(rng.uniform_u64(0, 3_000));
            if rng.chance(0.3) {
                let to = *rng.pick(&chans);
                radio.start_switch(now, to, &phy, rng.index(5));
            }
            let ch = *rng.pick(&chans);
            let at = now + SimDuration::from_micros(rng.uniform_u64(0, 8_000));
            if radio.may_hear(now, ch, at, &phy) {
                hearing += 1;
                let mut witness = radio.clone();
                if radio.clone().listening_on(at) != Some(ch) {
                    // Redirect away and back: a fresh switch from `now`.
                    let away = *chans.iter().find(|&&c| c != ch).expect("three channels");
                    witness.start_switch(now, away, &phy, 0);
                    witness.start_switch(now, ch, &phy, 0);
                }
                assert_eq!(
                    witness.listening_on(at),
                    Some(ch),
                    "{radio:?} {now} {ch:?} {at}"
                );
                continue;
            }
            deaf += 1;
            for _ in 0..8 {
                let mut later = radio.clone();
                let mut t = now;
                for _ in 0..rng.uniform_u64(0, 4) {
                    let step = at.saturating_since(t).as_micros();
                    t += SimDuration::from_micros(rng.uniform_u64(0, step + 1));
                    let to = *rng.pick(&chans);
                    later.start_switch(t, to, &phy, rng.index(5));
                }
                assert_ne!(
                    later.listening_on(at),
                    Some(ch),
                    "{radio:?} {now} {ch:?} {at}"
                );
            }
        }
        assert!(
            deaf > 5_000 && hearing > 5_000,
            "deaf {deaf}, hearing {hearing}"
        );
    }

    #[test]
    fn may_hear_edges() {
        let phy = PhyParams::b11();
        let w = phy.switch_latency(0);
        let mut r = Radio::new(Channel::CH1);
        let t0 = SimTime::from_millis(1);
        // Tuned: hears its channel at once; another only a switch later.
        assert!(r.may_hear(t0, Channel::CH1, t0, &phy));
        assert!(!r.may_hear(t0, Channel::CH6, t0 + w - SimDuration::from_micros(1), &phy));
        assert!(r.may_hear(t0, Channel::CH6, t0 + w, &phy));
        // Mid-switch to ch6: ch6 from `until` on, any channel (ch1, where
        // it came from, included) no sooner than a fresh switch.
        let t1 = t0 + SimDuration::from_micros(1_000);
        let until = r.start_switch(t0, Channel::CH6, &phy, 0);
        assert!(until < t1 + w);
        assert!(!r.may_hear(t1, Channel::CH6, until - SimDuration::from_micros(1), &phy));
        assert!(r.may_hear(t1, Channel::CH6, until, &phy));
        assert!(!r.may_hear(t1, Channel::CH1, t1 + w - SimDuration::from_micros(1), &phy));
        assert!(r.may_hear(t1, Channel::CH1, t1 + w, &phy));
    }
}
