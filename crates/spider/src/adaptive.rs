//! Adaptive channel scheduling — the paper's §4.8 extension.
//!
//! "An augmented design would encompass both mobile and nomadic scenarios
//! by alternating between staying on one channel at high speeds and
//! managing multiple channels when moving slowly." The analytical model
//! puts the dividing speed below 10 m/s for typical parameters (§2.1.3,
//! Fig. 4).
//!
//! [`AdaptiveSpider`] wraps a [`SpiderDriver`] and periodically reviews a
//! speed hint (GPS in a real deployment; supplied by the scenario here)
//! plus the scanner's per-channel AP census, re-targeting the schedule:
//!
//! * fast ⇒ single channel, picked as the one with the most usable APs
//!   (falling back to the busiest historical channel),
//! * slow ⇒ equal multi-channel rotation over the channels that actually
//!   have APs.

use crate::driver::SpiderDriver;
use crate::schedule::ChannelSchedule;
use spider_mac80211::{ClientSystem, DriverAction, JoinLog, RxFrame};
use spider_simcore::{SimDuration, SimTime};
use spider_wire::Channel;

/// Speed above which only one channel is scheduled (the model's
/// dividing speed, ~10 m/s).
const DIVIDING_SPEED_MPS: f64 = 10.0;
/// Scheduling period used when rotating multiple channels.
const MULTI_PERIOD: SimDuration = SimDuration::from_millis(600);
/// How often the schedule decision is reviewed.
const REVIEW_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// Choose a schedule given the current speed and per-channel AP census.
fn choose(speed_mps: f64, census: &spider_simcore::FxHashMap<Channel, usize>) -> ChannelSchedule {
    let mut channels: Vec<(Channel, usize)> = Channel::ORTHOGONAL
        .iter()
        .map(|&c| (c, census.get(&c).copied().unwrap_or(0)))
        .collect();
    channels.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.number().cmp(&b.0.number())));
    if speed_mps >= DIVIDING_SPEED_MPS {
        ChannelSchedule::single(channels[0].0)
    } else {
        let populated: Vec<Channel> = channels
            .iter()
            .filter(|&&(_, n)| n > 0)
            .map(|&(c, _)| c)
            .collect();
        if populated.len() >= 2 {
            ChannelSchedule::equal(&populated, MULTI_PERIOD)
        } else {
            // A single radio only hears the channel it sits on, so a
            // thin census is not evidence of an empty band — explore
            // all orthogonal channels while moving slowly.
            ChannelSchedule::equal(&Channel::ORTHOGONAL, MULTI_PERIOD)
        }
    }
}

/// A Spider driver that re-schedules itself based on observed conditions.
// Clone backs `ClientSystem::clone_boxed` (DESIGN.md §13).
#[derive(Clone)]
pub struct AdaptiveSpider {
    inner: SpiderDriver,
    speed_hint_mps: f64,
    next_review: SimTime,
    /// Schedule replacements performed.
    pub mode_changes: u64,
}

impl AdaptiveSpider {
    /// Wrap a driver.
    pub fn new(inner: SpiderDriver) -> AdaptiveSpider {
        AdaptiveSpider {
            inner,
            speed_hint_mps: 0.0,
            next_review: SimTime::ZERO,
            mode_changes: 0,
        }
    }

    /// Update the externally supplied speed estimate (GPS).
    pub fn set_speed_hint(&mut self, mps: f64) {
        self.speed_hint_mps = mps;
    }

    /// Access the wrapped driver.
    pub fn inner(&self) -> &SpiderDriver {
        &self.inner
    }

    fn review(&mut self, now: SimTime) {
        if now < self.next_review {
            return;
        }
        self.next_review = now + REVIEW_INTERVAL;
        let census = self.inner.utility_table().channel_census(now);
        let desired = choose(self.speed_hint_mps, &census);
        let current = self.inner.schedule();
        let same = current.slots().len() == desired.slots().len()
            && current
                .slots()
                .iter()
                .zip(desired.slots())
                .all(|(a, b)| a.0 == b.0 && (a.1 - b.1).abs() < 1e-9);
        if !same {
            self.inner.set_schedule(desired);
            self.mode_changes += 1;
        }
    }
}

impl ClientSystem for AdaptiveSpider {
    fn label(&self) -> String {
        format!("Adaptive[{}]", self.inner.label())
    }

    fn on_frame_into(&mut self, now: SimTime, rx: &RxFrame<'_>, out: &mut Vec<DriverAction>) {
        self.inner.on_frame_into(now, rx, out);
    }

    fn on_switch_complete_into(&mut self, now: SimTime, ch: Channel, out: &mut Vec<DriverAction>) {
        self.inner.on_switch_complete_into(now, ch, out);
    }

    fn poll_into(&mut self, now: SimTime, out: &mut Vec<DriverAction>) {
        self.review(now);
        self.inner.poll_into(now, out);
    }

    fn next_wakeup(&self, now: SimTime) -> SimTime {
        self.inner.next_wakeup(now).min(self.next_review).max(now)
    }

    fn join_log(&self) -> &JoinLog {
        self.inner.join_log()
    }

    fn is_connected(&self) -> bool {
        self.inner.is_connected()
    }

    fn delivered_bytes(&self) -> u64 {
        self.inner.delivered_bytes()
    }

    fn associated_interfaces(&self) -> usize {
        self.inner.associated_interfaces()
    }

    fn initial_channel(&self) -> Channel {
        self.inner.initial_channel()
    }

    fn clone_boxed(&self) -> Box<dyn ClientSystem + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OperationMode, SpiderConfig};
    use spider_simcore::FxHashMap;

    #[test]
    fn fast_speed_picks_single_busiest_channel() {
        let mut census = FxHashMap::default();
        census.insert(Channel::CH6, 5);
        census.insert(Channel::CH1, 2);
        let s = choose(15.0, &census);
        assert!(s.is_single_channel());
        assert_eq!(s.channels(), vec![Channel::CH6]);
    }

    #[test]
    fn slow_speed_rotates_populated_channels() {
        let mut census = FxHashMap::default();
        census.insert(Channel::CH6, 3);
        census.insert(Channel::CH11, 1);
        let s = choose(3.0, &census);
        assert_eq!(s.channels().len(), 2);
        assert!(s.channels().contains(&Channel::CH6));
        assert!(s.channels().contains(&Channel::CH11));
    }

    #[test]
    fn slow_with_thin_census_explores_all_channels() {
        // A single radio cannot hear channels it never visits; a slow
        // node with a one-channel census must explore.
        let mut census = FxHashMap::default();
        census.insert(Channel::CH1, 4);
        let s = choose(3.0, &census);
        assert_eq!(s.channels().len(), 3);
    }

    #[test]
    fn empty_census_explores_when_slow_but_not_fast() {
        let slow = choose(3.0, &FxHashMap::default());
        assert_eq!(slow.channels().len(), 3);
        let fast = choose(15.0, &FxHashMap::default());
        assert!(fast.is_single_channel());
    }

    #[test]
    fn review_changes_schedule_on_speed_change() {
        let inner = SpiderDriver::new(SpiderConfig::for_mode(
            OperationMode::SingleChannelMultiAp(Channel::CH1),
            1,
        ));
        let mut ad = AdaptiveSpider::new(inner);
        ad.set_speed_hint(15.0);
        ad.poll(SimTime::ZERO);
        assert!(ad.inner().schedule().is_single_channel());
        // Slowing down triggers exploration of all orthogonal channels at
        // the next review.
        ad.set_speed_hint(2.0);
        ad.poll(SimTime::from_secs(6));
        assert!(!ad.inner().schedule().is_single_channel());
        assert!(ad.mode_changes >= 1);
        // Speeding back up re-locks a single channel.
        ad.set_speed_hint(20.0);
        ad.poll(SimTime::from_secs(12));
        assert!(ad.inner().schedule().is_single_channel());
    }
}
