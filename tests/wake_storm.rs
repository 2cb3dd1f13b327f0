//! Wake-storm regressions: the world keeps at most one live wake per
//! timer owner (DESIGN.md §9).
//!
//! A superseded `ClientWake` used to re-arm the client's wake slot when
//! it popped, so every stale copy scheduled a fresh one and the copies
//! multiplied: by the end of the 600 s stock drive about 1,100 wakes
//! fired at every 200 ms poll instant. These tests pin the fix from the
//! outside — through the client system the world drives, and through
//! the run's event count.

use std::cell::Cell;

use spider_repro::baselines::{StockConfig, StockDriver};
use spider_repro::core::{ChannelSchedule, OperationMode, SpiderConfig, SpiderDriver};
use spider_repro::mac80211::{ClientObservation, ClientSystem, DriverAction, JoinLog, RxFrame};
use spider_repro::simcore::{SimDuration, SimTime};
use spider_repro::wire::Channel;
use spider_repro::workloads::scenarios::{town_scenario, ScenarioParams};
use spider_repro::workloads::World;

/// Wraps a client system and checks the `poll_into` contract from the
/// outside: a poll happens at least when `next_wakeup` is reached, and
/// at most once per armed wake.
///
/// The world reads `observe(now)` after every event it drives into the
/// client, and from then on owes one poll at `max(next_wakeup, now)`
/// unless it already owes an earlier one. The audit keeps the same
/// ledger. A poll at any other instant is unarmed: a superseded wake
/// firing, or a second poll at one instant after the first left the
/// client settled (`next_wakeup(now) > now`) with nothing in between.
#[derive(Clone)]
struct PollAudit<C> {
    inner: C,
    polls: u64,
    unarmed: u64,
    /// The poll the world owes the client, as the client reported it.
    owed: Cell<SimTime>,
}

impl<C> PollAudit<C> {
    fn new(inner: C) -> Self {
        PollAudit {
            inner,
            polls: 0,
            unarmed: 0,
            // The world's bootstrap wake.
            owed: Cell::new(SimTime::ZERO),
        }
    }
}

impl<C: ClientSystem + Clone + Send + 'static> ClientSystem for PollAudit<C> {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn on_frame_into(&mut self, now: SimTime, rx: &RxFrame<'_>, out: &mut Vec<DriverAction>) {
        self.inner.on_frame_into(now, rx, out)
    }
    fn on_switch_complete_into(&mut self, now: SimTime, ch: Channel, out: &mut Vec<DriverAction>) {
        self.inner.on_switch_complete_into(now, ch, out)
    }
    fn poll_into(&mut self, now: SimTime, out: &mut Vec<DriverAction>) {
        self.polls += 1;
        if now == self.owed.get() {
            self.owed.set(SimTime::MAX);
        } else {
            self.unarmed += 1;
        }
        self.inner.poll_into(now, out);
    }
    fn next_wakeup(&self, now: SimTime) -> SimTime {
        self.inner.next_wakeup(now)
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
    fn observe(&self, now: SimTime) -> ClientObservation {
        let obs = self.inner.observe(now);
        self.owed.set(self.owed.get().min(obs.next_wakeup.max(now)));
        obs
    }
    fn associated_interfaces(&self) -> usize {
        self.inner.associated_interfaces()
    }
    fn initial_channel(&self) -> Channel {
        self.inner.initial_channel()
    }
    fn can_use_channel(&self, ch: Channel) -> bool {
        self.inner.can_use_channel(ch)
    }
    fn clone_boxed(&self) -> Box<dyn ClientSystem + Send> {
        Box::new(self.clone())
    }
}

/// The Table 2 town (deployment seed 1, world seed 1), cut to 600 s.
fn table2_town() -> ScenarioParams {
    ScenarioParams {
        duration: SimDuration::from_secs(600),
        seed: 1,
        deploy_seed: Some(1),
        ..Default::default()
    }
}

fn stock() -> StockDriver {
    StockDriver::new(StockConfig::stock(1))
}

fn assert_one_poll_per_armed_wake<C: ClientSystem + Clone + Send + 'static>(
    params: &ScenarioParams,
    client: C,
) {
    let (result, audit) = World::new(town_scenario(params), PollAudit::new(client)).finish();
    assert!(audit.polls > 0, "{result}");
    assert_eq!(
        audit.unarmed, 0,
        "{} of {} polls came at an instant no live wake was armed for",
        audit.unarmed, audit.polls
    );
    // And no owed poll inside the run was skipped.
    assert!(audit.owed.get() > SimTime::ZERO + params.duration);
}

#[test]
fn stock_row_polls_once_per_armed_wake() {
    assert_one_poll_per_armed_wake(&table2_town(), stock());
}

#[test]
fn fig05_schedule_drive_polls_once_per_armed_wake() {
    // Fig. 5's f6 = 75 % schedule: 400 ms period, the rest split
    // between channels 1 and 11, joining on channel 6 only. On this
    // seed the wake storm fired 1.9 M unarmed polls in 300 s.
    let schedule = ChannelSchedule::custom(
        SimDuration::from_millis(400),
        vec![
            (Channel::CH6, 0.75),
            (Channel::CH1, 0.125),
            (Channel::CH11, 0.125),
        ],
    );
    let cfg = SpiderConfig::for_mode(
        OperationMode::MultiChannelMultiAp {
            period: schedule.period(),
        },
        1,
    )
    .with_schedule(schedule)
    .with_candidates(vec![Channel::CH6]);
    let params = ScenarioParams {
        duration: SimDuration::from_secs(300),
        seed: 1,
        ..Default::default()
    };
    assert_one_poll_per_armed_wake(&params, SpiderDriver::new(cfg));
}

#[test]
fn stock_drive_stays_under_its_event_bound() {
    // 203,807 events with one live wake; the wake storm ran 4,179,083.
    let result = World::new(town_scenario(&table2_town()), stock()).run();
    assert!(result.events <= 300_000, "{} events", result.events);
}
