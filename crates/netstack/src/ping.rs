//! End-to-end liveness probing.
//!
//! Spider continuously verifies that a joined connection actually reaches
//! the Internet: it pings end-to-end (or the gateway when ICMP is
//! filtered) at 10 pings/second and declares the connection dropped
//! after 30 consecutive losses (§3.2.2). The first successful reply is
//! also what completes a "join" in the paper's accounting — a join is
//! association + DHCP + *verified connectivity* (§3.1).

use spider_simcore::{SimDuration, SimTime};
use spider_wire::IcmpMessage;
use std::collections::VecDeque;

/// Liveness-probe configuration.
#[derive(Debug, Clone)]
pub struct PingConfig {
    /// Interval between probes (100 ms → 10/s).
    pub interval: SimDuration,
    /// Consecutive losses after which the link is declared dead.
    pub fail_threshold: u32,
    /// ICMP identifier for this probe stream (one per interface).
    pub id: u16,
    /// How long after transmission an unanswered probe counts as lost.
    /// The paper counts a probe failed when the next one is due, so the
    /// paper configuration sets this to `interval`; replies that arrive
    /// after the deadline still reset the failure counter (see
    /// [`PingEngine::on_reply`]), so a slow-but-alive path is not
    /// declared dead.
    pub reply_deadline: SimDuration,
    /// After this many probes in a session with *no* replies at all,
    /// the caller should redirect probes at the gateway — the §3.2.2
    /// fallback for APs whose upstream filters end-to-end ICMP.
    /// Exposed via [`PingEngine::should_fall_back`]; `None` disables.
    pub gateway_fallback_after: Option<u32>,
}

impl PingConfig {
    /// The paper's parameters: 10 pings/second, 30 consecutive
    /// failures, a probe counted lost when its successor is due, and
    /// the gateway fallback armed after 10 unanswered probes.
    pub fn paper(id: u16) -> PingConfig {
        PingConfig {
            interval: SimDuration::from_millis(100),
            fail_threshold: 30,
            id,
            reply_deadline: SimDuration::from_millis(100),
            gateway_fallback_after: Some(10),
        }
    }
}

/// Events produced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PingEvent {
    /// Transmit this echo request.
    Send(IcmpMessage),
    /// First reply (or first after a Down): connectivity verified.
    Up,
    /// `fail_threshold` consecutive probes lost: connection dead.
    Down,
}

/// The liveness engine for one interface.
#[derive(Debug, Clone)]
pub struct PingEngine {
    cfg: PingConfig,
    running: bool,
    next_send: SimTime,
    next_seq: u16,
    /// Outstanding (seq, deadline) pairs, oldest first.
    outstanding: VecDeque<(u16, SimTime)>,
    consecutive_failures: u32,
    alive: bool,
    /// First sequence number of the current session (set by `start`);
    /// replies older than this are from a previous binding and ignored.
    session_start_seq: u16,
    /// Probes expired unanswered this session.
    session_expired: u32,
    /// Replies received this session (late ones included).
    session_received: u64,
    /// Total probes sent (observability).
    pub sent: u64,
    /// Total replies received.
    pub received: u64,
}

impl PingEngine {
    /// Create a stopped engine.
    pub fn new(cfg: PingConfig) -> PingEngine {
        PingEngine {
            cfg,
            running: false,
            next_send: SimTime::ZERO,
            next_seq: 0,
            outstanding: VecDeque::new(),
            consecutive_failures: 0,
            alive: false,
            session_start_seq: 0,
            session_expired: 0,
            session_received: 0,
            sent: 0,
            received: 0,
        }
    }

    /// Start probing at `now` (e.g. right after a DHCP bind).
    pub fn start(&mut self, now: SimTime) {
        self.running = true;
        self.next_send = now;
        self.outstanding.clear();
        self.consecutive_failures = 0;
        self.alive = false;
        self.session_start_seq = self.next_seq;
        self.session_expired = 0;
        self.session_received = 0;
    }

    /// Stop probing (interface torn down).
    pub fn stop(&mut self) {
        self.running = false;
        self.outstanding.clear();
        self.alive = false;
    }

    /// Whether the engine currently believes the link is alive.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Timer processing. Probes are sent only while `on_channel`; loss
    /// deadlines expire regardless (a probe that got no answer is a
    /// failure no matter where the radio is).
    pub fn poll(&mut self, now: SimTime, on_channel: bool) -> Vec<PingEvent> {
        let mut out = Vec::new();
        if !self.running {
            return out;
        }
        // Expire outstanding probes at `sent + reply_deadline`. The
        // paper counts a probe failed when the next one is due; a reply
        // that shows up after its probe expired is handled in
        // `on_reply` and still resets the failure counter.
        while let Some(&(_, deadline)) = self.outstanding.front() {
            if now >= deadline {
                self.outstanding.pop_front();
                self.consecutive_failures += 1;
                self.session_expired += 1;
                if self.consecutive_failures == self.cfg.fail_threshold {
                    if self.alive {
                        self.alive = false;
                        out.push(PingEvent::Down);
                    } else {
                        // Never came up: still report Down once so the
                        // caller can abandon the join.
                        out.push(PingEvent::Down);
                    }
                }
            } else {
                break;
            }
        }
        // While off-channel the probe cannot be sent; skip it forward
        // (the radio being elsewhere is not a liveness failure in
        // itself — unanswered probes already in flight count above).
        if now >= self.next_send && !on_channel {
            self.next_send = now + self.cfg.interval;
        }
        // Send the next probe when due.
        if now >= self.next_send && on_channel {
            let seq = self.next_seq;
            self.next_seq = self.next_seq.wrapping_add(1);
            self.outstanding
                .push_back((seq, now + self.cfg.reply_deadline));
            self.sent += 1;
            self.next_send = now + self.cfg.interval;
            out.push(PingEvent::Send(IcmpMessage::EchoRequest {
                id: self.cfg.id,
                seq,
            }));
        }
        out
    }

    /// Next instant `poll` must run.
    pub fn next_wakeup(&self) -> SimTime {
        if !self.running {
            return SimTime::MAX;
        }
        let dl = self
            .outstanding
            .front()
            .map(|&(_, d)| d)
            .unwrap_or(SimTime::MAX);
        self.next_send.min(dl)
    }

    /// Process a received echo reply. Returns `Up` on a transition to
    /// alive.
    pub fn on_reply(&mut self, _now: SimTime, msg: &IcmpMessage) -> Vec<PingEvent> {
        let IcmpMessage::EchoReply { id, seq } = msg else {
            return Vec::new();
        };
        if *id != self.cfg.id || !self.running {
            return Vec::new();
        }
        // Any reply for a still-outstanding probe counts; later probes
        // whose replies raced are left to expire harmlessly (failures
        // reset below anyway).
        if let Some(pos) = self.outstanding.iter().position(|&(s, _)| s == *seq) {
            // Everything older than the answered probe is moot.
            self.outstanding.drain(..=pos);
        } else {
            // Not outstanding: either already expired (a slow path, e.g.
            // a bloated backhaul queue) or from before this session.
            // Late replies from *this* session still prove the path
            // forwards, so they reset the failure counter; stale ones
            // from a previous binding are ignored.
            let age = seq.wrapping_sub(self.session_start_seq);
            let sent_this_session = self.next_seq.wrapping_sub(self.session_start_seq);
            if age >= sent_this_session {
                return Vec::new();
            }
        }
        self.received += 1;
        self.session_received += 1;
        self.consecutive_failures = 0;
        if !self.alive {
            self.alive = true;
            vec![PingEvent::Up]
        } else {
            Vec::new()
        }
    }

    /// Whether the caller should redirect probes at the gateway: the
    /// session has produced `gateway_fallback_after` expired probes and
    /// not a single reply — end-to-end ICMP is likely filtered
    /// upstream of this AP (§3.2.2).
    pub fn should_fall_back(&self) -> bool {
        match self.cfg.gateway_fallback_after {
            Some(n) => self.running && self.session_received == 0 && self.session_expired >= n,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A relaxed engine: 3-interval reply deadline, no fallback. The
    /// older tests below were written against this grace window.
    fn engine() -> PingEngine {
        let mut e = PingEngine::new(PingConfig {
            interval: SimDuration::from_millis(100),
            fail_threshold: 3,
            id: 9,
            reply_deadline: SimDuration::from_millis(300),
            gateway_fallback_after: None,
        });
        e.start(SimTime::ZERO);
        e
    }

    /// Paper-style timing (deadline = interval) with a small threshold.
    fn strict_engine(fail_threshold: u32) -> PingEngine {
        let mut e = PingEngine::new(PingConfig {
            interval: SimDuration::from_millis(100),
            fail_threshold,
            id: 9,
            reply_deadline: SimDuration::from_millis(100),
            gateway_fallback_after: None,
        });
        e.start(SimTime::ZERO);
        e
    }

    fn reply(seq: u16) -> IcmpMessage {
        IcmpMessage::EchoReply { id: 9, seq }
    }

    #[test]
    fn first_reply_reports_up() {
        let mut e = engine();
        let ev = e.poll(SimTime::ZERO, true);
        assert!(matches!(
            &ev[..],
            [PingEvent::Send(IcmpMessage::EchoRequest { seq: 0, .. })]
        ));
        let ev = e.on_reply(SimTime::from_millis(20), &reply(0));
        assert_eq!(ev, vec![PingEvent::Up]);
        assert!(e.is_alive());
        // A second reply does not re-announce.
        e.poll(SimTime::from_millis(100), true);
        let ev = e.on_reply(SimTime::from_millis(120), &reply(1));
        assert!(ev.is_empty());
    }

    #[test]
    fn consecutive_failures_report_down() {
        let mut e = engine();
        // Answer the first probe so we are Up.
        e.poll(SimTime::ZERO, true);
        e.on_reply(SimTime::from_millis(10), &reply(0));
        // Let the next probes go unanswered. Deadline is send + 3*interval.
        let mut down = false;
        for i in 1..20 {
            let t = SimTime::from_millis(i * 100);
            for ev in e.poll(t, true) {
                if ev == PingEvent::Down {
                    down = true;
                }
            }
            if down {
                break;
            }
        }
        assert!(down);
        assert!(!e.is_alive());
    }

    #[test]
    fn reply_resets_failure_count() {
        let mut e = engine();
        e.poll(SimTime::ZERO, true); // seq 0
        e.on_reply(SimTime::from_millis(10), &reply(0));
        e.poll(SimTime::from_millis(100), true); // seq 1
        e.poll(SimTime::from_millis(200), true); // seq 2
        e.poll(SimTime::from_millis(300), true); // seq 3
                                                 // seq1 expires at 400 (1 failure) ... then seq 3 answered at 450.
        let ev = e.poll(SimTime::from_millis(400), true); // seq 4 sent, seq1 expired
        assert!(!ev.contains(&PingEvent::Down));
        e.on_reply(SimTime::from_millis(450), &reply(3));
        // failures reset; takes 3 fresh expiries to go down again.
        assert!(e.is_alive());
    }

    #[test]
    fn probes_only_sent_on_channel() {
        let mut e = engine();
        // Off-channel: the due probe is skipped forward, not sent.
        assert!(e.poll(SimTime::ZERO, false).is_empty());
        assert_eq!(e.sent, 0);
        assert_eq!(e.next_wakeup(), SimTime::from_millis(100));
        // Back on channel after the skip: probe goes out.
        let ev = e.poll(SimTime::from_millis(100), true);
        assert_eq!(ev.len(), 1);
        assert_eq!(e.sent, 1);
    }

    #[test]
    fn stop_silences_engine() {
        let mut e = engine();
        e.poll(SimTime::ZERO, true);
        e.stop();
        assert!(e.poll(SimTime::from_millis(100), true).is_empty());
        assert_eq!(e.next_wakeup(), SimTime::MAX);
        assert!(e.on_reply(SimTime::from_millis(110), &reply(0)).is_empty());
    }

    #[test]
    fn foreign_id_is_ignored() {
        let mut e = engine();
        e.poll(SimTime::ZERO, true);
        let foreign = IcmpMessage::EchoReply { id: 1, seq: 0 };
        assert!(e.on_reply(SimTime::from_millis(1), &foreign).is_empty());
        assert!(!e.is_alive());
    }

    #[test]
    fn never_up_still_reports_down_once() {
        let mut e = engine();
        let mut downs = 0;
        for i in 0..40 {
            for ev in e.poll(SimTime::from_millis(i * 100), true) {
                if ev == PingEvent::Down {
                    downs += 1;
                }
            }
        }
        assert_eq!(downs, 1);
    }

    #[test]
    fn wakeup_tracks_send_and_deadlines() {
        let mut e = engine();
        assert_eq!(e.next_wakeup(), SimTime::ZERO);
        e.poll(SimTime::ZERO, true);
        // Next send at 100ms; outstanding deadline at 300ms.
        assert_eq!(e.next_wakeup(), SimTime::from_millis(100));
    }

    #[test]
    fn down_fires_exactly_at_fail_threshold() {
        // Boundary check: with threshold 3 and deadline = interval, the
        // Down must fire at the tick where the 3rd probe expires — not
        // one earlier, not one later. Probe i goes out at i*100ms and
        // expires at (i+1)*100ms.
        let mut e = strict_engine(3);
        let mut down_at = None;
        for i in 0..10u64 {
            let t = SimTime::from_millis(i * 100);
            for ev in e.poll(t, true) {
                if ev == PingEvent::Down && down_at.is_none() {
                    down_at = Some(t);
                }
            }
        }
        // Expiries land at 100/200/300ms; the 3rd is the threshold.
        assert_eq!(down_at, Some(SimTime::from_millis(300)));
    }

    #[test]
    fn reordered_reply_across_expiry_deadline_resets_counter() {
        // seq 0 expires before its reply lands while seq 1's reply
        // arrives in-order: the late seq-0 reply (already expired) must
        // still be accepted as proof of life, not dropped as unknown.
        let mut e = strict_engine(3);
        e.poll(SimTime::ZERO, true); // seq 0, deadline 100ms
        let ev = e.poll(SimTime::from_millis(100), true); // seq 0 expires, seq 1 out
        assert!(!ev.contains(&PingEvent::Down));
        // The reply to the expired probe arrives late, out of order.
        let ev = e.on_reply(SimTime::from_millis(150), &reply(0));
        assert_eq!(ev, vec![PingEvent::Up]);
        assert!(e.is_alive());
        // And the in-flight probe answers normally afterwards.
        assert!(e.on_reply(SimTime::from_millis(160), &reply(1)).is_empty());
    }

    #[test]
    fn late_success_after_down_resets_counter_and_revives() {
        let mut e = strict_engine(3);
        // Probes 0..=2 expire unanswered: Down at 300ms.
        let mut down = false;
        for i in 0..4u64 {
            for ev in e.poll(SimTime::from_millis(i * 100), true) {
                if ev == PingEvent::Down {
                    down = true;
                }
            }
        }
        assert!(down);
        // A straggler reply for probe 2 finally crawls back: failure
        // counter resets and the engine reports Up again.
        let ev = e.on_reply(SimTime::from_millis(350), &reply(2));
        assert_eq!(ev, vec![PingEvent::Up]);
        assert!(e.is_alive());
        // Fresh failures must again accumulate from zero: the next Down
        // needs 3 new expiries (probes 3..=5 expire at 400/500/600ms).
        let mut second_down_at = None;
        for i in 4..10u64 {
            let t = SimTime::from_millis(i * 100);
            for ev in e.poll(t, true) {
                if ev == PingEvent::Down && second_down_at.is_none() {
                    second_down_at = Some(t);
                }
            }
        }
        assert_eq!(second_down_at, Some(SimTime::from_millis(600)));
    }

    #[test]
    fn stale_reply_from_previous_session_is_ignored() {
        let mut e = strict_engine(3);
        e.poll(SimTime::ZERO, true); // seq 0 of session 1
        e.stop();
        e.start(SimTime::from_secs(1)); // session 2 starts at seq 1
                                        // Session-1 reply must not count for session 2.
        assert!(e.on_reply(SimTime::from_secs(1), &reply(0)).is_empty());
        assert!(!e.is_alive());
        assert_eq!(e.received, 0);
    }

    #[test]
    fn gateway_fallback_arms_after_silent_probes() {
        let mut e = PingEngine::new(PingConfig {
            interval: SimDuration::from_millis(100),
            fail_threshold: 30,
            id: 9,
            reply_deadline: SimDuration::from_millis(100),
            gateway_fallback_after: Some(5),
        });
        e.start(SimTime::ZERO);
        for i in 0..5u64 {
            e.poll(SimTime::from_millis(i * 100), true);
            assert!(!e.should_fall_back());
        }
        // The 5th expiry happens at 500ms: now fall back.
        e.poll(SimTime::from_millis(500), true);
        assert!(e.should_fall_back());
        // A reply (to the still-outstanding probe) disarms it for good.
        e.on_reply(SimTime::from_millis(510), &reply(5));
        assert!(!e.should_fall_back());
    }
}
