//! DHCP client state machine (one per virtual interface).
//!
//! Implements the paper's measured behaviours:
//!
//! * **Default timers** — "the client attempts to acquire a lease for 3
//!   seconds, and it is idle for 60 seconds if it fails" (§2.2.1):
//!   [`DhcpClientConfig::stock`].
//! * **Reduced timers** — per-message timeouts of 100–600 ms, the knob
//!   swept in Table 3 and Figs. 6/14: [`DhcpClientConfig::reduced`].
//! * **Lease caching** — when the caller supplies a cached lease for the
//!   AP, the client skips DISCOVER/OFFER and re-confirms with a REQUEST
//!   (INIT-REBOOT), halving the message count (§3.1).
//!
//! Like the link-layer machine, transmissions only happen while the
//! radio sits on the AP's channel; timers run regardless.

use crate::lease::Lease;
use spider_simcore::{SimDuration, SimTime};
use spider_wire::{DhcpMessage, DhcpOp, Ipv4Addr, MacAddr};

/// DHCP client timing configuration.
#[derive(Debug, Clone)]
pub struct DhcpClientConfig {
    /// Per-message retransmission timeout.
    pub msg_timeout: SimDuration,
    /// Transmissions per message before the attempt is abandoned.
    pub max_attempts: u32,
    /// How long to stay idle after a failed attempt before the caller
    /// should retry (the stock client's 60 s penalty box).
    pub failure_backoff: SimDuration,
}

impl DhcpClientConfig {
    /// Stock dhclient behaviour: ~3 s of attempts (1 s per message × 3),
    /// then 60 s idle.
    pub fn stock() -> DhcpClientConfig {
        DhcpClientConfig {
            msg_timeout: SimDuration::from_secs(1),
            max_attempts: 3,
            failure_backoff: SimDuration::from_secs(60),
        }
    }

    /// Reduced timers with the given per-message timeout (the x-axis of
    /// Table 3), no long penalty box. The attempt count stays fixed, so
    /// a smaller timeout also shrinks the total window the client keeps
    /// trying — which is why reduced timers trade higher failure rates
    /// for faster successes (Table 3 vs Fig. 14).
    pub fn reduced(msg_timeout: SimDuration) -> DhcpClientConfig {
        DhcpClientConfig {
            msg_timeout,
            max_attempts: 10,
            failure_backoff: SimDuration::from_secs(1),
        }
    }
}

/// DHCP client state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhcpClientState {
    /// Not acquiring.
    Idle,
    /// DISCOVER sent, waiting for an OFFER.
    Selecting,
    /// REQUEST sent, waiting for the ACK.
    Requesting,
    /// Lease held.
    Bound,
    /// Last attempt failed; idle until the backoff passes.
    Failed,
}

/// Events produced by the client.
#[derive(Debug, Clone)]
pub enum DhcpClientEvent {
    /// Transmit this DHCP message (the caller wraps it in IP + 802.11).
    Send(DhcpMessage),
    /// A lease was obtained. `took` measures from acquisition start.
    Bound {
        /// The lease.
        lease: Lease,
        /// Time from `start` to the ACK.
        took: SimDuration,
        /// Whether the fast path (cached lease re-confirmation) was used.
        via_cache: bool,
    },
    /// The acquisition attempt failed (retries exhausted or NAK).
    Failed,
    /// The server NAKed our REQUEST. Emitted *in addition to* the
    /// recovery behaviour (fallback to DISCOVER on the cached path,
    /// `Failed` otherwise) so the caller can evict the now-known-bad
    /// lease from its [`LeaseCache`](crate::lease::LeaseCache).
    Nak,
}

/// The DHCP client state machine.
#[derive(Debug, Clone)]
pub struct DhcpClient {
    /// Client hardware address used in `chaddr`.
    pub chaddr: MacAddr,
    cfg: DhcpClientConfig,
    state: DhcpClientState,
    xid: u32,
    attempt: u32,
    deadline: SimTime,
    started: SimTime,
    offer: Option<(Ipv4Addr, Ipv4Addr)>,
    via_cache: bool,
    needs_tx: bool,
    backoff_until: SimTime,
    lease: Option<Lease>,
    next_xid: u32,
}

impl DhcpClient {
    /// Create an idle client for interface `chaddr`.
    pub fn new(chaddr: MacAddr, cfg: DhcpClientConfig) -> DhcpClient {
        DhcpClient {
            chaddr,
            cfg,
            state: DhcpClientState::Idle,
            xid: 0,
            attempt: 0,
            deadline: SimTime::ZERO,
            started: SimTime::ZERO,
            offer: None,
            via_cache: false,
            needs_tx: false,
            backoff_until: SimTime::ZERO,
            lease: None,
            next_xid: 1,
        }
    }

    /// Current state.
    pub fn state(&self) -> DhcpClientState {
        self.state
    }

    /// The lease currently held, if bound.
    pub fn lease(&self) -> Option<Lease> {
        self.lease
    }

    /// Whether a new acquisition may start (not in the failure penalty
    /// box).
    pub fn can_start(&self, now: SimTime) -> bool {
        now >= self.backoff_until
            && matches!(
                self.state,
                DhcpClientState::Idle | DhcpClientState::Failed | DhcpClientState::Bound
            )
    }

    /// Begin acquiring a lease at `now`. If `cached` is supplied the
    /// client goes straight to REQUEST (INIT-REBOOT).
    pub fn start(&mut self, now: SimTime, cached: Option<Lease>) {
        self.xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1).max(1);
        self.attempt = 0;
        self.started = now;
        self.deadline = now;
        self.needs_tx = true;
        self.lease = None;
        match cached {
            Some(l) => {
                self.offer = Some((l.ip, l.server));
                self.via_cache = true;
                self.state = DhcpClientState::Requesting;
            }
            None => {
                self.offer = None;
                self.via_cache = false;
                self.state = DhcpClientState::Selecting;
            }
        }
    }

    /// Abandon any in-progress acquisition and go idle (no backoff).
    pub fn reset(&mut self) {
        self.state = DhcpClientState::Idle;
        self.needs_tx = false;
        self.lease = None;
    }

    /// Timer processing; transmissions happen only when `on_channel`.
    pub fn poll(&mut self, now: SimTime, on_channel: bool) -> Vec<DhcpClientEvent> {
        let mut out = Vec::new();
        match self.state {
            DhcpClientState::Selecting | DhcpClientState::Requesting
                if (self.needs_tx || now >= self.deadline) =>
            {
                if self.attempt >= self.cfg.max_attempts {
                    self.fail(now, &mut out);
                    return out;
                }
                if !on_channel {
                    // Cannot transmit; push the timer forward so the
                    // caller's wakeup loop makes progress. Attempts
                    // are only consumed by real transmissions.
                    self.deadline = now + self.cfg.msg_timeout;
                }
                if on_channel {
                    self.attempt += 1;
                    self.needs_tx = false;
                    self.deadline = now + self.cfg.msg_timeout;
                    let msg = match self.state {
                        DhcpClientState::Selecting => DhcpMessage::discover(self.xid, self.chaddr),
                        DhcpClientState::Requesting => {
                            let (ip, server) = self.offer.expect("requesting without an offer");
                            DhcpMessage::request(self.xid, self.chaddr, ip, server)
                        }
                        _ => unreachable!(),
                    };
                    out.push(DhcpClientEvent::Send(msg));
                }
            }
            _ => {}
        }
        out
    }

    /// The next instant `poll` needs to run.
    pub fn next_wakeup(&self) -> SimTime {
        match self.state {
            DhcpClientState::Selecting | DhcpClientState::Requesting => self.deadline,
            _ => SimTime::MAX,
        }
    }

    /// Process a received DHCP message addressed to this client.
    pub fn on_message(&mut self, now: SimTime, msg: &DhcpMessage) -> Vec<DhcpClientEvent> {
        let mut out = Vec::new();
        if msg.chaddr != self.chaddr || msg.xid != self.xid {
            return out;
        }
        match (self.state, msg.op) {
            (DhcpClientState::Selecting, DhcpOp::Offer) => {
                self.offer = Some((msg.yiaddr, msg.server_id));
                self.state = DhcpClientState::Requesting;
                self.attempt = 0;
                self.needs_tx = true;
                self.deadline = now;
            }
            (DhcpClientState::Requesting, DhcpOp::Ack) => {
                let lease = Lease {
                    ip: msg.yiaddr,
                    server: msg.server_id,
                    expires: now.saturating_add(msg.lease),
                };
                self.lease = Some(lease);
                self.state = DhcpClientState::Bound;
                out.push(DhcpClientEvent::Bound {
                    lease,
                    took: now.saturating_since(self.started),
                    via_cache: self.via_cache,
                });
            }
            (DhcpClientState::Requesting, DhcpOp::Nak) => {
                out.push(DhcpClientEvent::Nak);
                if self.via_cache {
                    // Cached lease rejected: fall back to a full exchange
                    // immediately; the Nak event above tells the caller
                    // to invalidate the cache entry.
                    self.via_cache = false;
                    self.offer = None;
                    self.state = DhcpClientState::Selecting;
                    self.attempt = 0;
                    self.needs_tx = true;
                    self.deadline = now;
                } else {
                    self.fail(now, &mut out);
                }
            }
            _ => {}
        }
        out
    }

    fn fail(&mut self, now: SimTime, out: &mut Vec<DhcpClientEvent>) {
        self.state = DhcpClientState::Failed;
        self.needs_tx = false;
        self.backoff_until = now + self.cfg.failure_backoff;
        out.push(DhcpClientEvent::Failed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CH: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);

    fn cfg100() -> DhcpClientConfig {
        DhcpClientConfig::reduced(SimDuration::from_millis(100))
    }

    fn offer(xid: u32) -> DhcpMessage {
        DhcpMessage {
            op: DhcpOp::Offer,
            xid,
            chaddr: CH,
            yiaddr: Ipv4Addr::new(10, 0, 0, 9),
            server_id: Ipv4Addr::new(10, 0, 0, 1),
            lease: SimDuration::ZERO,
        }
    }

    fn ack(xid: u32) -> DhcpMessage {
        DhcpMessage {
            op: DhcpOp::Ack,
            xid,
            chaddr: CH,
            yiaddr: Ipv4Addr::new(10, 0, 0, 9),
            server_id: Ipv4Addr::new(10, 0, 0, 1),
            lease: SimDuration::from_secs(3600),
        }
    }

    #[test]
    fn full_exchange() {
        let mut c = DhcpClient::new(CH, cfg100());
        c.start(SimTime::ZERO, None);
        let ev = c.poll(SimTime::ZERO, true);
        let xid = match &ev[..] {
            [DhcpClientEvent::Send(m)] => {
                assert_eq!(m.op, DhcpOp::Discover);
                m.xid
            }
            other => panic!("{other:?}"),
        };
        c.on_message(SimTime::from_millis(50), &offer(xid));
        let ev = c.poll(SimTime::from_millis(50), true);
        assert!(matches!(&ev[..], [DhcpClientEvent::Send(m)] if m.op == DhcpOp::Request));
        let ev = c.on_message(SimTime::from_millis(120), &ack(xid));
        match &ev[..] {
            [DhcpClientEvent::Bound {
                lease,
                took,
                via_cache,
            }] => {
                assert_eq!(lease.ip, Ipv4Addr::new(10, 0, 0, 9));
                assert_eq!(*took, SimDuration::from_millis(120));
                assert!(!via_cache);
                assert_eq!(
                    lease.expires,
                    SimTime::from_secs(3600) + SimDuration::from_millis(120)
                );
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(c.state(), DhcpClientState::Bound);
    }

    #[test]
    fn cached_lease_fast_path() {
        let mut c = DhcpClient::new(CH, cfg100());
        let cached = Lease {
            ip: Ipv4Addr::new(10, 0, 0, 9),
            server: Ipv4Addr::new(10, 0, 0, 1),
            expires: SimTime::from_secs(1000),
        };
        c.start(SimTime::ZERO, Some(cached));
        let ev = c.poll(SimTime::ZERO, true);
        // Straight to REQUEST — no discover.
        let xid = match &ev[..] {
            [DhcpClientEvent::Send(m)] => {
                assert_eq!(m.op, DhcpOp::Request);
                assert_eq!(m.yiaddr, cached.ip);
                m.xid
            }
            other => panic!("{other:?}"),
        };
        let ev = c.on_message(SimTime::from_millis(30), &ack(xid));
        assert!(matches!(
            &ev[..],
            [DhcpClientEvent::Bound {
                via_cache: true,
                ..
            }]
        ));
    }

    #[test]
    fn nak_on_cached_lease_falls_back_to_discover() {
        let mut c = DhcpClient::new(CH, cfg100());
        let cached = Lease {
            ip: Ipv4Addr::new(10, 0, 0, 9),
            server: Ipv4Addr::new(10, 0, 0, 1),
            expires: SimTime::from_secs(1000),
        };
        c.start(SimTime::ZERO, Some(cached));
        let ev = c.poll(SimTime::ZERO, true);
        let xid = match &ev[..] {
            [DhcpClientEvent::Send(m)] => m.xid,
            other => panic!("{other:?}"),
        };
        let nak = DhcpMessage {
            op: DhcpOp::Nak,
            ..ack(xid)
        };
        // The NAK is surfaced so the caller can evict the cached lease.
        let ev = c.on_message(SimTime::from_millis(20), &nak);
        assert!(matches!(&ev[..], [DhcpClientEvent::Nak]));
        assert_eq!(c.state(), DhcpClientState::Selecting);
        let ev = c.poll(SimTime::from_millis(20), true);
        assert!(matches!(&ev[..], [DhcpClientEvent::Send(m)] if m.op == DhcpOp::Discover));
    }

    #[test]
    fn retries_then_fails_with_backoff() {
        let mut c = DhcpClient::new(CH, cfg100());
        c.start(SimTime::ZERO, None);
        let mut sends = 0;
        let mut t;
        let mut failed_at = None;
        for i in 0..30 {
            t = SimTime::from_millis(i * 100);
            for ev in c.poll(t, true) {
                match ev {
                    DhcpClientEvent::Send(_) => sends += 1,
                    DhcpClientEvent::Failed => failed_at = Some(t),
                    _ => {}
                }
            }
            if failed_at.is_some() {
                break;
            }
        }
        assert_eq!(sends, 10);
        let failed_at = failed_at.expect("should fail");
        assert_eq!(c.state(), DhcpClientState::Failed);
        assert!(!c.can_start(failed_at));
        assert!(c.can_start(failed_at + SimDuration::from_secs(1)));
    }

    #[test]
    fn stock_config_has_long_penalty() {
        let mut c = DhcpClient::new(CH, DhcpClientConfig::stock());
        c.start(SimTime::ZERO, None);
        // Exhaust 3 attempts at 1s apart.
        let mut failed_at = None;
        for i in 0..10 {
            let t = SimTime::from_secs(i);
            for ev in c.poll(t, true) {
                if matches!(ev, DhcpClientEvent::Failed) {
                    failed_at = Some(t);
                }
            }
            if failed_at.is_some() {
                break;
            }
        }
        let failed_at = failed_at.unwrap();
        assert!(!c.can_start(failed_at + SimDuration::from_secs(59)));
        assert!(c.can_start(failed_at + SimDuration::from_secs(60)));
    }

    #[test]
    fn off_channel_blocks_transmission_and_slides_timer() {
        let mut c = DhcpClient::new(CH, cfg100());
        c.start(SimTime::ZERO, None);
        // Send first discover on channel.
        assert_eq!(c.poll(SimTime::ZERO, true).len(), 1);
        // Timeout passes while off channel — no send, no fail; the timer
        // slides forward so the wakeup loop makes progress.
        assert!(c.poll(SimTime::from_millis(150), false).is_empty());
        assert_eq!(c.next_wakeup(), SimTime::from_millis(250));
        // Still before the slid deadline: nothing yet.
        assert!(c.poll(SimTime::from_millis(200), true).is_empty());
        // Past it: retransmission.
        assert_eq!(c.poll(SimTime::from_millis(250), true).len(), 1);
    }

    #[test]
    fn wrong_xid_or_chaddr_ignored() {
        let mut c = DhcpClient::new(CH, cfg100());
        c.start(SimTime::ZERO, None);
        let ev = c.poll(SimTime::ZERO, true);
        let xid = match &ev[..] {
            [DhcpClientEvent::Send(m)] => m.xid,
            _ => panic!(),
        };
        let mut bad = offer(xid.wrapping_add(1));
        assert!(c.on_message(SimTime::from_millis(1), &bad).is_empty());
        assert_eq!(c.state(), DhcpClientState::Selecting);
        bad = offer(xid);
        bad.chaddr = MacAddr::from_id(99);
        assert!(c.on_message(SimTime::from_millis(1), &bad).is_empty());
        assert_eq!(c.state(), DhcpClientState::Selecting);
    }

    #[test]
    fn duplicate_ack_does_not_double_bind() {
        let mut c = DhcpClient::new(CH, cfg100());
        c.start(SimTime::ZERO, None);
        let ev = c.poll(SimTime::ZERO, true);
        let xid = match &ev[..] {
            [DhcpClientEvent::Send(m)] => m.xid,
            _ => panic!(),
        };
        c.on_message(SimTime::from_millis(10), &offer(xid));
        c.poll(SimTime::from_millis(10), true);
        let ev1 = c.on_message(SimTime::from_millis(20), &ack(xid));
        assert_eq!(ev1.len(), 1);
        let ev2 = c.on_message(SimTime::from_millis(21), &ack(xid));
        assert!(ev2.is_empty());
    }
}
