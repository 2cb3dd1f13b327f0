//! Client-side association state machine (one per virtual interface).
//!
//! A Wi-Fi join at the link layer is a two-exchange handshake:
//! authentication (request/response) then association (request/response).
//! Each outgoing message has a retry timer — the paper's "link-layer
//! timeout", 1 s in stock drivers, reduced to 100 ms by Spider and
//! Cabernet (§2.2.1, footnote 1: the timeout is per message, not for the
//! whole handshake).
//!
//! The machine only transmits while the driver has the radio on the
//! target's channel (`on_channel` argument to [`InterfaceMac::poll`]);
//! timers keep running regardless, which is exactly why fractional
//! channel schedules hurt join success (§2.1).

use crate::stats::JoinLog;
use spider_simcore::{SimDuration, SimTime};
use spider_wire::{Channel, Frame, FrameBody, MacAddr, Ssid};

/// Link-layer configuration.
#[derive(Debug, Clone)]
pub struct ClientMacConfig {
    /// Per-message retry timeout (the tunable "link-layer timeout").
    pub link_timeout: SimDuration,
    /// Maximum transmissions per message before the join attempt is
    /// abandoned.
    pub max_attempts: u32,
}

impl ClientMacConfig {
    /// Stock driver timers: 1 s per message.
    pub fn stock() -> ClientMacConfig {
        ClientMacConfig {
            link_timeout: SimDuration::from_secs(1),
            max_attempts: 5,
        }
    }

    /// Reduced timers per Eriksson et al. and Spider: 100 ms.
    pub fn reduced() -> ClientMacConfig {
        ClientMacConfig {
            link_timeout: SimDuration::from_millis(100),
            max_attempts: 5,
        }
    }
}

/// The AP an interface is joining.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApTarget {
    /// AP BSSID.
    pub bssid: MacAddr,
    /// Network name.
    pub ssid: Ssid,
    /// Operating channel.
    pub channel: Channel,
}

/// Association progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssocState {
    /// No join in progress.
    Idle,
    /// Authentication request outstanding.
    Authenticating {
        /// Transmissions so far.
        attempt: u32,
        /// When the current transmission times out.
        deadline: SimTime,
    },
    /// Association request outstanding.
    Associating {
        /// Transmissions so far.
        attempt: u32,
        /// When the current transmission times out.
        deadline: SimTime,
    },
    /// Join complete.
    Associated {
        /// Association id granted by the AP.
        aid: u16,
    },
}

/// Events produced by the state machine.
#[derive(Debug, Clone)]
pub enum MacEvent {
    /// Transmit this frame (only emitted while `on_channel`).
    Send(Frame),
    /// Association completed.
    Associated {
        /// The AP joined.
        bssid: MacAddr,
        /// Time from join start to association.
        elapsed: SimDuration,
    },
    /// The join attempt was abandoned (retries exhausted).
    JoinFailed {
        /// The AP that was being joined.
        bssid: MacAddr,
    },
    /// The AP deauthenticated us (or we processed a Deauth).
    Deauthenticated {
        /// The AP that dropped us.
        bssid: MacAddr,
    },
}

/// Per-interface client MAC.
#[derive(Debug, Clone)]
pub struct InterfaceMac {
    /// This interface's MAC address.
    pub addr: MacAddr,
    cfg: ClientMacConfig,
    target: Option<ApTarget>,
    state: AssocState,
    join_started: SimTime,
    /// Pending initial transmission (set by `start_join` / auth success,
    /// consumed by `poll`).
    needs_tx: bool,
}

impl InterfaceMac {
    /// Create an idle interface.
    pub fn new(addr: MacAddr, cfg: ClientMacConfig) -> InterfaceMac {
        InterfaceMac {
            addr,
            cfg,
            target: None,
            state: AssocState::Idle,
            join_started: SimTime::ZERO,
            needs_tx: false,
        }
    }

    /// Current state.
    pub fn state(&self) -> AssocState {
        self.state
    }

    /// The AP this interface targets (or is associated with).
    pub fn target(&self) -> Option<&ApTarget> {
        self.target.as_ref()
    }

    /// Whether the interface has completed association.
    pub fn is_associated(&self) -> bool {
        matches!(self.state, AssocState::Associated { .. })
    }

    /// When the interface began its current join attempt.
    pub fn join_started(&self) -> SimTime {
        self.join_started
    }

    /// Begin joining `target` at `now`. Any previous state is discarded.
    pub fn start_join(&mut self, now: SimTime, target: ApTarget) {
        self.target = Some(target);
        self.state = AssocState::Authenticating {
            attempt: 0,
            deadline: now,
        };
        self.join_started = now;
        self.needs_tx = true;
    }

    /// Drop the association / abandon the join and go idle.
    pub fn reset(&mut self) {
        self.target = None;
        self.state = AssocState::Idle;
        self.needs_tx = false;
    }

    /// Timer processing. `on_channel` must be true iff the radio is tuned
    /// to the target's channel; transmissions only happen then. Returns
    /// any events (sends, failure).
    pub fn poll(&mut self, now: SimTime, on_channel: bool) -> Vec<MacEvent> {
        let mut out = Vec::new();
        let Some(target) = self.target.clone() else {
            return out;
        };
        match self.state {
            AssocState::Authenticating { attempt, deadline } => {
                if now >= deadline && !on_channel && attempt < self.cfg.max_attempts {
                    // Off-channel: slide the timer so wakeups progress.
                    self.state = AssocState::Authenticating {
                        attempt,
                        deadline: now + self.cfg.link_timeout,
                    };
                }
                if (self.needs_tx || now >= deadline) && on_channel {
                    if attempt >= self.cfg.max_attempts {
                        self.state = AssocState::Idle;
                        self.needs_tx = false;
                        out.push(MacEvent::JoinFailed {
                            bssid: target.bssid,
                        });
                        return out;
                    }
                    self.needs_tx = false;
                    self.state = AssocState::Authenticating {
                        attempt: attempt + 1,
                        deadline: now + self.cfg.link_timeout,
                    };
                    out.push(MacEvent::Send(Frame {
                        src: self.addr,
                        dst: target.bssid,
                        bssid: target.bssid,
                        body: FrameBody::AuthRequest,
                    }));
                } else if now >= deadline && attempt >= self.cfg.max_attempts {
                    // Timed out while off-channel with no attempts left.
                    self.state = AssocState::Idle;
                    out.push(MacEvent::JoinFailed {
                        bssid: target.bssid,
                    });
                }
            }
            AssocState::Associating { attempt, deadline } => {
                if now >= deadline && !on_channel && attempt < self.cfg.max_attempts {
                    self.state = AssocState::Associating {
                        attempt,
                        deadline: now + self.cfg.link_timeout,
                    };
                }
                if (self.needs_tx || now >= deadline) && on_channel {
                    if attempt >= self.cfg.max_attempts {
                        self.state = AssocState::Idle;
                        self.needs_tx = false;
                        out.push(MacEvent::JoinFailed {
                            bssid: target.bssid,
                        });
                        return out;
                    }
                    self.needs_tx = false;
                    self.state = AssocState::Associating {
                        attempt: attempt + 1,
                        deadline: now + self.cfg.link_timeout,
                    };
                    out.push(MacEvent::Send(Frame {
                        src: self.addr,
                        dst: target.bssid,
                        bssid: target.bssid,
                        body: FrameBody::AssocRequest {
                            ssid: target.ssid.clone(),
                        },
                    }));
                } else if now >= deadline && attempt >= self.cfg.max_attempts {
                    self.state = AssocState::Idle;
                    out.push(MacEvent::JoinFailed {
                        bssid: target.bssid,
                    });
                }
            }
            AssocState::Idle | AssocState::Associated { .. } => {}
        }
        out
    }

    /// The next instant `poll` needs to run, or [`SimTime::MAX`].
    pub fn next_wakeup(&self) -> SimTime {
        match self.state {
            AssocState::Authenticating { deadline, .. }
            | AssocState::Associating { deadline, .. } => deadline,
            _ => SimTime::MAX,
        }
    }

    /// Process a frame addressed to (or relevant to) this interface.
    pub fn on_frame(&mut self, now: SimTime, frame: &Frame, log: &mut JoinLog) -> Vec<MacEvent> {
        let mut out = Vec::new();
        let Some(target) = self.target.clone() else {
            return out;
        };
        if frame.src != target.bssid {
            return out;
        }
        match (&self.state, &frame.body) {
            (AssocState::Authenticating { .. }, FrameBody::AuthResponse { ok }) => {
                if *ok {
                    self.state = AssocState::Associating {
                        attempt: 0,
                        deadline: now,
                    };
                    self.needs_tx = true;
                    // Immediately emit the association request if we can:
                    // the caller will poll us again; nothing sent here.
                } else {
                    self.state = AssocState::Idle;
                    log.assoc_failures += 1;
                    out.push(MacEvent::JoinFailed {
                        bssid: target.bssid,
                    });
                }
            }
            (AssocState::Associating { .. }, FrameBody::AssocResponse { ok, aid }) => {
                if *ok {
                    self.state = AssocState::Associated { aid: *aid };
                    let elapsed = now.saturating_since(self.join_started);
                    log.record_assoc(now, elapsed);
                    out.push(MacEvent::Associated {
                        bssid: target.bssid,
                        elapsed,
                    });
                } else {
                    self.state = AssocState::Idle;
                    log.assoc_failures += 1;
                    out.push(MacEvent::JoinFailed {
                        bssid: target.bssid,
                    });
                }
            }
            (_, FrameBody::Deauth { .. }) if !matches!(self.state, AssocState::Idle) => {
                self.state = AssocState::Idle;
                out.push(MacEvent::Deauthenticated {
                    bssid: target.bssid,
                });
            }
            _ => {}
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target() -> ApTarget {
        ApTarget {
            bssid: MacAddr::from_id(100),
            ssid: "ap".into(),
            channel: Channel::CH6,
        }
    }

    fn auth_ok() -> Frame {
        Frame {
            src: MacAddr::from_id(100),
            dst: MacAddr::from_id(1),
            bssid: MacAddr::from_id(100),
            body: FrameBody::AuthResponse { ok: true },
        }
    }

    fn assoc_ok() -> Frame {
        Frame {
            src: MacAddr::from_id(100),
            dst: MacAddr::from_id(1),
            bssid: MacAddr::from_id(100),
            body: FrameBody::AssocResponse { ok: true, aid: 7 },
        }
    }

    fn new_iface() -> (InterfaceMac, JoinLog) {
        (
            InterfaceMac::new(MacAddr::from_id(1), ClientMacConfig::reduced()),
            JoinLog::new(),
        )
    }

    #[test]
    fn happy_path_join() {
        let (mut mac, mut log) = new_iface();
        let t0 = SimTime::from_millis(10);
        mac.start_join(t0, target());
        // First poll on-channel emits an auth request.
        let ev = mac.poll(t0, true);
        assert!(matches!(&ev[..], [MacEvent::Send(f)] if matches!(f.body, FrameBody::AuthRequest)));
        // Auth response moves to associating; next poll emits assoc req.
        let t1 = SimTime::from_millis(30);
        assert!(mac.on_frame(t1, &auth_ok(), &mut log).is_empty());
        let ev = mac.poll(t1, true);
        assert!(
            matches!(&ev[..], [MacEvent::Send(f)] if matches!(f.body, FrameBody::AssocRequest{..}))
        );
        // Assoc response completes the join.
        let t2 = SimTime::from_millis(50);
        let ev = mac.on_frame(t2, &assoc_ok(), &mut log);
        assert!(matches!(
            &ev[..],
            [MacEvent::Associated { elapsed, .. }] if *elapsed == SimDuration::from_millis(40)
        ));
        assert!(mac.is_associated());
        assert_eq!(log.assoc.len(), 1);
    }

    #[test]
    fn retries_until_timeout_then_fails() {
        let (mut mac, _log) = new_iface();
        let t0 = SimTime::ZERO;
        mac.start_join(t0, target());
        let mut sends = 0;
        let mut t = t0;
        let mut failed = false;
        for _ in 0..20 {
            for ev in mac.poll(t, true) {
                match ev {
                    MacEvent::Send(_) => sends += 1,
                    MacEvent::JoinFailed { .. } => failed = true,
                    _ => {}
                }
            }
            if failed {
                break;
            }
            t += SimDuration::from_millis(100);
        }
        assert_eq!(sends, 5, "max_attempts transmissions");
        assert!(failed);
        assert_eq!(mac.state(), AssocState::Idle);
    }

    #[test]
    fn no_transmission_while_off_channel() {
        let (mut mac, _log) = new_iface();
        mac.start_join(SimTime::ZERO, target());
        // Off channel: nothing is sent, no attempts consumed.
        for i in 0..10 {
            let ev = mac.poll(SimTime::from_millis(i * 100), false);
            assert!(ev.is_empty());
        }
        // Back on channel: first transmission happens.
        let ev = mac.poll(SimTime::from_secs(2), true);
        assert!(matches!(&ev[..], [MacEvent::Send(_)]));
    }

    #[test]
    fn response_from_wrong_ap_is_ignored() {
        let (mut mac, mut log) = new_iface();
        mac.start_join(SimTime::ZERO, target());
        mac.poll(SimTime::ZERO, true);
        let mut wrong = auth_ok();
        wrong.src = MacAddr::from_id(999);
        assert!(mac
            .on_frame(SimTime::from_millis(1), &wrong, &mut log)
            .is_empty());
        assert!(matches!(mac.state(), AssocState::Authenticating { .. }));
    }

    #[test]
    fn auth_rejection_fails_join() {
        let (mut mac, mut log) = new_iface();
        mac.start_join(SimTime::ZERO, target());
        mac.poll(SimTime::ZERO, true);
        let rej = Frame {
            body: FrameBody::AuthResponse { ok: false },
            ..auth_ok()
        };
        let ev = mac.on_frame(SimTime::from_millis(1), &rej, &mut log);
        assert!(matches!(&ev[..], [MacEvent::JoinFailed { .. }]));
        assert_eq!(log.assoc_failures, 1);
    }

    #[test]
    fn deauth_drops_association() {
        let (mut mac, mut log) = new_iface();
        mac.start_join(SimTime::ZERO, target());
        mac.poll(SimTime::ZERO, true);
        mac.on_frame(SimTime::from_millis(1), &auth_ok(), &mut log);
        mac.poll(SimTime::from_millis(1), true);
        mac.on_frame(SimTime::from_millis(2), &assoc_ok(), &mut log);
        assert!(mac.is_associated());
        let deauth = Frame {
            body: FrameBody::Deauth { reason: 1 },
            ..auth_ok()
        };
        let ev = mac.on_frame(SimTime::from_millis(3), &deauth, &mut log);
        assert!(matches!(&ev[..], [MacEvent::Deauthenticated { .. }]));
        assert_eq!(mac.state(), AssocState::Idle);
    }

    #[test]
    fn wakeup_reflects_deadline() {
        let (mut mac, _log) = new_iface();
        assert_eq!(mac.next_wakeup(), SimTime::MAX);
        mac.start_join(SimTime::ZERO, target());
        mac.poll(SimTime::ZERO, true);
        assert_eq!(mac.next_wakeup(), SimTime::from_millis(100));
    }

    #[test]
    fn stale_auth_response_after_idle_is_ignored() {
        let (mut mac, mut log) = new_iface();
        mac.start_join(SimTime::ZERO, target());
        mac.reset();
        assert!(mac
            .on_frame(SimTime::from_millis(5), &auth_ok(), &mut log)
            .is_empty());
    }
}
