//! Access-point MAC.
//!
//! Handles beaconing, probe/auth/association responses, and per-client
//! power-save (PSM) buffering — the mechanism every virtual-Wi-Fi system
//! relies on: a client claiming to sleep makes the AP queue its downlink
//! frames, freeing the client to serve other APs (§2).
//!
//! One deliberate fidelity choice, documented in DESIGN.md: frames whose
//! upper-layer payload is a *join message* (DHCP) are **not** buffered
//! for sleeping clients. The paper's measurements show DHCP gains nothing
//! from PSM — offers are time-sensitive and the exchange simply fails if
//! the client is away (§1: "the packets associated with the join process
//! cannot be buffered by the PSM request"). Callers mark such frames
//! `bufferable = false` in [`ApMac::enqueue_downlink`].

use spider_simcore::{FxHashMap, SimDuration, SimTime};
use spider_wire::{AirFrame, Channel, Frame, FrameBody, Ipv4Packet, MacAddr, SharedFrame, Ssid};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;

/// AP configuration.
#[derive(Debug, Clone)]
pub struct ApConfig {
    /// The AP's BSSID.
    pub bssid: MacAddr,
    /// Network name.
    pub ssid: Ssid,
    /// Operating channel.
    pub channel: Channel,
    /// Beacon period (102.4 ms on real hardware).
    pub beacon_interval: SimDuration,
    /// Maximum frames buffered per sleeping client.
    pub psm_buffer_cap: usize,
    /// Buffered frames older than this are discarded at flush time.
    pub psm_max_age: SimDuration,
    /// Maximum simultaneously associated clients.
    pub max_clients: usize,
}

impl ApConfig {
    /// A typical open residential AP.
    pub fn open(bssid: MacAddr, ssid: Ssid, channel: Channel) -> ApConfig {
        ApConfig {
            bssid,
            ssid,
            channel,
            beacon_interval: SimDuration::from_micros(102_400),
            psm_buffer_cap: 100,
            psm_max_age: SimDuration::from_secs(3),
            max_clients: 32,
        }
    }
}

/// Per-associated-client state.
#[derive(Debug, Clone)]
struct ClientState {
    aid: u16,
    power_save: bool,
    buffer: VecDeque<(SimTime, Frame)>,
}

/// Events produced by the AP MAC.
#[derive(Debug, Clone)]
pub enum ApEvent {
    /// Transmit this frame on the AP's channel. These are unicast
    /// responses and data frames, riding inline ([`AirFrame::Owned`])
    /// since they have one recipient; beacons bypass the event batch
    /// ([`ApMac::take_due_beacon`]).
    Send(AirFrame),
    /// A client completed association.
    ClientAssociated(MacAddr),
    /// A client was removed (deauth or eviction).
    ClientGone(MacAddr),
    /// An uplink data packet from an associated client, to be handed to
    /// the AP's network side (DHCP server / NAT forwarding).
    DeliverUp {
        /// The transmitting client.
        from: MacAddr,
        /// The packet.
        packet: Ipv4Packet,
    },
}

/// The AP-side MAC state machine.
#[derive(Debug, Clone)]
pub struct ApMac {
    cfg: ApConfig,
    clients: FxHashMap<MacAddr, ClientState>,
    next_beacon: SimTime,
    next_aid: u16,
    /// The AP's beacon, minted once: its contents (SSID, channel,
    /// interval) never change, so every beacon interval re-sends this
    /// same shared frame instead of allocating a fresh SSID + frame.
    beacon: SharedFrame,
    /// Downlink frames dropped because a client wasn't associated,
    /// buffers overflowed, or frames aged out (observability for tests).
    pub drops: u64,
}

impl ApMac {
    /// Create an AP that starts beaconing at `first_beacon`.
    pub fn new(cfg: ApConfig, first_beacon: SimTime) -> ApMac {
        let beacon = Arc::new(Frame {
            src: cfg.bssid,
            dst: MacAddr::BROADCAST,
            bssid: cfg.bssid,
            body: FrameBody::Beacon {
                ssid: cfg.ssid.clone(),
                channel: cfg.channel,
                interval: cfg.beacon_interval,
            },
        });
        ApMac {
            cfg,
            clients: FxHashMap::default(),
            next_beacon: first_beacon,
            next_aid: 1,
            beacon,
            drops: 0,
        }
    }

    /// The AP's configuration.
    pub fn config(&self) -> &ApConfig {
        &self.cfg
    }

    /// Whether `mac` is currently associated.
    pub fn is_associated(&self, mac: MacAddr) -> bool {
        self.clients.contains_key(&mac)
    }

    /// Number of associated clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Whether the given client is in power-save mode.
    pub fn is_asleep(&self, mac: MacAddr) -> bool {
        self.clients
            .get(&mac)
            .map(|c| c.power_save)
            .unwrap_or(false)
    }

    /// Number of frames currently buffered for `mac`.
    pub fn buffered_for(&self, mac: MacAddr) -> usize {
        self.clients.get(&mac).map(|c| c.buffer.len()).unwrap_or(0)
    }

    /// Next instant a beacon is due (see [`ApMac::take_due_beacon`]).
    pub fn next_wakeup(&self) -> SimTime {
        self.next_beacon
    }

    /// Fast-forward the beacon timer to `now` without emitting the
    /// missed beacons. Simulation worlds call this when an AP re-enters
    /// the client's radio horizon after a long gap — the beacons it sent
    /// meanwhile were unreceivable and need not be replayed.
    pub fn resync_beacons(&mut self, now: SimTime) {
        if self.next_beacon < now {
            let interval = self.cfg.beacon_interval.as_micros().max(1);
            let behind = now.saturating_since(self.next_beacon).as_micros();
            let steps = behind / interval + 1;
            self.next_beacon += self.cfg.beacon_interval * steps;
        }
    }

    /// Timer processing: if a beacon is due at `now`, advance the timer
    /// past it and return `true` — the caller then transmits
    /// [`ApMac::beacon`]. Call until it returns `false` to emit every
    /// missed beacon.
    pub fn take_due_beacon(&mut self, now: SimTime) -> bool {
        let due = self.next_beacon <= now;
        if due {
            self.next_beacon += self.cfg.beacon_interval;
        }
        due
    }

    /// The AP's beacon frame. Its contents never change, so every
    /// beacon interval re-sends this one shared frame.
    pub fn beacon(&self) -> &SharedFrame {
        &self.beacon
    }

    /// Process a received frame.
    pub fn on_frame(&mut self, now: SimTime, frame: &Frame) -> Vec<ApEvent> {
        let mut out = Vec::new();
        self.on_frame_into(now, frame, &mut out);
        out
    }

    /// Like [`ApMac::on_frame`], but appends to a caller-owned buffer.
    pub fn on_frame_into(&mut self, now: SimTime, frame: &Frame, out: &mut Vec<ApEvent>) {
        match &frame.body {
            FrameBody::ProbeRequest { ssid } => {
                let matches = ssid.as_ref().map(|s| *s == self.cfg.ssid).unwrap_or(true);
                if matches {
                    out.push(ApEvent::Send(AirFrame::owned(Frame {
                        src: self.cfg.bssid,
                        dst: frame.src,
                        bssid: self.cfg.bssid,
                        body: FrameBody::ProbeResponse {
                            ssid: self.cfg.ssid.clone(),
                            channel: self.cfg.channel,
                        },
                    })));
                }
            }
            FrameBody::AuthRequest if frame.dst == self.cfg.bssid => {
                out.push(ApEvent::Send(AirFrame::owned(Frame {
                    src: self.cfg.bssid,
                    dst: frame.src,
                    bssid: self.cfg.bssid,
                    body: FrameBody::AuthResponse { ok: true },
                })));
            }
            FrameBody::AssocRequest { ssid } => {
                if frame.dst != self.cfg.bssid || *ssid != self.cfg.ssid {
                    return;
                }
                let full = self.clients.len() >= self.cfg.max_clients
                    && !self.clients.contains_key(&frame.src);
                if full {
                    out.push(ApEvent::Send(AirFrame::owned(Frame {
                        src: self.cfg.bssid,
                        dst: frame.src,
                        bssid: self.cfg.bssid,
                        body: FrameBody::AssocResponse { ok: false, aid: 0 },
                    })));
                    return;
                }
                let aid = match self.clients.entry(frame.src) {
                    Entry::Occupied(e) => e.get().aid,
                    Entry::Vacant(e) => {
                        let aid = self.next_aid;
                        self.next_aid = self.next_aid.wrapping_add(1).max(1);
                        e.insert(ClientState {
                            aid,
                            power_save: false,
                            buffer: VecDeque::new(),
                        });
                        out.push(ApEvent::ClientAssociated(frame.src));
                        aid
                    }
                };
                out.push(ApEvent::Send(AirFrame::owned(Frame {
                    src: self.cfg.bssid,
                    dst: frame.src,
                    bssid: self.cfg.bssid,
                    body: FrameBody::AssocResponse { ok: true, aid },
                })));
            }
            FrameBody::Deauth { .. } if self.clients.remove(&frame.src).is_some() => {
                out.push(ApEvent::ClientGone(frame.src));
            }
            FrameBody::Null { power_save } => {
                if let Some(st) = self.clients.get_mut(&frame.src) {
                    st.power_save = *power_save;
                    if !*power_save {
                        self.flush_buffer_into(now, frame.src, out);
                    }
                }
            }
            FrameBody::PsPoll => {
                // Modelled as "release everything buffered" (like U-APSD);
                // per-frame PS-Poll pacing costs airtime we fold into the
                // flushed frames themselves.
                if let Some(st) = self.clients.get_mut(&frame.src) {
                    st.power_save = false;
                    self.flush_buffer_into(now, frame.src, out);
                }
            }
            FrameBody::Data { packet, .. }
                if self.clients.contains_key(&frame.src) && frame.dst == self.cfg.bssid =>
            {
                out.push(ApEvent::DeliverUp {
                    from: frame.src,
                    packet: packet.clone(),
                });
            }
            _ => {}
        }
    }

    /// Queue a downlink packet toward `dst`.
    ///
    /// * If `dst` is awake, the frame is returned for immediate
    ///   transmission.
    /// * If `dst` sleeps and `bufferable`, the frame is buffered until a
    ///   PSM wake/poll (subject to the buffer cap).
    /// * If `dst` sleeps and `!bufferable` (join traffic), it is dropped —
    ///   the fidelity choice described at module level.
    /// * If `dst` is not associated, it is dropped.
    pub fn enqueue_downlink(
        &mut self,
        now: SimTime,
        dst: MacAddr,
        packet: Ipv4Packet,
        bufferable: bool,
    ) -> Vec<ApEvent> {
        let mut out = Vec::new();
        self.enqueue_downlink_into(now, dst, packet, bufferable, &mut out);
        out
    }

    /// Like [`ApMac::enqueue_downlink`], but appends to a caller-owned
    /// buffer.
    pub fn enqueue_downlink_into(
        &mut self,
        now: SimTime,
        dst: MacAddr,
        packet: Ipv4Packet,
        bufferable: bool,
        out: &mut Vec<ApEvent>,
    ) {
        let Some(st) = self.clients.get_mut(&dst) else {
            self.drops += 1;
            return;
        };
        let frame = Frame {
            src: self.cfg.bssid,
            dst,
            bssid: self.cfg.bssid,
            body: FrameBody::Data {
                packet,
                more_data: false,
            },
        };
        if st.power_save {
            if !bufferable {
                self.drops += 1;
                return;
            }
            if st.buffer.len() >= self.cfg.psm_buffer_cap {
                st.buffer.pop_front();
                self.drops += 1;
            }
            st.buffer.push_back((now, frame));
        } else {
            out.push(ApEvent::Send(AirFrame::owned(frame)));
        }
    }

    /// Wipe all association state without notifying anyone — an AP
    /// power-cycle. Clients still believing themselves associated must
    /// re-join from scratch (their data frames will be ignored). On an
    /// AP that has never associated a client this changes nothing.
    pub fn reset_associations(&mut self) {
        self.clients.clear();
        self.next_aid = 1;
    }

    /// Remove a client (age-out by the AP's own logic).
    pub fn evict(&mut self, mac: MacAddr) -> Vec<ApEvent> {
        if self.clients.remove(&mac).is_some() {
            vec![
                ApEvent::Send(AirFrame::owned(Frame {
                    src: self.cfg.bssid,
                    dst: mac,
                    bssid: self.cfg.bssid,
                    body: FrameBody::Deauth { reason: 4 },
                })),
                ApEvent::ClientGone(mac),
            ]
        } else {
            Vec::new()
        }
    }

    fn flush_buffer_into(&mut self, now: SimTime, mac: MacAddr, out: &mut Vec<ApEvent>) {
        let Some(st) = self.clients.get_mut(&mac) else {
            return;
        };
        let max_age = self.cfg.psm_max_age;
        let total = st.buffer.len();
        out.reserve(total);
        let mut idx = 0;
        while let Some((queued_at, mut frame)) = st.buffer.pop_front() {
            idx += 1;
            if now.saturating_since(queued_at) > max_age {
                self.drops += 1;
                continue;
            }
            if let FrameBody::Data { more_data, .. } = &mut frame.body {
                *more_data = idx < total;
            }
            out.push(ApEvent::Send(AirFrame::owned(frame)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simcore::check::check;
    use spider_wire::ip::L4;
    use spider_wire::{IcmpMessage, Ipv4Addr};

    fn ap() -> ApMac {
        ApMac::new(
            ApConfig::open(MacAddr::from_id(100), "net".into(), Channel::CH6),
            SimTime::ZERO,
        )
    }

    fn client_frame(body: FrameBody) -> Frame {
        Frame {
            src: MacAddr::from_id(1),
            dst: MacAddr::from_id(100),
            bssid: MacAddr::from_id(100),
            body,
        }
    }

    fn associate(ap: &mut ApMac, now: SimTime) {
        ap.on_frame(now, &client_frame(FrameBody::AuthRequest));
        ap.on_frame(
            now,
            &client_frame(FrameBody::AssocRequest { ssid: "net".into() }),
        );
        assert!(ap.is_associated(MacAddr::from_id(1)));
    }

    fn pkt() -> Ipv4Packet {
        Ipv4Packet {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            payload: L4::Icmp(IcmpMessage::EchoReply { id: 1, seq: 1 }),
        }
    }

    #[test]
    fn beacons_fire_on_schedule() {
        let mut ap = ap();
        let due = |ap: &mut ApMac, now| {
            std::iter::from_fn(|| ap.take_due_beacon(now).then_some(())).count()
        };
        assert_eq!(due(&mut ap, SimTime::ZERO), 1);
        // Nothing more until the next interval.
        assert_eq!(due(&mut ap, SimTime::from_millis(50)), 0);
        assert_eq!(due(&mut ap, SimTime::from_micros(102_400)), 1);
        // A long gap emits all the missed beacons.
        assert_eq!(due(&mut ap, SimTime::from_micros(102_400 * 4)), 3);
        assert!(matches!(
            ap.beacon().body,
            FrameBody::Beacon {
                channel: Channel::CH6,
                ..
            }
        ));
        assert_eq!(ap.beacon().dst, MacAddr::BROADCAST);
    }

    #[test]
    fn probe_responses() {
        let mut ap = ap();
        let ev = ap.on_frame(
            SimTime::ZERO,
            &client_frame(FrameBody::ProbeRequest { ssid: None }),
        );
        assert!(matches!(&ev[..], [ApEvent::Send(f)]
            if matches!(&f.body, FrameBody::ProbeResponse { .. })));
        // Non-matching directed probe is ignored.
        let ev = ap.on_frame(
            SimTime::ZERO,
            &client_frame(FrameBody::ProbeRequest {
                ssid: Some("other".into()),
            }),
        );
        assert!(ev.is_empty());
    }

    #[test]
    fn association_flow_and_aid_stability() {
        let mut ap = ap();
        let ev = ap.on_frame(SimTime::ZERO, &client_frame(FrameBody::AuthRequest));
        assert!(matches!(&ev[..], [ApEvent::Send(f)]
            if matches!(f.body, FrameBody::AuthResponse { ok: true })));
        let ev = ap.on_frame(
            SimTime::ZERO,
            &client_frame(FrameBody::AssocRequest { ssid: "net".into() }),
        );
        assert_eq!(ev.len(), 2); // ClientAssociated + Send
        let aid1 = ev
            .iter()
            .find_map(|e| match e {
                ApEvent::Send(f) => match f.body {
                    FrameBody::AssocResponse { aid, .. } => Some(aid),
                    _ => None,
                },
                _ => None,
            })
            .unwrap();
        // Re-association returns the same aid without a duplicate event.
        let ev = ap.on_frame(
            SimTime::from_millis(5),
            &client_frame(FrameBody::AssocRequest { ssid: "net".into() }),
        );
        assert_eq!(ev.len(), 1);
        let aid2 = match &ev[0] {
            ApEvent::Send(f) => match f.body {
                FrameBody::AssocResponse { aid, .. } => aid,
                _ => panic!(),
            },
            _ => panic!(),
        };
        assert_eq!(aid1, aid2);
    }

    #[test]
    fn wrong_ssid_assoc_is_ignored() {
        let mut ap = ap();
        let ev = ap.on_frame(
            SimTime::ZERO,
            &client_frame(FrameBody::AssocRequest {
                ssid: "wrong".into(),
            }),
        );
        assert!(ev.is_empty());
        assert_eq!(ap.client_count(), 0);
    }

    #[test]
    fn capacity_limit_rejects() {
        let mut cfg = ApConfig::open(MacAddr::from_id(100), "net".into(), Channel::CH6);
        cfg.max_clients = 1;
        let mut ap = ApMac::new(cfg, SimTime::ZERO);
        associate(&mut ap, SimTime::ZERO);
        let mut f = client_frame(FrameBody::AssocRequest { ssid: "net".into() });
        f.src = MacAddr::from_id(2);
        let ev = ap.on_frame(SimTime::ZERO, &f);
        assert!(matches!(&ev[..], [ApEvent::Send(fr)]
            if matches!(fr.body, FrameBody::AssocResponse { ok: false, .. })));
    }

    #[test]
    fn awake_client_gets_immediate_downlink() {
        let mut ap = ap();
        associate(&mut ap, SimTime::ZERO);
        let ev = ap.enqueue_downlink(SimTime::ZERO, MacAddr::from_id(1), pkt(), true);
        assert!(matches!(&ev[..], [ApEvent::Send(_)]));
    }

    #[test]
    fn psm_buffers_and_flushes_in_order() {
        let mut ap = ap();
        associate(&mut ap, SimTime::ZERO);
        let mac = MacAddr::from_id(1);
        // Client goes to sleep.
        ap.on_frame(
            SimTime::ZERO,
            &client_frame(FrameBody::Null { power_save: true }),
        );
        assert!(ap.is_asleep(mac));
        for _ in 0..3 {
            let ev = ap.enqueue_downlink(SimTime::from_millis(1), mac, pkt(), true);
            assert!(ev.is_empty());
        }
        assert_eq!(ap.buffered_for(mac), 3);
        // Wake: all three flushed, more_data set on all but the last.
        let ev = ap.on_frame(
            SimTime::from_millis(50),
            &client_frame(FrameBody::Null { power_save: false }),
        );
        assert_eq!(ev.len(), 3);
        let more: Vec<bool> = ev
            .iter()
            .map(|e| match e {
                ApEvent::Send(f) => match f.body {
                    FrameBody::Data { more_data, .. } => more_data,
                    _ => panic!(),
                },
                _ => panic!(),
            })
            .collect();
        assert_eq!(more, vec![true, true, false]);
        assert_eq!(ap.buffered_for(mac), 0);
    }

    #[test]
    fn ps_poll_also_flushes() {
        let mut ap = ap();
        associate(&mut ap, SimTime::ZERO);
        ap.on_frame(
            SimTime::ZERO,
            &client_frame(FrameBody::Null { power_save: true }),
        );
        ap.enqueue_downlink(SimTime::ZERO, MacAddr::from_id(1), pkt(), true);
        let ev = ap.on_frame(SimTime::from_millis(10), &client_frame(FrameBody::PsPoll));
        assert_eq!(ev.len(), 1);
        assert!(!ap.is_asleep(MacAddr::from_id(1)));
    }

    #[test]
    fn join_traffic_is_not_buffered_for_sleepers() {
        let mut ap = ap();
        associate(&mut ap, SimTime::ZERO);
        ap.on_frame(
            SimTime::ZERO,
            &client_frame(FrameBody::Null { power_save: true }),
        );
        let ev = ap.enqueue_downlink(SimTime::ZERO, MacAddr::from_id(1), pkt(), false);
        assert!(ev.is_empty());
        assert_eq!(ap.buffered_for(MacAddr::from_id(1)), 0);
        assert_eq!(ap.drops, 1);
    }

    #[test]
    fn buffer_cap_drops_oldest() {
        let mut cfg = ApConfig::open(MacAddr::from_id(100), "net".into(), Channel::CH6);
        cfg.psm_buffer_cap = 2;
        let mut ap = ApMac::new(cfg, SimTime::ZERO);
        associate(&mut ap, SimTime::ZERO);
        ap.on_frame(
            SimTime::ZERO,
            &client_frame(FrameBody::Null { power_save: true }),
        );
        for _ in 0..5 {
            ap.enqueue_downlink(SimTime::ZERO, MacAddr::from_id(1), pkt(), true);
        }
        assert_eq!(ap.buffered_for(MacAddr::from_id(1)), 2);
        assert_eq!(ap.drops, 3);
    }

    #[test]
    fn stale_buffered_frames_age_out_at_flush() {
        let mut ap = ap();
        associate(&mut ap, SimTime::ZERO);
        let mac = MacAddr::from_id(1);
        ap.on_frame(
            SimTime::ZERO,
            &client_frame(FrameBody::Null { power_save: true }),
        );
        ap.enqueue_downlink(SimTime::ZERO, mac, pkt(), true);
        ap.enqueue_downlink(SimTime::from_secs(4), mac, pkt(), true);
        // Flush at t=5s: first frame is 5s old (> 3s max age), second 1s.
        let ev = ap.on_frame(
            SimTime::from_secs(5),
            &client_frame(FrameBody::Null { power_save: false }),
        );
        assert_eq!(ev.len(), 1);
        assert_eq!(ap.drops, 1);
    }

    #[test]
    fn downlink_to_unassociated_client_drops() {
        let mut ap = ap();
        let ev = ap.enqueue_downlink(SimTime::ZERO, MacAddr::from_id(9), pkt(), true);
        assert!(ev.is_empty());
        assert_eq!(ap.drops, 1);
    }

    #[test]
    fn uplink_data_from_associated_client_delivers_up() {
        let mut ap = ap();
        associate(&mut ap, SimTime::ZERO);
        let ev = ap.on_frame(
            SimTime::ZERO,
            &client_frame(FrameBody::Data {
                packet: pkt(),
                more_data: false,
            }),
        );
        assert!(matches!(&ev[..], [ApEvent::DeliverUp { .. }]));
        // From an unknown client: dropped.
        let mut f = client_frame(FrameBody::Data {
            packet: pkt(),
            more_data: false,
        });
        f.src = MacAddr::from_id(66);
        assert!(ap.on_frame(SimTime::ZERO, &f).is_empty());
    }

    #[test]
    fn deauth_and_evict() {
        let mut ap = ap();
        associate(&mut ap, SimTime::ZERO);
        let ev = ap.on_frame(
            SimTime::ZERO,
            &client_frame(FrameBody::Deauth { reason: 3 }),
        );
        assert!(matches!(&ev[..], [ApEvent::ClientGone(_)]));
        assert_eq!(ap.client_count(), 0);
        // Evicting an unknown client is a no-op.
        assert!(ap.evict(MacAddr::from_id(1)).is_empty());
        associate(&mut ap, SimTime::from_secs(1));
        let ev = ap.evict(MacAddr::from_id(1));
        assert_eq!(ev.len(), 2);
    }

    /// The PSM buffer never exceeds its cap, whatever the interleaving of
    /// sleeps, wakes and downlink traffic.
    #[test]
    fn psm_buffer_respects_cap() {
        check("psm_buffer_respects_cap", 256, |g| {
            let cap = g.usize(1..20);
            let mut cfg = ApConfig::open(MacAddr::from_id(9), "p".into(), Channel::CH6);
            cfg.psm_buffer_cap = cap;
            let mut ap = ApMac::new(cfg, SimTime::MAX);
            let client = MacAddr::from_id(1);
            let frame = |body| Frame {
                src: client,
                dst: MacAddr::from_id(9),
                bssid: MacAddr::from_id(9),
                body,
            };
            ap.on_frame(
                SimTime::ZERO,
                &frame(FrameBody::AssocRequest { ssid: "p".into() }),
            );
            let mut now = SimTime::ZERO;
            for (op, dt) in g.vec(1..100, |g| (g.u64(0..3), g.u64(1..100))) {
                now += SimDuration::from_millis(dt);
                match op {
                    0 | 1 => {
                        let power_save = op == 0;
                        ap.on_frame(now, &frame(FrameBody::Null { power_save }));
                    }
                    _ => {
                        let pkt = Ipv4Packet {
                            src: Ipv4Addr::new(10, 0, 0, 1),
                            dst: Ipv4Addr::new(10, 0, 0, 2),
                            payload: L4::Icmp(IcmpMessage::EchoReply { id: 1, seq: 1 }),
                        };
                        ap.enqueue_downlink(now, client, pkt, true);
                    }
                }
                let buffered = ap.buffered_for(client);
                assert!(buffered <= cap, "{buffered} frames buffered over cap {cap}");
            }
        });
    }
}
