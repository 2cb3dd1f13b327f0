//! One virtual interface = one concurrent AP connection (Design Choice 3).
//!
//! Each interface is a self-contained stack: the link-layer association
//! machine, a DHCP client (fed from the per-BSSID lease cache), the ping
//! liveness engine, and a TCP bulk-download endpoint that starts once
//! connectivity is verified. The interface reports lifecycle events to
//! the driver, which records join statistics and utility outcomes.

use spider_mac80211::{ApTarget, ClientMacConfig, InterfaceMac, JoinLog, MacEvent};
use spider_netstack::{
    DhcpClient, DhcpClientConfig, DhcpClientEvent, GatewayArp, Lease, PingConfig, PingEngine,
    PingEvent,
};
use spider_simcore::{SimDuration, SimTime};
use spider_tcpsim::TcpReceiver;
use spider_wire::ip::L4;
use spider_wire::{Frame, FrameBody, Ipv4Addr, Ipv4Packet, MacAddr};

use crate::utility::JoinOutcome;

/// The well-known wired sink the evaluation downloads from and pings
/// (reachable through every AP's backhaul).
pub const SERVER_IP: Ipv4Addr = Ipv4Addr([192, 0, 2, 1]);

/// TCP server port of the sink.
pub const SERVER_PORT: u16 = 80;

/// Interface lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IfacePhase {
    /// Unbound.
    Idle,
    /// Link-layer join in progress.
    Associating,
    /// DHCP acquisition in progress.
    Dhcp,
    /// Lease held; connectivity not yet verified.
    Verifying,
    /// Fully joined; data flowing.
    Connected,
}

/// Events reported to the driver.
#[derive(Debug, Clone)]
pub enum IfaceEvent {
    /// Transmit this frame.
    Transmit(Frame),
    /// A DHCP lease was obtained (cache it).
    GotLease {
        /// The AP it came from.
        bssid: MacAddr,
        /// The lease.
        lease: Lease,
        /// DISCOVER/REQUEST-to-ACK duration.
        took: SimDuration,
        /// Whether the cached-lease fast path succeeded.
        via_cache: bool,
    },
    /// End-to-end connectivity verified — the join is complete.
    ConnectivityUp {
        /// The AP.
        bssid: MacAddr,
        /// Join-start-to-verification duration.
        join_took: SimDuration,
    },
    /// The interface went down; `outcome` is the utility score to record
    /// (`None` when a FullyJoined outcome was already recorded at
    /// ConnectivityUp).
    Down {
        /// The AP.
        bssid: MacAddr,
        /// Outcome to record against the AP's utility.
        outcome: Option<JoinOutcome>,
        /// The interface classified this AP as a captive portal: the link
        /// fell back to gateway probing (end-to-end ICMP is dead), gateway
        /// pings are answered — so the link *looks* alive — yet the data
        /// plane delivered nothing for a sustained window. A portal is
        /// not failing, it is working as its operator intends, so the
        /// driver should demote the AP rather than retry it forever.
        portal: bool,
    },
    /// The DHCP server NAKed our REQUEST — any cached lease for this
    /// BSSID is stale and must be evicted from the driver's cache.
    LeaseRejected {
        /// The AP whose server rejected the lease.
        bssid: MacAddr,
    },
}

/// A virtual interface.
#[derive(Debug)]
// Clone is the per-interface leg of the world snapshot (DESIGN.md §13):
// MAC state machine, DHCP client, ping engine and TCP receiver all clone
// deeply, so a forked interface resumes bit-identically.
#[derive(Clone)]
pub struct ClientIface {
    /// Index within the driver.
    pub index: usize,
    /// The interface's MAC address.
    pub addr: MacAddr,
    mac: InterfaceMac,
    dhcp: DhcpClient,
    ping: PingEngine,
    tcp: Option<TcpReceiver>,
    phase: IfacePhase,
    lease: Option<Lease>,
    /// Probe the gateway instead of the wired server (set once the ping
    /// engine reports that end-to-end ICMP looks filtered, §3.2.2).
    ping_gateway: bool,
    /// Gateway-resolution state: resolved on every lease bind, flushed
    /// on teardown. Re-resolution is how an ARP-poisoned session
    /// recovers, and the resolution counter is the observable proof.
    arp: GatewayArp,
    /// When the gateway-ping fallback engaged, while the captive-portal
    /// classifier is armed (`None` once the data plane shows progress —
    /// an honest ICMP-filtering gateway, not a portal).
    fell_back_at: Option<SimTime>,
    /// Bytes delivered at the instant of fallback, the zero-progress
    /// reference for the portal classifier.
    fallback_bytes: u64,
    join_started: SimTime,
    fully_joined: bool,
    next_iss: u32,
    /// Last time the TCP flow made delivery progress (or was created).
    flow_progress_at: SimTime,
    /// Bytes delivered at the last progress check.
    flow_progress_bytes: u64,
    /// Cumulative TCP bytes delivered across all connections on this
    /// interface.
    pub delivered_base: u64,
}

impl ClientIface {
    /// Create an idle interface.
    pub fn new(
        index: usize,
        addr: MacAddr,
        mac_cfg: ClientMacConfig,
        dhcp_cfg: DhcpClientConfig,
        ping_cfg: PingConfig,
    ) -> ClientIface {
        ClientIface {
            index,
            addr,
            mac: InterfaceMac::new(addr, mac_cfg),
            dhcp: DhcpClient::new(addr, dhcp_cfg),
            ping: PingEngine::new(ping_cfg),
            tcp: None,
            phase: IfacePhase::Idle,
            lease: None,
            ping_gateway: false,
            arp: GatewayArp::new(),
            fell_back_at: None,
            fallback_bytes: 0,
            join_started: SimTime::ZERO,
            fully_joined: false,
            next_iss: (index as u32 + 1) * 10_000,
            flow_progress_at: SimTime::ZERO,
            flow_progress_bytes: 0,
            delivered_base: 0,
        }
    }

    /// How long a connected flow may sit without progress before being
    /// re-dialled (an application-level retry, as a stalled `wget` would).
    const FLOW_STALL: SimDuration = SimDuration::from_secs(5);

    /// How long a fallen-back link may show zero delivery progress
    /// before it is classified as a captive portal. Two flow-stall
    /// windows: long enough for a genuine ICMP-filtering gateway to get
    /// a first byte through even under heavy interference (the flow
    /// re-dials at [`Self::FLOW_STALL`]), short enough that a portal is
    /// demoted well inside a drive-by encounter.
    const PORTAL_SUSPECT: SimDuration = SimDuration::from_secs(10);

    fn open_flow(&mut self, now: SimTime) -> Vec<IfaceEvent> {
        let iss = self.next_iss;
        self.next_iss = self.next_iss.wrapping_add(100_000);
        let mut tcp = TcpReceiver::new(5_000 + self.index as u16, SERVER_PORT, iss);
        let syn = tcp.connect(now);
        let out = vec![IfaceEvent::Transmit(self.wrap_tcp(syn))];
        self.tcp = Some(tcp);
        self.flow_progress_at = now;
        self.flow_progress_bytes = self.delivered_bytes();
        out
    }

    /// Current phase.
    pub fn phase(&self) -> IfacePhase {
        self.phase
    }

    /// Whether the interface is bound to (joining or joined with) an AP.
    pub fn is_busy(&self) -> bool {
        self.phase != IfacePhase::Idle
    }

    /// Whether link-layer association currently holds.
    pub fn is_associated(&self) -> bool {
        self.mac.is_associated()
    }

    /// Whether end-to-end connectivity is verified right now.
    pub fn is_connected(&self) -> bool {
        self.phase == IfacePhase::Connected && self.ping.is_alive()
    }

    /// The AP this interface is bound to.
    pub fn bssid(&self) -> Option<MacAddr> {
        self.mac.target().map(|t| t.bssid)
    }

    /// The target AP (including channel).
    pub fn target(&self) -> Option<&ApTarget> {
        self.mac.target()
    }

    /// Whether the DHCP client can start a new acquisition (not inside
    /// its failure backoff window).
    pub fn dhcp_ready(&self, now: SimTime) -> bool {
        self.dhcp.can_start(now)
    }

    /// The lease currently held (None until DHCP binds).
    pub fn current_lease(&self) -> Option<Lease> {
        self.lease
    }

    /// Total TCP bytes delivered on this interface (across connections).
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_base + self.tcp.as_ref().map(|t| t.delivered).unwrap_or(0)
    }

    /// Gateway-resolution state (see [`GatewayArp`]): how many times
    /// this interface has resolved a gateway, and whether a mapping is
    /// currently held.
    pub fn gateway_arp(&self) -> &GatewayArp {
        &self.arp
    }

    /// Begin joining `target`, optionally with a cached lease.
    pub fn start_join(&mut self, now: SimTime, target: ApTarget, cached: Option<Lease>) {
        self.teardown_stacks();
        self.join_started = now;
        self.fully_joined = false;
        self.phase = IfacePhase::Associating;
        self.mac.start_join(now, target);
        // Stash the cached lease decision until association completes.
        self.lease = cached;
    }

    fn teardown_stacks(&mut self) {
        if let Some(tcp) = self.tcp.take() {
            self.delivered_base += tcp.delivered;
        }
        self.ping.stop();
        self.dhcp.reset();
        self.mac.reset();
        self.lease = None;
        self.ping_gateway = false;
        self.arp.flush();
        self.fell_back_at = None;
        self.fallback_bytes = 0;
        self.phase = IfacePhase::Idle;
    }

    /// Tear the interface down (driver decision: lost AP, reschedule,
    /// shutdown). Returns the deauth frame to send if associated and the
    /// outcome event.
    pub fn teardown(&mut self, _now: SimTime) -> Vec<IfaceEvent> {
        let mut out = Vec::new();
        let Some(target) = self.mac.target().cloned() else {
            self.teardown_stacks();
            return out;
        };
        if self.mac.is_associated() {
            out.push(IfaceEvent::Transmit(Frame {
                src: self.addr,
                dst: target.bssid,
                bssid: target.bssid,
                body: FrameBody::Deauth { reason: 3 },
            }));
        }
        let outcome = self.pending_outcome();
        out.push(IfaceEvent::Down {
            bssid: target.bssid,
            outcome,
            portal: false,
        });
        self.teardown_stacks();
        out
    }

    fn pending_outcome(&self) -> Option<JoinOutcome> {
        if self.fully_joined {
            None
        } else {
            Some(match self.phase {
                IfacePhase::Idle | IfacePhase::Associating => JoinOutcome::Failed,
                IfacePhase::Dhcp => JoinOutcome::AssociatedOnly,
                IfacePhase::Verifying => JoinOutcome::LeaseOnly,
                IfacePhase::Connected => JoinOutcome::FullyJoined,
            })
        }
    }

    fn ip(&self) -> Ipv4Addr {
        self.lease.map(|l| l.ip).unwrap_or(Ipv4Addr::UNSPECIFIED)
    }

    fn data_frame(&self, packet: Ipv4Packet) -> Frame {
        let bssid = self
            .mac
            .target()
            .map(|t| t.bssid)
            .unwrap_or(MacAddr::BROADCAST);
        Frame {
            src: self.addr,
            dst: bssid,
            bssid,
            body: FrameBody::Data {
                packet,
                more_data: false,
            },
        }
    }

    fn wrap_dhcp(&self, msg: spider_wire::DhcpMessage) -> Frame {
        let dst = if msg.server_id.is_unspecified() {
            Ipv4Addr::BROADCAST
        } else {
            msg.server_id
        };
        self.data_frame(Ipv4Packet {
            src: self.ip(),
            dst,
            payload: L4::Dhcp(msg),
        })
    }

    fn wrap_icmp(&self, msg: spider_wire::IcmpMessage) -> Frame {
        // Normally probe end-to-end; fall back to the gateway when the
        // path upstream of the AP filters ICMP (§3.2.2).
        let dst = if self.ping_gateway {
            self.lease.map(|l| l.server).unwrap_or(SERVER_IP)
        } else {
            SERVER_IP
        };
        self.data_frame(Ipv4Packet {
            src: self.ip(),
            dst,
            payload: L4::Icmp(msg),
        })
    }

    fn wrap_tcp(&self, seg: spider_wire::TcpSegment) -> Frame {
        self.data_frame(Ipv4Packet {
            src: self.ip(),
            dst: SERVER_IP,
            payload: L4::Tcp(seg),
        })
    }

    /// Timer-driven processing. `on_channel` is true iff the radio is on
    /// this interface's target channel.
    pub fn poll(&mut self, now: SimTime, on_channel: bool, log: &mut JoinLog) -> Vec<IfaceEvent> {
        let mut out = Vec::new();
        match self.phase {
            IfacePhase::Idle => {}
            IfacePhase::Associating => {
                for ev in self.mac.poll(now, on_channel) {
                    match ev {
                        MacEvent::Send(frame) => out.push(IfaceEvent::Transmit(frame)),
                        MacEvent::JoinFailed { bssid } => {
                            log.join_failures += 1;
                            out.push(IfaceEvent::Down {
                                bssid,
                                outcome: Some(JoinOutcome::Failed),
                                portal: false,
                            });
                            self.teardown_stacks();
                            return out;
                        }
                        _ => {}
                    }
                }
            }
            IfacePhase::Dhcp => {
                for ev in self.dhcp.poll(now, on_channel) {
                    match ev {
                        DhcpClientEvent::Send(msg) => {
                            out.push(IfaceEvent::Transmit(self.wrap_dhcp(msg)))
                        }
                        DhcpClientEvent::Failed => {
                            log.dhcp_failures += 1;
                            log.join_failures += 1;
                            let bssid = self.bssid().unwrap_or(MacAddr::BROADCAST);
                            if self.mac.is_associated() {
                                out.push(IfaceEvent::Transmit(Frame {
                                    src: self.addr,
                                    dst: bssid,
                                    bssid,
                                    body: FrameBody::Deauth { reason: 3 },
                                }));
                            }
                            out.push(IfaceEvent::Down {
                                bssid,
                                outcome: Some(JoinOutcome::AssociatedOnly),
                                portal: false,
                            });
                            self.teardown_stacks();
                            return out;
                        }
                        DhcpClientEvent::Bound { .. } | DhcpClientEvent::Nak => {
                            // Handled in on_frame path normally; poll can
                            // produce neither.
                        }
                    }
                }
            }
            IfacePhase::Verifying | IfacePhase::Connected => {
                let ping_events = self.ping.poll(now, on_channel);
                // If the whole session has been silence, redirect the
                // probes at the gateway before wrapping any Send below —
                // and arm the portal classifier: a link that *stays* on
                // gateway probing with zero delivery progress is being
                // intercepted, not filtered.
                if !self.ping_gateway && self.ping.should_fall_back() {
                    self.ping_gateway = true;
                    self.fell_back_at = Some(now);
                    self.fallback_bytes = self.delivered_bytes();
                }
                for ev in ping_events {
                    match ev {
                        PingEvent::Send(msg) => out.push(IfaceEvent::Transmit(self.wrap_icmp(msg))),
                        PingEvent::Down => {
                            let bssid = self.bssid().unwrap_or(MacAddr::BROADCAST);
                            if self.phase == IfacePhase::Verifying {
                                log.join_failures += 1;
                            }
                            if self.mac.is_associated() {
                                out.push(IfaceEvent::Transmit(Frame {
                                    src: self.addr,
                                    dst: bssid,
                                    bssid,
                                    body: FrameBody::Deauth { reason: 3 },
                                }));
                            }
                            out.push(IfaceEvent::Down {
                                bssid,
                                outcome: self.pending_outcome(),
                                portal: false,
                            });
                            self.teardown_stacks();
                            return out;
                        }
                        PingEvent::Up => {
                            // Handled in on_frame path (replies arrive as
                            // frames); unreachable from poll.
                        }
                    }
                }
                let rexmit = self.tcp.as_mut().and_then(|tcp| tcp.poll(now, on_channel));
                if let Some(seg) = rexmit {
                    out.push(IfaceEvent::Transmit(self.wrap_tcp(seg)));
                }
                // Off-channel the stall clock cannot tick (nothing can
                // flow or be re-dialled); slide it so wakeups progress.
                if self.phase == IfacePhase::Connected
                    && !on_channel
                    && now.saturating_since(self.flow_progress_at) >= Self::FLOW_STALL
                {
                    self.flow_progress_at = now;
                }
                // Same for the portal clock: progress is impossible
                // off-channel, so an expiry there slides instead of
                // firing (the judgement window must elapse on-channel).
                if self.phase == IfacePhase::Connected && !on_channel {
                    if let Some(fb) = self.fell_back_at {
                        if now.saturating_since(fb) >= Self::PORTAL_SUSPECT {
                            self.fell_back_at = Some(now);
                        }
                    }
                }
                // Application-level retry: if the flow died (SYN gave up,
                // server sender timed out away) or stalled, and the link
                // itself is verified alive, dial a fresh connection.
                if self.phase == IfacePhase::Connected && on_channel {
                    let delivered = self.delivered_bytes();
                    if delivered > self.flow_progress_bytes {
                        self.flow_progress_bytes = delivered;
                        self.flow_progress_at = now;
                    }
                    let dead = self.tcp.as_ref().map(|t| t.has_failed()).unwrap_or(true);
                    let stalled = now.saturating_since(self.flow_progress_at) >= Self::FLOW_STALL;
                    if dead || stalled {
                        if let Some(old_flow) = self.tcp.take() {
                            self.delivered_base += old_flow.delivered;
                        }
                        let flow = self.open_flow(now);
                        out.extend(flow);
                    }
                    // Captive-portal classifier: fallen back to gateway
                    // probing (so the ping engine says "alive"), yet not
                    // one byte delivered since the fallback. An honest
                    // ICMP-filtering gateway shows progress and disarms;
                    // a portal never does — demote it and move on.
                    if let Some(fb) = self.fell_back_at {
                        if self.delivered_bytes() > self.fallback_bytes {
                            self.fell_back_at = None;
                        } else if now.saturating_since(fb) >= Self::PORTAL_SUSPECT {
                            let bssid = self.bssid().unwrap_or(MacAddr::BROADCAST);
                            if self.mac.is_associated() {
                                out.push(IfaceEvent::Transmit(Frame {
                                    src: self.addr,
                                    dst: bssid,
                                    bssid,
                                    body: FrameBody::Deauth { reason: 3 },
                                }));
                            }
                            out.push(IfaceEvent::Down {
                                bssid,
                                outcome: self.pending_outcome(),
                                portal: true,
                            });
                            self.teardown_stacks();
                            return out;
                        }
                    }
                }
            }
        }
        out
    }

    /// Earliest instant this interface needs a poll.
    pub fn next_wakeup(&self) -> SimTime {
        let mut t = SimTime::MAX;
        match self.phase {
            IfacePhase::Idle => {}
            IfacePhase::Associating => t = t.min(self.mac.next_wakeup()),
            IfacePhase::Dhcp => t = t.min(self.dhcp.next_wakeup()),
            IfacePhase::Verifying | IfacePhase::Connected => {
                t = t.min(self.ping.next_wakeup());
                if let Some(tcp) = &self.tcp {
                    t = t.min(tcp.next_wakeup());
                }
                if self.phase == IfacePhase::Connected {
                    t = t.min(self.flow_progress_at + Self::FLOW_STALL);
                    if let Some(fb) = self.fell_back_at {
                        t = t.min(fb + Self::PORTAL_SUSPECT);
                    }
                }
            }
        }
        t
    }

    /// Whether `on_frame` may have unlocked a transmission that a
    /// follow-up `poll` at the same instant must flush. Join-phase
    /// machines (auth → assoc → DHCP → verify) advance frame by frame,
    /// so any received frame can unlock the next handshake step. In
    /// steady `Connected` state every transmission is deadline-driven:
    /// unless a deadline is already due or the flow needs re-dialling,
    /// the poll at the next scheduled wakeup reproduces the same work,
    /// so the per-data-frame poll can be elided.
    pub fn needs_immediate_poll(&self, now: SimTime) -> bool {
        match self.phase {
            IfacePhase::Idle => false,
            IfacePhase::Connected => {
                self.tcp.as_ref().map(|t| t.has_failed()).unwrap_or(true)
                    || self.next_wakeup() <= now
            }
            _ => true,
        }
    }

    /// Process a frame relevant to this interface.
    pub fn on_frame(&mut self, now: SimTime, frame: &Frame, log: &mut JoinLog) -> Vec<IfaceEvent> {
        let mut out = Vec::new();
        // Link-layer management first.
        for ev in self.mac.on_frame(now, frame, log) {
            match ev {
                MacEvent::Send(f) => out.push(IfaceEvent::Transmit(f)),
                MacEvent::Associated { .. } => {
                    // Association done → start DHCP (cached fast path if a
                    // lease was supplied).
                    self.phase = IfacePhase::Dhcp;
                    let cached = self.lease.take().filter(|l| l.valid_at(now));
                    self.dhcp.start(now, cached);
                }
                MacEvent::JoinFailed { bssid } => {
                    log.join_failures += 1;
                    out.push(IfaceEvent::Down {
                        bssid,
                        outcome: Some(JoinOutcome::Failed),
                        portal: false,
                    });
                    self.teardown_stacks();
                    return out;
                }
                MacEvent::Deauthenticated { bssid } => {
                    out.push(IfaceEvent::Down {
                        bssid,
                        outcome: self.pending_outcome(),
                        portal: false,
                    });
                    self.teardown_stacks();
                    return out;
                }
            }
        }
        // After a state change the MAC may need to transmit immediately
        // (e.g. the association request right after auth succeeds).
        // The driver polls us next; no action needed here.

        // Network payloads.
        if let FrameBody::Data { packet, .. } = &frame.body {
            match &packet.payload {
                L4::Dhcp(msg) => {
                    for ev in self.dhcp.on_message(now, msg) {
                        match ev {
                            DhcpClientEvent::Send(m) => {
                                out.push(IfaceEvent::Transmit(self.wrap_dhcp(m)))
                            }
                            DhcpClientEvent::Bound {
                                lease,
                                took,
                                via_cache,
                            } => {
                                self.lease = Some(lease);
                                // The lease names the gateway: resolve it.
                                // A rejoin after an ARP-poison episode
                                // lands here again — that second
                                // resolution *is* the recovery.
                                self.arp.resolve(now, lease.server);
                                self.phase = IfacePhase::Verifying;
                                log.record_dhcp(now, took);
                                let bssid = self.bssid().unwrap_or(MacAddr::BROADCAST);
                                out.push(IfaceEvent::GotLease {
                                    bssid,
                                    lease,
                                    took,
                                    via_cache,
                                });
                                self.ping.start(now);
                            }
                            DhcpClientEvent::Failed => {
                                log.dhcp_failures += 1;
                                log.join_failures += 1;
                                let bssid = self.bssid().unwrap_or(MacAddr::BROADCAST);
                                out.push(IfaceEvent::Down {
                                    bssid,
                                    outcome: Some(JoinOutcome::AssociatedOnly),
                                    portal: false,
                                });
                                self.teardown_stacks();
                                return out;
                            }
                            DhcpClientEvent::Nak => {
                                // Stale cached lease: tell the driver to
                                // evict it (the client already falls back
                                // to a fresh DISCOVER or fails on its own).
                                let bssid = self.bssid().unwrap_or(MacAddr::BROADCAST);
                                out.push(IfaceEvent::LeaseRejected { bssid });
                            }
                        }
                    }
                }
                L4::Icmp(msg) => {
                    for ev in self.ping.on_reply(now, msg) {
                        if let PingEvent::Up = ev {
                            let was_verifying = self.phase == IfacePhase::Verifying;
                            self.phase = IfacePhase::Connected;
                            if was_verifying && !self.fully_joined {
                                self.fully_joined = true;
                                let join_took = now.saturating_since(self.join_started);
                                log.record_join(now, join_took);
                                let bssid = self.bssid().unwrap_or(MacAddr::BROADCAST);
                                out.push(IfaceEvent::ConnectivityUp { bssid, join_took });
                                out.extend(self.open_flow(now));
                            }
                        }
                    }
                }
                L4::Tcp(seg) => {
                    let ack = self.tcp.as_mut().and_then(|tcp| tcp.on_segment(now, seg));
                    if let Some(ack) = ack {
                        out.push(IfaceEvent::Transmit(self.wrap_tcp(ack)));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_wire::{Channel, DhcpMessage, DhcpOp, IcmpMessage, Ssid, TcpFlags, TcpSegment};

    const AP: MacAddr = MacAddr([2, 0, 0, 0, 0, 100]);

    fn iface() -> (ClientIface, JoinLog) {
        (
            ClientIface::new(
                0,
                MacAddr::from_id(1),
                ClientMacConfig::reduced(),
                DhcpClientConfig::reduced(SimDuration::from_millis(200)),
                PingConfig::paper(0),
            ),
            JoinLog::new(),
        )
    }

    fn target() -> ApTarget {
        ApTarget {
            bssid: AP,
            ssid: Ssid::new("net"),
            channel: Channel::CH6,
        }
    }

    fn ap_frame(body: FrameBody) -> Frame {
        Frame {
            src: AP,
            dst: MacAddr::from_id(1),
            bssid: AP,
            body,
        }
    }

    fn ap_data(payload: L4) -> Frame {
        ap_frame(FrameBody::Data {
            packet: Ipv4Packet {
                src: Ipv4Addr::new(10, 0, 0, 1),
                dst: Ipv4Addr::new(10, 0, 0, 9),
                payload,
            },
            more_data: false,
        })
    }

    /// Drive the interface through association+dhcp+ping to Connected.
    fn connect(iface: &mut ClientIface, log: &mut JoinLog) -> Vec<IfaceEvent> {
        let t0 = SimTime::from_millis(0);
        iface.start_join(t0, target(), None);
        // Assoc handshake.
        let ev = iface.poll(t0, true, log);
        assert!(matches!(&ev[..], [IfaceEvent::Transmit(f)]
            if matches!(f.body, FrameBody::AuthRequest)));
        iface.on_frame(t0, &ap_frame(FrameBody::AuthResponse { ok: true }), log);
        let ev = iface.poll(t0, true, log);
        assert!(matches!(&ev[..], [IfaceEvent::Transmit(f)]
            if matches!(f.body, FrameBody::AssocRequest { .. })));
        iface.on_frame(
            t0,
            &ap_frame(FrameBody::AssocResponse { ok: true, aid: 1 }),
            log,
        );
        assert_eq!(iface.phase(), IfacePhase::Dhcp);
        // DHCP.
        let ev = iface.poll(t0, true, log);
        let xid = match &ev[..] {
            [IfaceEvent::Transmit(f)] => match &f.body {
                FrameBody::Data { packet, .. } => match &packet.payload {
                    L4::Dhcp(m) => {
                        assert_eq!(m.op, DhcpOp::Discover);
                        m.xid
                    }
                    _ => panic!(),
                },
                _ => panic!(),
            },
            other => panic!("{other:?}"),
        };
        let offer = DhcpMessage {
            op: DhcpOp::Offer,
            xid,
            chaddr: MacAddr::from_id(1),
            yiaddr: Ipv4Addr::new(10, 0, 0, 9),
            server_id: Ipv4Addr::new(10, 0, 0, 1),
            lease: SimDuration::from_secs(3600),
        };
        iface.on_frame(t0, &ap_data(L4::Dhcp(offer.clone())), log);
        iface.poll(t0, true, log); // sends REQUEST
        let ack = DhcpMessage {
            op: DhcpOp::Ack,
            ..offer
        };
        let t1 = SimTime::from_millis(500);
        let ev = iface.on_frame(t1, &ap_data(L4::Dhcp(ack)), log);
        assert!(ev.iter().any(|e| matches!(e, IfaceEvent::GotLease { .. })));
        assert_eq!(iface.phase(), IfacePhase::Verifying);
        // Ping.
        let ev = iface.poll(t1, true, log);
        let (id, seq) = ev
            .iter()
            .find_map(|e| match e {
                IfaceEvent::Transmit(f) => match &f.body {
                    FrameBody::Data { packet, .. } => match packet.payload {
                        L4::Icmp(IcmpMessage::EchoRequest { id, seq }) => Some((id, seq)),
                        _ => None,
                    },
                    _ => None,
                },
                _ => None,
            })
            .expect("ping sent");
        let t2 = SimTime::from_millis(550);
        let ev = iface.on_frame(
            t2,
            &ap_data(L4::Icmp(IcmpMessage::EchoReply { id, seq })),
            log,
        );
        assert!(ev
            .iter()
            .any(|e| matches!(e, IfaceEvent::ConnectivityUp { .. })));
        assert_eq!(iface.phase(), IfacePhase::Connected);
        ev
    }

    #[test]
    fn full_join_records_all_stages() {
        let (mut iface, mut log) = iface();
        let ev = connect(&mut iface, &mut log);
        assert_eq!(log.assoc.len(), 1);
        assert_eq!(log.dhcp.len(), 1);
        assert_eq!(log.join.len(), 1);
        assert!(iface.is_connected());
        // A TCP SYN goes out upon connectivity.
        assert!(ev.iter().any(|e| matches!(e, IfaceEvent::Transmit(f)
            if matches!(&f.body, FrameBody::Data { packet, .. }
                if matches!(&packet.payload, L4::Tcp(s) if s.flags.syn)))));
    }

    #[test]
    fn silent_path_falls_back_to_gateway_pings() {
        let (mut iface, mut log) = iface();
        let t0 = SimTime::ZERO;
        iface.start_join(t0, target(), None);
        iface.poll(t0, true, &mut log);
        iface.on_frame(
            t0,
            &ap_frame(FrameBody::AuthResponse { ok: true }),
            &mut log,
        );
        iface.poll(t0, true, &mut log);
        iface.on_frame(
            t0,
            &ap_frame(FrameBody::AssocResponse { ok: true, aid: 1 }),
            &mut log,
        );
        let ev = iface.poll(t0, true, &mut log);
        let xid = ev
            .iter()
            .find_map(|e| match e {
                IfaceEvent::Transmit(f) => match &f.body {
                    FrameBody::Data { packet, .. } => match &packet.payload {
                        L4::Dhcp(m) => Some(m.xid),
                        _ => None,
                    },
                    _ => None,
                },
                _ => None,
            })
            .expect("DISCOVER sent");
        let offer = DhcpMessage {
            op: DhcpOp::Offer,
            xid,
            chaddr: MacAddr::from_id(1),
            yiaddr: Ipv4Addr::new(10, 0, 0, 9),
            server_id: Ipv4Addr::new(10, 0, 0, 1),
            lease: SimDuration::from_secs(3600),
        };
        iface.on_frame(t0, &ap_data(L4::Dhcp(offer.clone())), &mut log);
        iface.poll(t0, true, &mut log); // REQUEST
        let ack = DhcpMessage {
            op: DhcpOp::Ack,
            ..offer
        };
        iface.on_frame(t0, &ap_data(L4::Dhcp(ack)), &mut log);
        assert_eq!(iface.phase(), IfacePhase::Verifying);
        // Never answer a single probe: after 10 silent expiries the
        // probes must redirect to the gateway (paper fallback, §3.2.2).
        let mut server_pings = 0;
        let mut gateway_pings = 0;
        for i in 0..=11u64 {
            let t = t0 + SimDuration::from_millis(i * 100);
            for ev in iface.poll(t, true, &mut log) {
                if let IfaceEvent::Transmit(f) = ev {
                    if let FrameBody::Data { packet, .. } = f.body {
                        if matches!(packet.payload, L4::Icmp(IcmpMessage::EchoRequest { .. })) {
                            if packet.dst == SERVER_IP {
                                server_pings += 1;
                                assert_eq!(
                                    gateway_pings, 0,
                                    "must not flap back to end-to-end probing"
                                );
                            } else {
                                assert_eq!(packet.dst, Ipv4Addr::new(10, 0, 0, 1));
                                gateway_pings += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(server_pings, 10);
        assert!(gateway_pings > 0);
    }

    #[test]
    fn dhcp_nak_on_cached_lease_reports_lease_rejected() {
        let (mut iface, mut log) = iface();
        let t0 = SimTime::ZERO;
        let cached = Lease {
            ip: Ipv4Addr::new(10, 0, 0, 9),
            server: Ipv4Addr::new(10, 0, 0, 1),
            expires: SimTime::from_secs(3600),
        };
        iface.start_join(t0, target(), Some(cached));
        iface.poll(t0, true, &mut log);
        iface.on_frame(
            t0,
            &ap_frame(FrameBody::AuthResponse { ok: true }),
            &mut log,
        );
        iface.poll(t0, true, &mut log);
        iface.on_frame(
            t0,
            &ap_frame(FrameBody::AssocResponse { ok: true, aid: 1 }),
            &mut log,
        );
        // Cached fast path: the REQUEST goes straight out.
        let ev = iface.poll(t0, true, &mut log);
        let xid = ev
            .iter()
            .find_map(|e| match e {
                IfaceEvent::Transmit(f) => match &f.body {
                    FrameBody::Data { packet, .. } => match &packet.payload {
                        L4::Dhcp(m) if m.op == DhcpOp::Request => Some(m.xid),
                        _ => None,
                    },
                    _ => None,
                },
                _ => None,
            })
            .expect("cached REQUEST sent");
        let nak = DhcpMessage {
            op: DhcpOp::Nak,
            xid,
            chaddr: MacAddr::from_id(1),
            yiaddr: Ipv4Addr::UNSPECIFIED,
            server_id: Ipv4Addr::new(10, 0, 0, 1),
            lease: SimDuration::ZERO,
        };
        let ev = iface.on_frame(t0, &ap_data(L4::Dhcp(nak)), &mut log);
        // The driver is told to evict the stale cache entry...
        assert!(ev
            .iter()
            .any(|e| matches!(e, IfaceEvent::LeaseRejected { bssid } if *bssid == AP)));
        // ...while the client itself falls back to a fresh DISCOVER.
        assert_eq!(iface.phase(), IfacePhase::Dhcp);
        let ev = iface.poll(t0, true, &mut log);
        assert!(ev.iter().any(|e| matches!(e, IfaceEvent::Transmit(f)
            if matches!(&f.body, FrameBody::Data { packet, .. }
                if matches!(&packet.payload, L4::Dhcp(m) if m.op == DhcpOp::Discover)))));
    }

    #[test]
    fn tcp_delivery_counts_bytes() {
        let (mut iface, mut log) = iface();
        connect(&mut iface, &mut log);
        let t = SimTime::from_secs(1);
        // Grab the receiver's iss by replying SYN-ACK to its SYN (iss is
        // deterministic: (index+1)*10_000 = 10_000).
        let synack = TcpSegment {
            src_port: SERVER_PORT,
            dst_port: 5_000,
            seq: 777,
            ack: 10_001,
            window: 65_535,
            flags: TcpFlags::SYN_ACK,
            payload_len: 0,
        };
        let ev = iface.on_frame(t, &ap_data(L4::Tcp(synack)), &mut log);
        assert!(!ev.is_empty());
        let data = TcpSegment {
            src_port: SERVER_PORT,
            dst_port: 5_000,
            seq: 778,
            ack: 0,
            window: 65_535,
            flags: TcpFlags::ACK,
            payload_len: 1448,
        };
        iface.on_frame(t, &ap_data(L4::Tcp(data)), &mut log);
        assert_eq!(iface.delivered_bytes(), 1448);
    }

    #[test]
    fn dead_pings_tear_down_and_keep_full_outcome() {
        let (mut iface, mut log) = iface();
        connect(&mut iface, &mut log);
        // Stop answering pings; drive time forward past 30 losses.
        let mut down = None;
        for i in 0..600 {
            let t = SimTime::from_millis(600 + i * 100);
            for ev in iface.poll(t, true, &mut log) {
                if let IfaceEvent::Down { outcome, .. } = ev {
                    down = Some(outcome);
                }
            }
            if down.is_some() {
                break;
            }
        }
        // outcome None: FullyJoined was already recorded at Up.
        assert_eq!(down, Some(None));
        assert_eq!(iface.phase(), IfacePhase::Idle);
    }

    #[test]
    fn assoc_failure_reports_failed_outcome() {
        let (mut iface, mut log) = iface();
        iface.start_join(SimTime::ZERO, target(), None);
        let mut down = None;
        for i in 0..20 {
            let t = SimTime::from_millis(i * 100);
            for ev in iface.poll(t, true, &mut log) {
                if let IfaceEvent::Down { outcome, .. } = ev {
                    down = Some(outcome);
                }
            }
            if down.is_some() {
                break;
            }
        }
        assert_eq!(down, Some(Some(JoinOutcome::Failed)));
        assert_eq!(log.join_failures, 1);
    }

    #[test]
    fn dhcp_failure_reports_associated_only() {
        let (mut iface, mut log) = iface();
        let t0 = SimTime::ZERO;
        iface.start_join(t0, target(), None);
        iface.poll(t0, true, &mut log);
        iface.on_frame(
            t0,
            &ap_frame(FrameBody::AuthResponse { ok: true }),
            &mut log,
        );
        iface.poll(t0, true, &mut log);
        iface.on_frame(
            t0,
            &ap_frame(FrameBody::AssocResponse { ok: true, aid: 1 }),
            &mut log,
        );
        // Never answer DHCP.
        let mut down = None;
        for i in 0..30 {
            let t = SimTime::from_millis(i * 200);
            for ev in iface.poll(t, true, &mut log) {
                if let IfaceEvent::Down { outcome, .. } = ev {
                    down = Some(outcome);
                }
            }
            if down.is_some() {
                break;
            }
        }
        assert_eq!(down, Some(Some(JoinOutcome::AssociatedOnly)));
        assert_eq!(log.dhcp_failures, 1);
    }

    #[test]
    fn cached_lease_skips_discover() {
        let (mut iface, mut log) = iface();
        let t0 = SimTime::ZERO;
        let cached = Lease {
            ip: Ipv4Addr::new(10, 0, 0, 9),
            server: Ipv4Addr::new(10, 0, 0, 1),
            expires: SimTime::from_secs(1000),
        };
        iface.start_join(t0, target(), Some(cached));
        iface.poll(t0, true, &mut log);
        iface.on_frame(
            t0,
            &ap_frame(FrameBody::AuthResponse { ok: true }),
            &mut log,
        );
        iface.poll(t0, true, &mut log);
        iface.on_frame(
            t0,
            &ap_frame(FrameBody::AssocResponse { ok: true, aid: 1 }),
            &mut log,
        );
        // First DHCP transmission is a REQUEST, not a DISCOVER.
        let ev = iface.poll(t0, true, &mut log);
        let op = ev
            .iter()
            .find_map(|e| match e {
                IfaceEvent::Transmit(f) => match &f.body {
                    FrameBody::Data { packet, .. } => match &packet.payload {
                        L4::Dhcp(m) => Some(m.op),
                        _ => None,
                    },
                    _ => None,
                },
                _ => None,
            })
            .unwrap();
        assert_eq!(op, DhcpOp::Request);
    }

    #[test]
    fn teardown_sends_deauth_when_associated() {
        let (mut iface, mut log) = iface();
        connect(&mut iface, &mut log);
        let ev = iface.teardown(SimTime::from_secs(2));
        assert!(ev.iter().any(|e| matches!(e, IfaceEvent::Transmit(f)
            if matches!(f.body, FrameBody::Deauth { .. }))));
        assert!(ev
            .iter()
            .any(|e| matches!(e, IfaceEvent::Down { outcome: None, .. })));
        assert!(!iface.is_busy());
    }

    #[test]
    fn delivered_bytes_survive_reconnects() {
        let (mut iface, mut log) = iface();
        connect(&mut iface, &mut log);
        let synack = TcpSegment {
            src_port: SERVER_PORT,
            dst_port: 5_000,
            seq: 0,
            ack: 10_001,
            window: 65_535,
            flags: TcpFlags::SYN_ACK,
            payload_len: 0,
        };
        let t = SimTime::from_secs(1);
        iface.on_frame(t, &ap_data(L4::Tcp(synack)), &mut log);
        let data = TcpSegment {
            src_port: SERVER_PORT,
            dst_port: 5_000,
            seq: 1,
            ack: 0,
            window: 65_535,
            flags: TcpFlags::ACK,
            payload_len: 500,
        };
        iface.on_frame(t, &ap_data(L4::Tcp(data)), &mut log);
        assert_eq!(iface.delivered_bytes(), 500);
        iface.teardown(SimTime::from_secs(2));
        assert_eq!(iface.delivered_bytes(), 500, "bytes persist after teardown");
    }
}
