//! The Spider driver: channel scheduling, PSM choreography, opportunistic
//! scanning and link management glued over the virtual interfaces.
//!
//! Implements [`ClientSystem`] so the simulation world can drive it
//! exactly like the baseline drivers.

use crate::config::SpiderConfig;
use crate::iface::{ClientIface, IfaceEvent};
use crate::schedule::ChannelSchedule;
use crate::utility::{JoinOutcome, UtilityTable};
use spider_mac80211::{ApTarget, ClientObservation, ClientSystem, DriverAction, JoinLog, RxFrame};
use spider_netstack::{LeaseCache, PingConfig};
use spider_simcore::{SimDuration, SimTime};
use spider_wire::{Channel, Frame, FrameBody, MacAddr};

/// Housekeeping (AP selection) cadence.
const HOUSEKEEPING: SimDuration = SimDuration::from_millis(100);

/// The Spider client system.
// Clone backs `ClientSystem::clone_boxed`: every field — interfaces,
// utility table, lease cache, hot caches — is part of the
// world snapshot and must copy deeply (DESIGN.md §13).
#[derive(Clone)]
pub struct SpiderDriver {
    cfg: SpiderConfig,
    ifaces: Vec<ClientIface>,
    utility: UtilityTable,
    lease_cache: LeaseCache,
    log: JoinLog,
    /// Tuned channel; `None` while a switch is in flight.
    current: Option<Channel>,
    switching_to: Option<Channel>,
    next_housekeeping: SimTime,
    /// Channels AP selection may pick from: `candidate_channels`, else
    /// the schedule's. Recomputed whenever the schedule changes, so the
    /// hot `can_use_channel` and `select_aps` paths allocate nothing.
    channels: Vec<Channel>,
    /// Channel switches requested (observability; the radio itself also
    /// counts).
    pub switches_requested: u64,
    /// Interface MAC addresses packed contiguously: frame routing scans
    /// this 42-byte strip instead of striding over the full
    /// [`ClientIface`] structs (one cache line vs seven).
    iface_addrs: Vec<MacAddr>,
    /// Per-interface `next_wakeup`, refreshed by [`Self::refresh_hot`]
    /// at the end of every mutating entry point. Lets `poll_into` skip
    /// interfaces with nothing due and `next_wakeup` answer without
    /// walking the interface structs.
    iface_wakeups: Vec<SimTime>,
    /// Per-interface delivered-bytes snapshots backing `hot_delivered`.
    iface_delivered: Vec<u64>,
    /// Per-interface connectivity snapshots backing `hot_connected`.
    iface_connected: Vec<bool>,
    /// Cached sum of per-interface delivered bytes (see `iface_wakeups`).
    hot_delivered: u64,
    /// Cached any-interface-connected flag (see `iface_wakeups`).
    hot_connected: bool,
    /// Set by paths that may touch interfaces other than the one being
    /// driven (IP-collision teardown, AP selection); tells the entry
    /// point to do a full [`Self::refresh_hot`] instead of the
    /// single-interface refresh.
    hot_dirty_all: bool,
}

impl SpiderDriver {
    /// Create a driver; the radio is assumed initially tuned to the first
    /// scheduled channel.
    pub fn new(cfg: SpiderConfig) -> SpiderDriver {
        let ifaces: Vec<ClientIface> = (0..cfg.num_ifaces)
            .map(|i| {
                ClientIface::new(
                    i,
                    MacAddr::from_id(cfg.client_id * 1_000 + i as u64 + 1),
                    cfg.mac.clone(),
                    cfg.dhcp.clone(),
                    PingConfig::paper(i as u16),
                )
            })
            .collect();
        let utility = UtilityTable::new(cfg.utility.clone());
        let current = Some(cfg.schedule.channel_at(SimTime::ZERO));
        let iface_addrs = ifaces.iter().map(|i: &ClientIface| i.addr).collect();
        let iface_wakeups = ifaces
            .iter()
            .map(|i: &ClientIface| i.next_wakeup())
            .collect();
        let n = cfg.num_ifaces;
        let channels = Self::selectable_channels(&cfg);
        SpiderDriver {
            cfg,
            ifaces,
            utility,
            lease_cache: LeaseCache::new(),
            log: JoinLog::new(),
            current,
            switching_to: None,
            next_housekeeping: SimTime::ZERO,
            channels,
            switches_requested: 0,
            iface_addrs,
            iface_wakeups,
            iface_delivered: vec![0; n],
            iface_connected: vec![false; n],
            hot_delivered: 0,
            hot_connected: false,
            hot_dirty_all: false,
        }
    }

    /// Recompute the packed hot-state caches in a single pass over the
    /// interfaces. Must run at the end of every entry point that can
    /// mutate interface state ([`ClientSystem::poll_into`],
    /// [`ClientSystem::on_frame_into`] when a frame was routed,
    /// [`ClientSystem::on_switch_complete_into`]); the caches are what
    /// `next_wakeup`/`observe` and the due-check in `poll_into` read,
    /// replacing three separate walks per delivered event with one.
    fn refresh_hot(&mut self) {
        let mut delivered = 0u64;
        let mut connected = false;
        for (idx, iface) in self.ifaces.iter().enumerate() {
            self.iface_wakeups[idx] = iface.next_wakeup();
            let d = iface.delivered_bytes();
            let c = iface.is_connected();
            self.iface_delivered[idx] = d;
            self.iface_connected[idx] = c;
            delivered += d;
            connected |= c;
        }
        self.hot_delivered = delivered;
        self.hot_connected = connected;
        self.hot_dirty_all = false;
    }

    /// Single-interface variant of [`Self::refresh_hot`] for the common
    /// case where only interface `idx` was driven. Falls back to the
    /// full pass when another path flagged a wider mutation.
    fn refresh_one(&mut self, idx: usize) {
        if self.hot_dirty_all {
            self.refresh_hot();
            return;
        }
        let iface = &self.ifaces[idx];
        self.iface_wakeups[idx] = iface.next_wakeup();
        let d = iface.delivered_bytes();
        let c = iface.is_connected();
        self.hot_delivered = self.hot_delivered - self.iface_delivered[idx] + d;
        self.iface_delivered[idx] = d;
        if c != self.iface_connected[idx] {
            self.iface_connected[idx] = c;
            self.hot_connected = self.iface_connected.iter().any(|&b| b);
        }
    }

    /// The channel the driver believes it is tuned to.
    pub fn current_channel(&self) -> Option<Channel> {
        self.current
    }

    /// `iwconfig`-style status dump: one line per virtual interface —
    /// the paper's Design Choice 3 exposes each connection as a separate
    /// Linux interface precisely so ordinary tooling can inspect it.
    pub fn ifconfig(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for iface in &self.ifaces {
            let _ = write!(out, "ath{}: ", iface.index);
            match iface.target() {
                None => {
                    let _ = writeln!(out, "unassociated");
                }
                Some(t) => {
                    let ip = iface
                        .current_lease()
                        .map(|l| l.ip.to_string())
                        .unwrap_or_else(|| "-".into());
                    let _ = writeln!(
                        out,
                        "{} bssid {} {} ip {} [{:?}]{}",
                        t.ssid,
                        t.bssid,
                        t.channel,
                        ip,
                        iface.phase(),
                        if iface.is_connected() { " UP" } else { "" },
                    );
                }
            }
        }
        out
    }

    /// The utility table (for experiment introspection).
    pub fn utility_table(&self) -> &UtilityTable {
        &self.utility
    }

    /// The lease cache (introspection).
    pub fn lease_cache(&self) -> &LeaseCache {
        &self.lease_cache
    }

    /// Total gateway resolutions across all interfaces — one per lease
    /// bind (see [`spider_netstack::GatewayArp`]). A rejoin after an
    /// ARP-poison teardown shows up as this advancing past the first
    /// join: recovery re-resolved the gateway.
    pub fn gateway_resolutions(&self) -> u64 {
        self.ifaces
            .iter()
            .map(|i| i.gateway_arp().resolutions())
            .sum()
    }

    /// Interfaces currently associated at the link layer.
    pub fn associated_count(&self) -> usize {
        self.ifaces.iter().filter(|i| i.is_associated()).count()
    }

    /// Replace the channel schedule at runtime ("the link management
    /// module provides support for dynamically changing the schedule",
    /// §3.2.2). Used by the adaptive extension.
    pub fn set_schedule(&mut self, schedule: ChannelSchedule) {
        self.cfg.schedule = schedule;
        self.channels = Self::selectable_channels(&self.cfg);
    }

    fn selectable_channels(cfg: &SpiderConfig) -> Vec<Channel> {
        cfg.candidate_channels
            .clone()
            .unwrap_or_else(|| cfg.schedule.channels())
    }

    /// The active schedule.
    pub fn schedule(&self) -> &ChannelSchedule {
        &self.cfg.schedule
    }

    fn on_channel(&self, iface: &ClientIface) -> bool {
        match (self.current, iface.target()) {
            (Some(cur), Some(t)) => cur == t.channel,
            _ => false,
        }
    }

    /// Consume interface events into driver actions + bookkeeping.
    /// `ap_at_fault` is false for a driver-initiated teardown (IP
    /// collision): its `Down` earns the AP no backoff strike.
    fn absorb(
        &mut self,
        now: SimTime,
        iface_idx: usize,
        events: Vec<IfaceEvent>,
        ap_at_fault: bool,
        actions: &mut Vec<DriverAction>,
    ) {
        for ev in events {
            match ev {
                IfaceEvent::Transmit(frame) => actions.push(DriverAction::Transmit {
                    iface: iface_idx,
                    frame,
                }),
                IfaceEvent::GotLease { bssid, lease, .. } => {
                    self.lease_cache.insert(bssid, lease);
                    // IP-collision rule (§3.2.2): "if the same IP address
                    // is assigned to different virtual interfaces by
                    // different APs, we only use the most recently
                    // assigned interface" — tear the older one down.
                    let colliding: Vec<usize> = self
                        .ifaces
                        .iter()
                        .enumerate()
                        .filter(|(j, other)| {
                            *j != iface_idx && other.current_lease().map(|l| l.ip) == Some(lease.ip)
                        })
                        .map(|(j, _)| j)
                        .collect();
                    for j in colliding {
                        // Another interface mutates here: the entry
                        // point's single-interface cache refresh is no
                        // longer sufficient.
                        self.hot_dirty_all = true;
                        let evs = self.ifaces[j].teardown(now);
                        self.absorb(now, j, evs, false, actions);
                    }
                }
                IfaceEvent::ConnectivityUp { bssid, .. } => {
                    self.utility
                        .record_outcome(now, bssid, JoinOutcome::FullyJoined);
                    self.utility.forgive(bssid);
                }
                IfaceEvent::Down {
                    bssid,
                    outcome,
                    portal,
                } => {
                    if let Some(outcome) = outcome {
                        self.utility.record_outcome(now, bssid, outcome);
                    }
                    // A dead or failed AP is held off with exponential
                    // backoff so selection doesn't loop on it while it is
                    // still beaconing attractively; a captive portal goes
                    // straight to the ceiling.
                    if ap_at_fault {
                        self.utility.record_down(now, bssid, portal);
                    }
                    // Re-scan right away: a broadcast probe solicits
                    // responses from every AP on the current channel, so
                    // a replacement is found faster than waiting out the
                    // beacon interval.
                    if self.current.is_some() {
                        let src = self.ifaces[iface_idx].addr;
                        actions.push(DriverAction::Transmit {
                            iface: iface_idx,
                            frame: Frame {
                                src,
                                dst: MacAddr::BROADCAST,
                                bssid: MacAddr::BROADCAST,
                                body: FrameBody::ProbeRequest { ssid: None },
                            },
                        });
                    }
                    // Try to rebind immediately.
                    self.next_housekeeping = now;
                }
                IfaceEvent::LeaseRejected { bssid } => {
                    // The server NAKed the cached lease: it is stale.
                    self.lease_cache.invalidate(bssid);
                }
            }
        }
    }

    /// Assign idle interfaces to the best candidate APs.
    fn select_aps(&mut self, now: SimTime, actions: &mut Vec<DriverAction>) {
        loop {
            let busy = self.ifaces.iter().filter(|i| i.is_busy()).count();
            if busy >= self.cfg.max_concurrent {
                return;
            }
            let now_ready = |i: &ClientIface| !i.is_busy() && i.dhcp_ready(now);
            let Some(idle_idx) = self.ifaces.iter().position(now_ready) else {
                return;
            };
            let in_use: Vec<MacAddr> = self.ifaces.iter().filter_map(|i| i.bssid()).collect();
            let Some((bssid, rec)) = self.utility.best_candidate(now, &self.channels, &in_use)
            else {
                return;
            };
            let target = ApTarget {
                bssid,
                ssid: rec.ssid.clone(),
                channel: rec.channel,
            };
            let cached = self.lease_cache.lookup(now, bssid);
            self.hot_dirty_all = true;
            self.ifaces[idle_idx].start_join(now, target, cached);
            // Give it an immediate poll so the first frame goes out now.
            let on_ch = self.on_channel(&self.ifaces[idle_idx]);
            let mut log = std::mem::take(&mut self.log);
            let evs = self.ifaces[idle_idx].poll(now, on_ch, &mut log);
            self.log = log;
            self.absorb(now, idle_idx, evs, true, actions);
        }
    }

    /// PSM choreography + switch initiation when the schedule says so.
    fn drive_schedule(&mut self, now: SimTime, actions: &mut Vec<DriverAction>) {
        if self.switching_to.is_some() {
            return; // mid-switch
        }
        let desired = self.cfg.schedule.channel_at(now);
        if self.current == Some(desired) {
            return;
        }
        // Park every associated interface on the old channel.
        if let Some(cur) = self.current {
            for (idx, iface) in self.ifaces.iter().enumerate() {
                if iface.is_associated() && iface.target().map(|t| t.channel) == Some(cur) {
                    if let Some(bssid) = iface.bssid() {
                        actions.push(DriverAction::Transmit {
                            iface: idx,
                            frame: Frame {
                                src: iface.addr,
                                dst: bssid,
                                bssid,
                                body: FrameBody::Null { power_save: true },
                            },
                        });
                    }
                }
            }
        }
        self.switching_to = Some(desired);
        self.current = None;
        self.switches_requested += 1;
        actions.push(DriverAction::SwitchChannel(desired));
    }
}

impl ClientSystem for SpiderDriver {
    fn label(&self) -> String {
        let sched = &self.cfg.schedule;
        let chans: Vec<String> = sched
            .slots()
            .iter()
            .map(|(c, f)| format!("{c}:{:.0}%", f * 100.0))
            .collect();
        format!(
            "Spider[{} ifaces, max {} APs, {}]",
            self.cfg.num_ifaces,
            self.cfg.max_concurrent,
            chans.join("/")
        )
    }

    fn on_frame_into(&mut self, now: SimTime, rx: &RxFrame<'_>, actions: &mut Vec<DriverAction>) {
        // Opportunistic scanning: absorb any beacon / probe response we
        // overhear, whether or not it was addressed to us.
        match &rx.frame.body {
            FrameBody::Beacon { ssid, channel, .. }
            | FrameBody::ProbeResponse { ssid, channel } => {
                if let Some(rssi) = rx.rssi_dbm {
                    self.utility
                        .observe(now, rx.frame.src, ssid, *channel, rssi);
                }
            }
            _ => {}
        }
        // Route to the owning interface by destination address (the
        // packed address strip, not the interface structs). Broadcast
        // frames never match an interface address, so they go straight
        // to the DHCP-chaddr fallback — beacons (the bulk of the event
        // stream) skip the scan entirely.
        let idx = if rx.frame.dst == MacAddr::BROADCAST {
            // Broadcast DHCP responses address the chaddr inside.
            if let FrameBody::Data { packet, .. } = &rx.frame.body {
                if let spider_wire::ip::L4::Dhcp(msg) = &packet.payload {
                    self.iface_addrs.iter().position(|a| *a == msg.chaddr)
                } else {
                    None
                }
            } else {
                None
            }
        } else {
            self.iface_addrs.iter().position(|a| rx.frame.dst == *a)
        };
        if let Some(idx) = idx {
            let mut log = std::mem::take(&mut self.log);
            let evs = self.ifaces[idx].on_frame(now, rx.frame, &mut log);
            self.log = log;
            self.absorb(now, idx, evs, true, actions);
            // Flush any transmissions unlocked by the state change (e.g.
            // the assoc request right after an auth response). Steady
            // connected interfaces skip this: their polls are
            // deadline-driven and the next wakeup reproduces the work.
            if self.ifaces[idx].needs_immediate_poll(now) {
                let on_ch = self.on_channel(&self.ifaces[idx]);
                let mut log = std::mem::take(&mut self.log);
                let evs2 = self.ifaces[idx].poll(now, on_ch, &mut log);
                self.log = log;
                self.absorb(now, idx, evs2, true, actions);
            }
            self.refresh_one(idx);
        }
    }

    fn on_switch_complete_into(
        &mut self,
        now: SimTime,
        ch: Channel,
        actions: &mut Vec<DriverAction>,
    ) {
        self.current = Some(ch);
        self.switching_to = None;
        // Wake every associated interface on the new channel (flushes the
        // AP-side PSM buffers).
        for (idx, iface) in self.ifaces.iter().enumerate() {
            if iface.is_associated() && iface.target().map(|t| t.channel) == Some(ch) {
                if let Some(bssid) = iface.bssid() {
                    actions.push(DriverAction::Transmit {
                        iface: idx,
                        frame: Frame {
                            src: iface.addr,
                            dst: bssid,
                            bssid,
                            body: FrameBody::Null { power_save: false },
                        },
                    });
                }
            }
        }
        // Immediately drive interfaces that were waiting for this channel.
        for idx in 0..self.ifaces.len() {
            let on_ch = self.on_channel(&self.ifaces[idx]);
            if on_ch {
                let mut log = std::mem::take(&mut self.log);
                let evs = self.ifaces[idx].poll(now, true, &mut log);
                self.log = log;
                self.absorb(now, idx, evs, true, actions);
            }
        }
        self.refresh_hot();
    }

    fn poll_into(&mut self, now: SimTime, actions: &mut Vec<DriverAction>) {
        self.drive_schedule(now, actions);
        for idx in 0..self.ifaces.len() {
            // Interface polls are deadline-driven: one with nothing due
            // is a no-op, so skip it straight off the cached wakeup
            // strip. Phase transitions and joins happen in `on_frame` /
            // `select_aps`, which refresh the cache themselves.
            if self.iface_wakeups[idx] > now {
                continue;
            }
            let on_ch = self.on_channel(&self.ifaces[idx]);
            let mut log = std::mem::take(&mut self.log);
            let evs = self.ifaces[idx].poll(now, on_ch, &mut log);
            self.log = log;
            self.absorb(now, idx, evs, true, actions);
            self.refresh_one(idx);
        }
        if now >= self.next_housekeeping {
            self.next_housekeeping = now + HOUSEKEEPING;
            self.utility.expire(now);
            self.lease_cache.evict_expired(now);
            self.select_aps(now, actions);
        }
        if self.hot_dirty_all {
            self.refresh_hot();
        }
    }

    fn next_wakeup(&self, now: SimTime) -> SimTime {
        let mut t = self.next_housekeeping;
        if !self.cfg.schedule.is_single_channel() && self.switching_to.is_none() {
            t = t.min(self.cfg.schedule.next_boundary(now));
        }
        // Per-interface deadlines come off the packed cache (kept fresh
        // by `refresh_hot` at the end of every mutating entry point)
        // rather than a walk over the interface structs.
        for &w in &self.iface_wakeups {
            t = t.min(w);
        }
        t.max(now)
    }

    fn join_log(&self) -> &JoinLog {
        &self.log
    }

    fn is_connected(&self) -> bool {
        self.ifaces.iter().any(|i| i.is_connected())
    }

    fn delivered_bytes(&self) -> u64 {
        self.ifaces.iter().map(|i| i.delivered_bytes()).sum()
    }

    fn observe(&self, now: SimTime) -> ClientObservation {
        // The world calls this once per delivered event; everything it
        // needs is already in the hot cache, so the former three walks
        // over the interface structs collapse to a handful of loads.
        ClientObservation {
            delivered_bytes: self.hot_delivered,
            connected: self.hot_connected,
            next_wakeup: self.next_wakeup(now),
        }
    }

    fn associated_interfaces(&self) -> usize {
        self.associated_count()
    }

    fn initial_channel(&self) -> Channel {
        self.cfg.schedule.channel_at(SimTime::ZERO)
    }

    fn can_use_channel(&self, ch: Channel) -> bool {
        self.channels.contains(&ch)
    }

    fn clone_boxed(&self) -> Box<dyn ClientSystem + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OperationMode;
    use spider_mac80211::RxBuf;
    use spider_wire::Ssid;

    fn driver(mode: OperationMode) -> SpiderDriver {
        SpiderDriver::new(SpiderConfig::for_mode(mode, 1))
    }

    fn beacon(ap_id: u64, ch: Channel) -> RxBuf {
        RxBuf {
            frame: Frame {
                src: MacAddr::from_id(ap_id),
                dst: MacAddr::BROADCAST,
                bssid: MacAddr::from_id(ap_id),
                body: FrameBody::Beacon {
                    ssid: Ssid::new(format!("ap{ap_id}")),
                    channel: ch,
                    interval: SimDuration::from_micros(102_400),
                },
            },
            channel: ch,
            rssi_dbm: Some(-60.0),
        }
    }

    #[test]
    fn lease_rejected_evicts_cached_lease() {
        let mut d = driver(OperationMode::SingleChannelMultiAp(Channel::CH6));
        let bssid = MacAddr::from_id(7);
        d.lease_cache.insert(
            bssid,
            spider_netstack::Lease {
                ip: spider_wire::Ipv4Addr::new(10, 0, 0, 9),
                server: spider_wire::Ipv4Addr::new(10, 0, 0, 1),
                expires: SimTime::from_secs(1_000),
            },
        );
        let mut actions = Vec::new();
        d.absorb(
            SimTime::ZERO,
            0,
            vec![IfaceEvent::LeaseRejected { bssid }],
            true,
            &mut actions,
        );
        assert!(d.lease_cache.is_empty(), "NAKed lease must be evicted");
    }

    #[test]
    fn downed_ap_is_held_off_until_backoff_expires() {
        let mut d = driver(OperationMode::SingleChannelMultiAp(Channel::CH6));
        let bssid = MacAddr::from_id(7);
        d.on_frame(SimTime::ZERO, &beacon(7, Channel::CH6).rx());
        let mut actions = Vec::new();
        d.absorb(
            SimTime::from_millis(10),
            0,
            vec![IfaceEvent::Down {
                bssid,
                outcome: Some(JoinOutcome::Failed),
                portal: false,
            }],
            true,
            &mut actions,
        );
        let until = d.utility.get(bssid).expect("observed").held_until;
        assert!(SimTime::from_millis(11) < until);
        // While blocked, housekeeping must not re-bind to the AP even
        // though it is the only (and attractively loud) candidate.
        d.poll(SimTime::from_millis(20));
        assert!(
            d.ifaces.iter().all(|i| !i.is_busy()),
            "driver re-joined a held-off AP"
        );
        // Once the backoff passes, the AP is fair game again.
        d.poll(until + SimDuration::from_millis(1));
        assert!(
            d.ifaces.iter().any(|i| i.bssid() == Some(bssid)),
            "driver should retry after the backoff expires"
        );
    }

    #[test]
    fn strikes_are_forgotten_on_the_first_tick_a_minute_after_the_hold_off() {
        let mut d = driver(OperationMode::SingleChannelMultiAp(Channel::CH6));
        let bssid = MacAddr::from_id(7);
        d.on_frame(SimTime::ZERO, &beacon(7, Channel::CH6).rx());
        let mut actions = Vec::new();
        // The AP was last heard 10 s before its `Down`, past the 4 s
        // freshness, so it is never re-picked and only housekeeping can
        // touch its record. The `Down` pulls the housekeeping tick to
        // its own instant, so the tick grid after it is `10 s + k·100 ms`.
        d.absorb(
            SimTime::from_secs(10),
            0,
            vec![IfaceEvent::Down {
                bssid,
                outcome: Some(JoinOutcome::Failed),
                portal: false,
            }],
            true,
            &mut actions,
        );
        let forget =
            d.utility.get(bssid).expect("observed").held_until + SimDuration::from_secs(60);
        loop {
            let now = d.next_housekeeping;
            d.poll(now);
            let strikes = d.utility.get(bssid).expect("within the horizon").strikes;
            if now < forget {
                assert_eq!(strikes, 1, "strike forgotten early at {now}");
            } else {
                assert_eq!(strikes, 0, "strike kept past {forget} at {now}");
                assert!(now < forget + HOUSEKEEPING, "tick grid skipped");
                break;
            }
        }
    }

    #[test]
    fn down_triggers_immediate_rescan_probe() {
        let mut d = driver(OperationMode::SingleChannelMultiAp(Channel::CH6));
        let mut actions = Vec::new();
        d.absorb(
            SimTime::from_millis(10),
            0,
            vec![IfaceEvent::Down {
                bssid: MacAddr::from_id(7),
                outcome: Some(JoinOutcome::Failed),
                portal: false,
            }],
            true,
            &mut actions,
        );
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, DriverAction::Transmit { frame, .. }
                if matches!(frame.body, FrameBody::ProbeRequest { .. }))),
            "a dead link should trigger an immediate broadcast probe"
        );
    }

    #[test]
    fn single_channel_mode_never_switches() {
        let mut d = driver(OperationMode::SingleChannelMultiAp(Channel::CH1));
        for i in 0..100 {
            let actions = d.poll(SimTime::from_millis(i * 50));
            assert!(actions
                .iter()
                .all(|a| !matches!(a, DriverAction::SwitchChannel(_))));
        }
        assert_eq!(d.switches_requested, 0);
        assert_eq!(d.current_channel(), Some(Channel::CH1));
    }

    #[test]
    fn multi_channel_mode_switches_at_boundaries() {
        let mut d = driver(OperationMode::MultiChannelMultiAp {
            period: SimDuration::from_millis(600),
        });
        assert_eq!(d.current_channel(), Some(Channel::CH1));
        // At t=200ms the schedule moves to ch6.
        let actions = d.poll(SimTime::from_millis(200));
        assert!(actions
            .iter()
            .any(|a| matches!(a, DriverAction::SwitchChannel(c) if *c == Channel::CH6)));
        assert_eq!(d.current_channel(), None, "deaf mid-switch");
        let _ = d.on_switch_complete(SimTime::from_millis(205), Channel::CH6);
        assert_eq!(d.current_channel(), Some(Channel::CH6));
    }

    #[test]
    fn beacon_triggers_join_on_scheduled_channel() {
        let mut d = driver(OperationMode::SingleChannelMultiAp(Channel::CH1));
        let t = SimTime::from_millis(10);
        let actions = d.on_frame(t, &beacon(100, Channel::CH1).rx());
        // Selection happens on the housekeeping tick.
        let actions2 = d.poll(SimTime::from_millis(100));
        let all: Vec<&DriverAction> = actions.iter().chain(actions2.iter()).collect();
        assert!(
            all.iter()
                .any(|a| matches!(a, DriverAction::Transmit { frame, .. }
                if matches!(frame.body, FrameBody::AuthRequest))),
            "driver should start joining the advertised AP: {all:?}"
        );
    }

    #[test]
    fn off_schedule_channel_aps_are_ignored() {
        let mut d = driver(OperationMode::SingleChannelMultiAp(Channel::CH1));
        d.on_frame(SimTime::from_millis(10), &beacon(100, Channel::CH11).rx());
        let actions = d.poll(SimTime::from_millis(100));
        assert!(actions
            .iter()
            .all(|a| !matches!(a, DriverAction::Transmit { frame, .. }
                if matches!(frame.body, FrameBody::AuthRequest))));
    }

    #[test]
    fn single_ap_mode_joins_at_most_one() {
        let mut d = driver(OperationMode::SingleChannelSingleAp(Channel::CH1));
        d.on_frame(SimTime::from_millis(10), &beacon(100, Channel::CH1).rx());
        d.on_frame(SimTime::from_millis(11), &beacon(101, Channel::CH1).rx());
        let actions = d.poll(SimTime::from_millis(100));
        let auth_targets: Vec<MacAddr> = actions
            .iter()
            .filter_map(|a| match a {
                DriverAction::Transmit { frame, .. }
                    if matches!(frame.body, FrameBody::AuthRequest) =>
                {
                    Some(frame.dst)
                }
                _ => None,
            })
            .collect();
        assert_eq!(auth_targets.len(), 1);
    }

    #[test]
    fn multi_ap_mode_joins_several() {
        let mut d = driver(OperationMode::SingleChannelMultiAp(Channel::CH1));
        for ap in 0..4 {
            d.on_frame(
                SimTime::from_millis(10 + ap),
                &beacon(100 + ap, Channel::CH1).rx(),
            );
        }
        let actions = d.poll(SimTime::from_millis(100));
        let auth_targets: std::collections::BTreeSet<MacAddr> = actions
            .iter()
            .filter_map(|a| match a {
                DriverAction::Transmit { frame, .. }
                    if matches!(frame.body, FrameBody::AuthRequest) =>
                {
                    Some(frame.dst)
                }
                _ => None,
            })
            .collect();
        assert_eq!(auth_targets.len(), 4, "one join per distinct AP");
    }

    #[test]
    fn psm_null_sent_before_switch() {
        let mut d = driver(OperationMode::MultiChannelMultiAp {
            period: SimDuration::from_millis(600),
        });
        d.on_frame(SimTime::from_millis(10), &beacon(100, Channel::CH1).rx());
        let actions = d.poll(SimTime::from_millis(50));
        // The join begins (auth request).
        assert!(actions
            .iter()
            .any(|a| matches!(a, DriverAction::Transmit { frame, .. }
            if matches!(frame.body, FrameBody::AuthRequest))));
        // Answer auth + assoc so the iface is associated.
        let auth_ok = RxBuf {
            frame: Frame {
                src: MacAddr::from_id(100),
                dst: MacAddr::from_id(1_001),
                bssid: MacAddr::from_id(100),
                body: FrameBody::AuthResponse { ok: true },
            },
            channel: Channel::CH1,
            rssi_dbm: Some(-60.0),
        };
        d.on_frame(SimTime::from_millis(60), &auth_ok.rx());
        let assoc_ok = RxBuf {
            frame: Frame {
                src: MacAddr::from_id(100),
                dst: MacAddr::from_id(1_001),
                bssid: MacAddr::from_id(100),
                body: FrameBody::AssocResponse { ok: true, aid: 1 },
            },
            channel: Channel::CH1,
            rssi_dbm: Some(-60.0),
        };
        d.on_frame(SimTime::from_millis(70), &assoc_ok.rx());
        assert_eq!(d.associated_count(), 1);
        // At the boundary the driver parks the AP before switching.
        let actions = d.poll(SimTime::from_millis(200));
        let psm_then_switch = actions.iter().any(|a| {
            matches!(a, DriverAction::Transmit { frame, .. }
                if matches!(frame.body, FrameBody::Null { power_save: true }))
        }) && actions
            .iter()
            .any(|a| matches!(a, DriverAction::SwitchChannel(_)));
        assert!(psm_then_switch, "{actions:?}");
        // On return to ch1 (next period) the driver wakes the AP.
        d.on_switch_complete(SimTime::from_millis(205), Channel::CH6);
        d.poll(SimTime::from_millis(400)); // -> switch to ch11
        d.on_switch_complete(SimTime::from_millis(405), Channel::CH11);
        d.poll(SimTime::from_millis(600)); // -> switch to ch1
        let actions = d.on_switch_complete(SimTime::from_millis(605), Channel::CH1);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, DriverAction::Transmit { frame, .. }
                if matches!(frame.body, FrameBody::Null { power_save: false }))),
            "{actions:?}"
        );
    }

    #[test]
    fn wakeup_is_never_in_the_past_and_bounded_by_housekeeping() {
        let d = driver(OperationMode::SingleChannelMultiAp(Channel::CH6));
        let now = SimTime::from_millis(37);
        let wk = d.next_wakeup(now);
        assert!(wk >= now);
        assert!(wk <= now + SimDuration::from_millis(100));
    }

    #[test]
    fn label_reflects_mode() {
        let d = driver(OperationMode::SingleChannelMultiAp(Channel::CH1));
        assert!(d.label().contains("ch1"));
        assert!(d.label().contains("max 7"));
    }
}

#[cfg(test)]
mod ifconfig_tests {
    use super::*;
    use crate::config::OperationMode;

    #[test]
    fn ifconfig_lists_every_interface() {
        let d = SpiderDriver::new(SpiderConfig::for_mode(
            OperationMode::SingleChannelMultiAp(Channel::CH1),
            1,
        ));
        let dump = d.ifconfig();
        assert_eq!(dump.lines().count(), 7);
        assert!(dump.lines().all(|l| l.contains("unassociated")));
        assert!(dump.starts_with("ath0:"));
    }
}
