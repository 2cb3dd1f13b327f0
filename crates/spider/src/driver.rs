//! The Spider driver: channel scheduling, PSM choreography, opportunistic
//! scanning and link management glued over the virtual interfaces.
//!
//! Implements [`ClientSystem`] so the simulation world can drive it
//! exactly like the baseline drivers.

use crate::blacklist::ApBlacklist;
use crate::config::SpiderConfig;
use crate::iface::{ClientIface, IfaceEvent};
use crate::schedule::ChannelSchedule;
use crate::utility::{JoinOutcome, UtilityTable};
use spider_mac80211::{ApTarget, ClientObservation, ClientSystem, DriverAction, JoinLog, RxFrame};
use spider_netstack::{LeaseCache, PingConfig};
use spider_simcore::{SimDuration, SimTime};
use spider_wire::{Channel, Frame, FrameBody, MacAddr};

/// The Spider client system.
// Clone backs `ClientSystem::clone_boxed`: every field — interfaces,
// utility table, lease cache, blacklist, hot caches — is part of the
// world snapshot and must copy deeply (DESIGN.md §13).
#[derive(Clone)]
pub struct SpiderDriver {
    cfg: SpiderConfig,
    ifaces: Vec<ClientIface>,
    utility: UtilityTable,
    lease_cache: LeaseCache,
    blacklist: ApBlacklist,
    /// Set while absorbing events from a driver-initiated teardown (IP
    /// collision): those Downs are not the AP's fault.
    suppress_blacklist: bool,
    log: JoinLog,
    /// Tuned channel; `None` while a switch is in flight.
    current: Option<Channel>,
    switching_to: Option<Channel>,
    next_housekeeping: SimTime,
    next_probe: SimTime,
    /// Per-interface (bssid, connected-at, delivered-at-connect) markers
    /// for end-to-end throughput feedback into the utility table.
    sessions: Vec<Option<(MacAddr, SimTime, u64)>>,
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
                    cfg.tcp_enabled,
                )
            })
            .collect();
        let utility = UtilityTable::new(cfg.utility.clone());
        let current = Some(cfg.schedule.channel_at(SimTime::ZERO));
        let sessions = vec![None; cfg.num_ifaces];
        let blacklist = ApBlacklist::new(cfg.blacklist.clone());
        let iface_addrs = ifaces.iter().map(|i: &ClientIface| i.addr).collect();
        let iface_wakeups = ifaces
            .iter()
            .map(|i: &ClientIface| i.next_wakeup())
            .collect();
        let n = cfg.num_ifaces;
        SpiderDriver {
            cfg,
            ifaces,
            utility,
            lease_cache: LeaseCache::new(),
            blacklist,
            suppress_blacklist: false,
            log: JoinLog::new(),
            current,
            switching_to: None,
            next_housekeeping: SimTime::ZERO,
            next_probe: SimTime::ZERO,
            sessions,
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

    /// The AP blacklist (introspection).
    pub fn blacklist(&self) -> &ApBlacklist {
        &self.blacklist
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
    fn absorb(
        &mut self,
        now: SimTime,
        iface_idx: usize,
        events: Vec<IfaceEvent>,
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
                        // Not the AP's fault — don't let the recursive
                        // absorb blacklist it.
                        let prev = self.suppress_blacklist;
                        self.suppress_blacklist = true;
                        self.absorb(now, j, evs, actions);
                        self.suppress_blacklist = prev;
                    }
                }
                IfaceEvent::ConnectivityUp { bssid, .. } => {
                    self.utility
                        .record_outcome(now, bssid, JoinOutcome::FullyJoined);
                    self.blacklist.record_success(bssid);
                    self.sessions[iface_idx] =
                        Some((bssid, now, self.ifaces[iface_idx].delivered_bytes()));
                }
                IfaceEvent::Down { bssid, outcome } => {
                    if let Some(outcome) = outcome {
                        self.utility.record_outcome(now, bssid, outcome);
                    }
                    // Feed the session's measured throughput back into the
                    // selection table (§4.8 extension; inert unless
                    // `bandwidth_weight > 0`).
                    if let Some((session_bssid, up_at, bytes_at_up)) =
                        self.sessions[iface_idx].take()
                    {
                        if session_bssid == bssid {
                            let span = now.saturating_since(up_at).as_secs_f64();
                            if span > 0.5 {
                                let bytes = self.ifaces[iface_idx].delivered_bytes() - bytes_at_up;
                                self.utility.record_throughput(bssid, bytes as f64 / span);
                            }
                        }
                    }
                    // A dead or failed AP goes into exponential-backoff
                    // blacklist so selection doesn't loop on it while it
                    // is still beaconing attractively.
                    if !self.suppress_blacklist && bssid != MacAddr::BROADCAST {
                        self.blacklist.record_failure(now, bssid);
                    }
                    // Re-scan right away: a broadcast probe solicits
                    // responses from every AP on the current channel, so
                    // a replacement is found faster than waiting out the
                    // beacon interval.
                    if self.cfg.rescan_on_down && self.current.is_some() {
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
                IfaceEvent::PortalSuspected { bssid } => {
                    // A captive portal answers pings but delivers nothing:
                    // demote straight to the blacklist ceiling so selection
                    // does not keep walking into the same walled garden
                    // (the matching `Down` follows and cannot shorten it).
                    if !self.suppress_blacklist && bssid != MacAddr::BROADCAST {
                        self.blacklist.record_portal(now, bssid);
                    }
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
            let mut in_use: Vec<MacAddr> = self.ifaces.iter().filter_map(|i| i.bssid()).collect();
            // Blacklisted APs are excluded from selection exactly like
            // ones we are already bound to.
            in_use.extend(self.blacklist.blocked(now));
            let channels = self
                .cfg
                .candidate_channels
                .clone()
                .unwrap_or_else(|| self.cfg.schedule.channels());
            let Some((bssid, rec)) = self.utility.best_candidate(now, &channels, &in_use) else {
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
            self.absorb(now, idle_idx, evs, actions);
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
            self.absorb(now, idx, evs, actions);
            // Flush any transmissions unlocked by the state change (e.g.
            // the assoc request right after an auth response). Steady
            // connected interfaces skip this: their polls are
            // deadline-driven and the next wakeup reproduces the work.
            if self.ifaces[idx].needs_immediate_poll(now) {
                let on_ch = self.on_channel(&self.ifaces[idx]);
                let mut log = std::mem::take(&mut self.log);
                let evs2 = self.ifaces[idx].poll(now, on_ch, &mut log);
                self.log = log;
                self.absorb(now, idx, evs2, actions);
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
                self.absorb(now, idx, evs, actions);
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
            self.absorb(now, idx, evs, actions);
            self.refresh_one(idx);
        }
        if now >= self.next_housekeeping {
            self.next_housekeeping = now + self.cfg.housekeeping;
            self.utility.expire(now, SimDuration::from_secs(3_600));
            self.blacklist.prune(now);
            self.lease_cache.evict_expired(now);
            self.select_aps(now, actions);
        }
        // Active scanning (§3.2.1, optional): a broadcast probe request
        // solicits probe responses from every AP on the current channel,
        // feeding the scanner faster than beacons alone.
        if let (Some(interval), Some(_ch)) = (self.cfg.probe_interval, self.current) {
            if now >= self.next_probe {
                self.next_probe = now + interval;
                let src = self.ifaces[0].addr;
                actions.push(DriverAction::Transmit {
                    iface: 0,
                    frame: Frame {
                        src,
                        dst: MacAddr::BROADCAST,
                        bssid: MacAddr::BROADCAST,
                        body: FrameBody::ProbeRequest { ssid: None },
                    },
                });
            }
        }
        if self.hot_dirty_all {
            self.refresh_hot();
        }
    }

    fn next_wakeup(&self, now: SimTime) -> SimTime {
        let mut t = self.next_housekeeping;
        if self.cfg.probe_interval.is_some() {
            t = t.min(self.next_probe);
        }
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
        match &self.cfg.candidate_channels {
            Some(channels) => channels.contains(&ch),
            None => self.cfg.schedule.channels().contains(&ch),
        }
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
            &mut actions,
        );
        assert!(d.lease_cache.is_empty(), "NAKed lease must be evicted");
    }

    #[test]
    fn downed_ap_is_blacklisted_until_backoff_expires() {
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
            }],
            &mut actions,
        );
        assert!(d.blacklist.is_blocked(SimTime::from_millis(11), bssid));
        // While blocked, housekeeping must not re-bind to the AP even
        // though it is the only (and attractively loud) candidate.
        d.poll(SimTime::from_millis(20));
        assert!(
            d.ifaces.iter().all(|i| !i.is_busy()),
            "driver re-joined a blacklisted AP"
        );
        // Once the backoff passes, the AP is fair game again.
        let until = d.blacklist.blocked_until(bssid).expect("listed");
        d.poll(until + SimDuration::from_millis(1));
        assert!(
            d.ifaces.iter().any(|i| i.bssid() == Some(bssid)),
            "driver should retry after the backoff expires"
        );
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
            }],
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
        let auth_targets: std::collections::HashSet<MacAddr> = actions
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
mod probing_tests {
    use super::*;
    use crate::config::OperationMode;
    use spider_simcore::SimDuration;

    #[test]
    fn active_probing_broadcasts_probe_requests() {
        let cfg = SpiderConfig::for_mode(OperationMode::SingleChannelMultiAp(Channel::CH6), 1)
            .with_active_probing(SimDuration::from_millis(500));
        let mut d = SpiderDriver::new(cfg);
        let mut probes = 0;
        for i in 0..20 {
            for a in d.poll(SimTime::from_millis(i * 100)) {
                if let DriverAction::Transmit { frame, .. } = a {
                    if matches!(frame.body, FrameBody::ProbeRequest { .. }) {
                        probes += 1;
                        assert!(frame.dst.is_broadcast());
                    }
                }
            }
        }
        // 2s of polling at a 500ms probe interval: 4-5 probes.
        assert!((4..=5).contains(&probes), "probes: {probes}");
    }

    #[test]
    fn passive_default_sends_no_probes() {
        let cfg = SpiderConfig::for_mode(OperationMode::SingleChannelMultiAp(Channel::CH6), 1);
        let mut d = SpiderDriver::new(cfg);
        for i in 0..20 {
            for a in d.poll(SimTime::from_millis(i * 100)) {
                if let DriverAction::Transmit { frame, .. } = a {
                    assert!(!matches!(frame.body, FrameBody::ProbeRequest { .. }));
                }
            }
        }
    }

    #[test]
    fn probe_wakeups_are_scheduled() {
        let cfg = SpiderConfig::for_mode(OperationMode::SingleChannelMultiAp(Channel::CH6), 1)
            .with_active_probing(SimDuration::from_millis(300));
        let mut d = SpiderDriver::new(cfg);
        d.poll(SimTime::ZERO);
        let wk = d.next_wakeup(SimTime::from_millis(1));
        assert!(wk <= SimTime::from_millis(100).max(SimTime::from_millis(300)));
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
