//! A FatVAP-style AP-sliced virtual Wi-Fi driver.
//!
//! FatVAP (NSDI'08) time-slices a single radio across *APs*, sizing each
//! AP's share by its estimated end-to-end bandwidth so the aggregate
//! matches what the backhauls can deliver. It was built for stationary
//! clients: its scheduler assumes associations and DHCP leases already
//! exist and last forever (§1). Reproduced here faithfully enough to
//! exhibit the failure mode the paper identifies:
//!
//! * the schedule is per-AP — while AP `j`'s queue holds the radio, a
//!   join in progress toward another AP on the *same channel* makes no
//!   progress (contrast Spider's per-channel queues),
//! * AP selection ranks by estimated bandwidth (optimistic bootstrap for
//!   unseen APs), not join history,
//! * joins receive no special scheduling — they advance only during the
//!   target AP's slice.

use spider_core::iface::{ClientIface, IfaceEvent};
use spider_core::utility::{UtilityConfig, UtilityTable};
use spider_mac80211::{ApTarget, ClientMacConfig, ClientSystem, DriverAction, JoinLog, RxFrame};
use spider_netstack::{DhcpClientConfig, PingConfig};
use spider_simcore::{FxHashMap, SimDuration, SimTime};
use spider_wire::{Channel, Frame, FrameBody, MacAddr};

/// Radio time per AP slot.
const SLICE: SimDuration = SimDuration::from_millis(100);
/// Optimistic bandwidth estimate for never-measured APs (bytes/s) —
/// makes every AP worth trying once.
const BOOTSTRAP_BW: f64 = 500_000.0;
/// EWMA weight for fresh bandwidth measurements.
const ESTIMATE_ALPHA: f64 = 0.3;

/// FatVAP-style configuration. Timers are Spider's reduced ones
/// (100 ms link layer, 200 ms DHCP), so the comparison isolates the
/// scheduling policy.
#[derive(Debug, Clone)]
pub struct FatVapConfig {
    /// Concurrent connections maintained (FatVAP's evaluation used ~3).
    pub num_conns: usize,
    /// Channels visited by the scan slot.
    pub scan_channels: Vec<Channel>,
}

impl Default for FatVapConfig {
    fn default() -> Self {
        FatVapConfig {
            num_conns: 3,
            scan_channels: Channel::ORTHOGONAL.to_vec(),
        }
    }
}

/// What currently owns the radio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Interface `i`'s AP.
    Conn(usize),
    /// Scanning `scan_channels[i]`.
    Scan(usize),
}

/// The FatVAP-style driver.
// Clone backs `ClientSystem::clone_boxed` (DESIGN.md §13).
#[derive(Clone)]
pub struct FatVapDriver {
    cfg: FatVapConfig,
    ifaces: Vec<ClientIface>,
    scanner: UtilityTable,
    /// EWMA end-to-end bandwidth per AP (bytes/s).
    estimates: FxHashMap<MacAddr, f64>,
    log: JoinLog,
    slot: Slot,
    slot_started: SimTime,
    /// Delivered bytes at the start of the active conn slot, for
    /// bandwidth estimation.
    slot_baseline: u64,
    current: Option<Channel>,
    switching: bool,
}

impl FatVapDriver {
    /// Create a driver, initially in its scan slot on the first scan
    /// channel.
    pub fn new(cfg: FatVapConfig) -> FatVapDriver {
        assert!(cfg.num_conns >= 1 && !cfg.scan_channels.is_empty());
        let ifaces = (0..cfg.num_conns)
            .map(|i| {
                ClientIface::new(
                    i,
                    MacAddr::from_id(700 + i as u64),
                    ClientMacConfig::reduced(),
                    DhcpClientConfig::reduced(SimDuration::from_millis(200)),
                    PingConfig::paper(i as u16),
                )
            })
            .collect();
        let scanner = UtilityTable::new(UtilityConfig::default());
        let current = Some(cfg.scan_channels[0]);
        FatVapDriver {
            cfg,
            ifaces,
            scanner,
            estimates: FxHashMap::default(),
            log: JoinLog::new(),
            slot: Slot::Scan(0),
            slot_started: SimTime::ZERO,
            slot_baseline: 0,
            current,
            switching: false,
        }
    }

    /// Estimated bandwidth for an AP (bootstrap for unknown).
    pub fn estimate_for(&self, bssid: MacAddr) -> f64 {
        self.estimates.get(&bssid).copied().unwrap_or(BOOTSTRAP_BW)
    }

    fn absorb(
        &mut self,
        _now: SimTime,
        idx: usize,
        events: Vec<IfaceEvent>,
        actions: &mut Vec<DriverAction>,
    ) {
        for ev in events {
            match ev {
                IfaceEvent::Transmit(frame) => {
                    actions.push(DriverAction::Transmit { iface: idx, frame })
                }
                IfaceEvent::Down { bssid, .. } => {
                    // Penalise the estimate so a failed AP loses its slot
                    // appeal (FatVAP re-estimates continuously).
                    let e = self.estimate_for(bssid);
                    self.estimates.insert(bssid, e * 0.5);
                }
                IfaceEvent::GotLease { .. }
                | IfaceEvent::ConnectivityUp { .. }
                | IfaceEvent::LeaseRejected { .. } => {}
            }
        }
    }

    /// Rank candidates by estimated bandwidth and bind idle interfaces.
    fn assign_ifaces(&mut self, now: SimTime) {
        loop {
            let Some(idle_idx) = self.ifaces.iter().position(|i| !i.is_busy()) else {
                return;
            };
            let in_use: Vec<MacAddr> = self.ifaces.iter().filter_map(|i| i.bssid()).collect();
            // Choose the fresh AP with the best bandwidth estimate.
            let mut best: Option<(MacAddr, ApTarget, f64)> = None;
            for ch in Channel::ORTHOGONAL {
                if let Some((bssid, rec)) = self.scanner.best_candidate(now, &[ch], &in_use) {
                    let score = self.estimate_for(bssid);
                    let better = match &best {
                        None => true,
                        Some((_, _, s)) => score > *s,
                    };
                    if better {
                        best = Some((
                            bssid,
                            ApTarget {
                                bssid,
                                ssid: rec.ssid.clone(),
                                channel: rec.channel,
                            },
                            score,
                        ));
                    }
                }
            }
            let Some((_, target, _)) = best else { return };
            if !self.ifaces[idle_idx].dhcp_ready(now) {
                return;
            }
            // FatVAP has no per-BSSID lease cache.
            self.ifaces[idle_idx].start_join(now, target, None);
        }
    }

    /// Park the currently active AP (if any) with a PSM null frame.
    fn park_active(&mut self, actions: &mut Vec<DriverAction>) {
        if let Slot::Conn(i) = self.slot {
            let iface = &self.ifaces[i];
            if iface.is_associated() {
                if let Some(bssid) = iface.bssid() {
                    actions.push(DriverAction::Transmit {
                        iface: i,
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

    /// Advance to the next slot: round-robin over busy connections plus
    /// one scan slot per rotation.
    fn advance_slot(&mut self, now: SimTime, actions: &mut Vec<DriverAction>) {
        // Record a bandwidth sample for the conn slot that just ended.
        if let Slot::Conn(i) = self.slot {
            if let Some(bssid) = self.ifaces[i].bssid() {
                let delivered = self.ifaces[i].delivered_bytes() - self.slot_baseline;
                let elapsed = now.saturating_since(self.slot_started).as_secs_f64();
                if elapsed > 0.0 {
                    let sample = delivered as f64 / elapsed;
                    let old = self.estimate_for(bssid);
                    let a = ESTIMATE_ALPHA;
                    self.estimates.insert(bssid, (1.0 - a) * old + a * sample);
                }
            }
        }
        self.park_active(actions);
        // Next slot in the rotation.
        let n = self.ifaces.len();
        let next = match self.slot {
            Slot::Conn(i) => {
                let mut next = None;
                for step in 1..=n {
                    let j = (i + step) % n;
                    if j <= i && step <= n {
                        // wrapped past the end: insert the scan slot first
                        next = None;
                        break;
                    }
                    if self.ifaces[j].is_busy() {
                        next = Some(Slot::Conn(j));
                        break;
                    }
                }
                next.unwrap_or(Slot::Scan(0))
            }
            Slot::Scan(s) => {
                // After scanning, serve the first busy connection; if
                // none, keep scanning the next channel.
                match self.ifaces.iter().position(|i| i.is_busy()) {
                    Some(j) => Slot::Conn(j),
                    None => Slot::Scan((s + 1) % self.cfg.scan_channels.len()),
                }
            }
        };
        self.slot = next;
        self.slot_started = now;
        self.slot_baseline = match next {
            Slot::Conn(i) => self.ifaces[i].delivered_bytes(),
            _ => 0,
        };
        // Tune the radio for the new slot.
        let want = match next {
            Slot::Conn(i) => self.ifaces[i].target().map(|t| t.channel),
            Slot::Scan(s) => Some(self.cfg.scan_channels[s]),
        };
        if let Some(ch) = want {
            if self.current != Some(ch) {
                self.current = None;
                self.switching = true;
                actions.push(DriverAction::SwitchChannel(ch));
            } else {
                self.wake_active(actions);
            }
        }
    }

    /// Wake the newly active AP after arriving on its channel.
    fn wake_active(&mut self, actions: &mut Vec<DriverAction>) {
        if let Slot::Conn(i) = self.slot {
            let iface = &self.ifaces[i];
            if iface.is_associated() {
                if let Some(bssid) = iface.bssid() {
                    actions.push(DriverAction::Transmit {
                        iface: i,
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
    }

    /// Whether interface `i` may use the radio right now: FatVAP's
    /// defining constraint — only the slot owner talks, even if another
    /// interface's AP shares the channel.
    fn iface_active(&self, i: usize) -> bool {
        !self.switching && self.slot == Slot::Conn(i) && {
            match (self.current, self.ifaces[i].target()) {
                (Some(cur), Some(t)) => cur == t.channel,
                _ => false,
            }
        }
    }
}

impl ClientSystem for FatVapDriver {
    fn label(&self) -> String {
        format!("FatVAP[{} conns, {} slice]", self.cfg.num_conns, SLICE)
    }

    fn on_frame_into(&mut self, now: SimTime, rx: &RxFrame<'_>, actions: &mut Vec<DriverAction>) {
        match &rx.frame.body {
            FrameBody::Beacon { ssid, channel, .. }
            | FrameBody::ProbeResponse { ssid, channel } => {
                if let Some(rssi) = rx.rssi_dbm {
                    self.scanner
                        .observe(now, rx.frame.src, ssid, *channel, rssi);
                }
            }
            _ => {}
        }
        let idx = self
            .ifaces
            .iter()
            .position(|i| rx.frame.dst == i.addr)
            .or_else(|| {
                if let FrameBody::Data { packet, .. } = &rx.frame.body {
                    if let spider_wire::ip::L4::Dhcp(msg) = &packet.payload {
                        return self.ifaces.iter().position(|i| i.addr == msg.chaddr);
                    }
                }
                None
            });
        if let Some(idx) = idx {
            let mut log = std::mem::take(&mut self.log);
            let evs = self.ifaces[idx].on_frame(now, rx.frame, &mut log);
            let active = self.iface_active(idx);
            let evs2 = self.ifaces[idx].poll(now, active, &mut log);
            self.log = log;
            self.absorb(now, idx, evs, actions);
            self.absorb(now, idx, evs2, actions);
        }
    }

    fn on_switch_complete_into(
        &mut self,
        now: SimTime,
        ch: Channel,
        actions: &mut Vec<DriverAction>,
    ) {
        self.current = Some(ch);
        self.switching = false;
        self.wake_active(actions);
        if let Slot::Conn(i) = self.slot {
            if self.iface_active(i) {
                let mut log = std::mem::take(&mut self.log);
                let evs = self.ifaces[i].poll(now, true, &mut log);
                self.log = log;
                self.absorb(now, i, evs, actions);
            }
        }
    }

    fn poll_into(&mut self, now: SimTime, actions: &mut Vec<DriverAction>) {
        self.assign_ifaces(now);
        if !self.switching && now.saturating_since(self.slot_started) >= SLICE {
            self.advance_slot(now, actions);
        }
        for idx in 0..self.ifaces.len() {
            let active = self.iface_active(idx);
            let mut log = std::mem::take(&mut self.log);
            let evs = self.ifaces[idx].poll(now, active, &mut log);
            self.log = log;
            self.absorb(now, idx, evs, actions);
        }
    }

    fn next_wakeup(&self, now: SimTime) -> SimTime {
        let mut t = self.slot_started + SLICE;
        for iface in &self.ifaces {
            t = t.min(iface.next_wakeup());
        }
        t.min(now + SimDuration::from_millis(100)).max(now)
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

    fn associated_interfaces(&self) -> usize {
        self.ifaces.iter().filter(|i| i.is_associated()).count()
    }

    fn initial_channel(&self) -> Channel {
        self.cfg.scan_channels[0]
    }

    fn can_use_channel(&self, ch: Channel) -> bool {
        self.cfg.scan_channels.contains(&ch)
    }

    fn clone_boxed(&self) -> Box<dyn ClientSystem + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_mac80211::RxBuf;
    use spider_wire::Ssid;

    fn beacon(ap_id: u64, ch: Channel, rssi: f64) -> RxBuf {
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
            rssi_dbm: Some(rssi),
        }
    }

    fn drive(d: &mut FatVapDriver, from_ms: u64, to_ms: u64) -> Vec<DriverAction> {
        let mut all = Vec::new();
        let mut t = SimTime::from_millis(from_ms);
        while t < SimTime::from_millis(to_ms) {
            let wk = d.next_wakeup(t).max(t + SimDuration::from_millis(1));
            t = wk;
            for a in d.poll(t) {
                if let DriverAction::SwitchChannel(ch) = a {
                    all.push(a.clone());
                    all.extend(d.on_switch_complete(t + SimDuration::from_millis(5), ch));
                } else {
                    all.push(a);
                }
            }
        }
        all
    }

    #[test]
    fn scans_then_joins_discovered_aps() {
        let mut d = FatVapDriver::new(FatVapConfig::default());
        d.on_frame(
            SimTime::from_millis(1),
            &beacon(100, Channel::CH1, -60.0).rx(),
        );
        d.on_frame(
            SimTime::from_millis(2),
            &beacon(101, Channel::CH6, -65.0).rx(),
        );
        let actions = drive(&mut d, 2, 600);
        let auths: std::collections::BTreeSet<MacAddr> = actions
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
        assert!(auths.contains(&MacAddr::from_id(100)) || auths.contains(&MacAddr::from_id(101)));
        assert!(d.ifaces.iter().filter(|i| i.is_busy()).count() >= 2);
    }

    #[test]
    fn slices_rotate_between_connections() {
        let mut d = FatVapDriver::new(FatVapConfig::default());
        d.on_frame(
            SimTime::from_millis(1),
            &beacon(100, Channel::CH1, -60.0).rx(),
        );
        d.on_frame(
            SimTime::from_millis(2),
            &beacon(101, Channel::CH11, -60.0).rx(),
        );
        let actions = drive(&mut d, 2, 1_500);
        // With APs on two different channels the per-AP slicing forces
        // real channel switches.
        let switches = actions
            .iter()
            .filter(|a| matches!(a, DriverAction::SwitchChannel(_)))
            .count();
        assert!(switches >= 3, "expected repeated slicing, saw {switches}");
    }

    #[test]
    fn estimates_bootstrap_optimistically_and_decay_on_failure() {
        let mut d = FatVapDriver::new(FatVapConfig::default());
        let ap = MacAddr::from_id(100);
        assert_eq!(d.estimate_for(ap), 500_000.0);
        d.estimates.insert(ap, 400_000.0);
        d.absorb(
            SimTime::ZERO,
            0,
            vec![IfaceEvent::Down {
                bssid: ap,
                outcome: None,
                portal: false,
            }],
            &mut Vec::new(),
        );
        assert_eq!(d.estimate_for(ap), 200_000.0);
    }

    #[test]
    fn only_slot_owner_is_active() {
        let mut d = FatVapDriver::new(FatVapConfig::default());
        d.on_frame(
            SimTime::from_millis(1),
            &beacon(100, Channel::CH1, -60.0).rx(),
        );
        d.on_frame(
            SimTime::from_millis(2),
            &beacon(101, Channel::CH1, -61.0).rx(),
        );
        drive(&mut d, 2, 300);
        // Two interfaces bound to APs on the same channel; at most one may
        // be active at any instant (FatVAP's per-AP queues).
        let active: Vec<usize> = (0..d.ifaces.len()).filter(|&i| d.iface_active(i)).collect();
        assert!(active.len() <= 1, "active: {active:?}");
    }

    #[test]
    fn label_mentions_fatvap() {
        let d = FatVapDriver::new(FatVapConfig::default());
        assert!(d.label().starts_with("FatVAP"));
    }
}
