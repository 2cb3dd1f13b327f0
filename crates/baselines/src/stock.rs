//! A stock single-AP Wi-Fi driver (the paper's "unmodified MadWiFi
//! driver" comparison point, §4.1), plus the Cabernet/QuickWiFi variant.
//!
//! Behaviour: when unassociated, sweep the scan channels dwelling on
//! each; after a full sweep pick the strongest fresh AP and join it with
//! stock timers; camp on its channel until the connection dies; then
//! scan again. One AP at a time, signal-strength selection — everything
//! the paper's analysis says is wrong for mobility, which is the point.

use spider_core::iface::{ClientIface, IfaceEvent};
use spider_core::utility::{JoinOutcome, UtilityConfig, UtilityTable};
use spider_mac80211::{ApTarget, ClientMacConfig, ClientSystem, DriverAction, JoinLog, RxFrame};
use spider_netstack::{DhcpClientConfig, LeaseCache, PingConfig};
use spider_simcore::SimDuration as Dur;
use spider_simcore::{SimDuration, SimTime};
use spider_wire::{Channel, FrameBody, MacAddr};

/// Minimum RSSI to consider an AP (both presets scan down to -90 dBm).
const MIN_RSSI_DBM: f64 = -90.0;

/// Stock driver configuration.
#[derive(Debug, Clone)]
pub struct StockConfig {
    /// Link-layer timers.
    pub mac: ClientMacConfig,
    /// DHCP timers.
    pub dhcp: DhcpClientConfig,
    /// Channels swept while scanning.
    pub scan_channels: Vec<Channel>,
    /// Dwell per scan channel.
    pub scan_dwell: SimDuration,
    /// Whether leases are cached per BSSID (stock: no; QuickWiFi: yes).
    pub cache_leases: bool,
    /// Liveness probing. A stock driver has no ping monitor — it notices
    /// a dead link only after many seconds of silence; QuickWiFi detects
    /// loss quickly.
    pub ping: PingConfig,
    /// Client identity for MAC addressing.
    pub client_id: u64,
    /// Label for experiment output.
    pub name: &'static str,
}

impl StockConfig {
    /// Unmodified-driver defaults: 1 s link-layer timeout, 3 s DHCP with
    /// a 60 s penalty box, full 11-channel sweep, no lease caching.
    pub fn stock(client_id: u64) -> StockConfig {
        StockConfig {
            mac: ClientMacConfig::stock(),
            dhcp: DhcpClientConfig::stock(),
            scan_channels: (1..=11).map(Channel::new).collect(),
            scan_dwell: SimDuration::from_millis(120),
            cache_leases: false,
            // ~12 s to declare a connection dead (beacon-loss timescale).
            ping: PingConfig {
                interval: Dur::from_secs(1),
                fail_threshold: 12,
                id: 0,
                // A stock stack has no tightened probe deadline and no
                // gateway fallback; keep the old 3-interval grace.
                reply_deadline: Dur::from_secs(3),
                gateway_fallback_after: None,
            },
            client_id,
            name: "MadWiFi",
        }
    }

    /// Cabernet's QuickWiFi: reduced timeouts (100 ms link-layer /
    /// 100 ms DHCP messages), orthogonal-channel sweep, lease caching.
    pub fn quickwifi(client_id: u64) -> StockConfig {
        StockConfig {
            mac: ClientMacConfig::reduced(),
            dhcp: DhcpClientConfig::reduced(SimDuration::from_millis(100)),
            scan_channels: Channel::ORTHOGONAL.to_vec(),
            scan_dwell: SimDuration::from_millis(100),
            cache_leases: true,
            ping: PingConfig::paper(0),
            client_id,
            name: "Cabernet",
        }
    }
}

/// What the driver is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Sweeping `scan_channels[idx]` since `since`.
    Scanning { idx: usize, since: SimTime },
    /// Waiting for an in-flight channel switch.
    Switching,
    /// Bound to an AP (the single interface is busy).
    Camped,
}

/// The stock driver.
// Clone backs `ClientSystem::clone_boxed` (DESIGN.md §13).
#[derive(Clone)]
pub struct StockDriver {
    cfg: StockConfig,
    iface: ClientIface,
    table: UtilityTable,
    leases: LeaseCache,
    log: JoinLog,
    mode: Mode,
    current: Option<Channel>,
    sweep_complete: bool,
}

impl StockDriver {
    /// Create a driver; the radio is assumed tuned to the first scan
    /// channel.
    pub fn new(cfg: StockConfig) -> StockDriver {
        assert!(!cfg.scan_channels.is_empty());
        // Spider's utility table: outcomes move utilities at the default
        // α = 0.5 and a failed join cools the AP down for 2 s, so utility
        // ranks the APs and signal strength only breaks ties. The table's
        // backoff is never called.
        let util_cfg = UtilityConfig {
            min_rssi_dbm: MIN_RSSI_DBM,
            freshness: SimDuration::from_secs(3),
            ..UtilityConfig::default()
        };
        let iface = ClientIface::new(
            0,
            MacAddr::from_id(cfg.client_id * 1_000 + 500),
            cfg.mac.clone(),
            cfg.dhcp.clone(),
            cfg.ping.clone(),
        );
        let current = Some(cfg.scan_channels[0]);
        StockDriver {
            cfg,
            iface,
            table: UtilityTable::new(util_cfg),
            leases: LeaseCache::new(),
            log: JoinLog::new(),
            mode: Mode::Scanning {
                idx: 0,
                since: SimTime::ZERO,
            },
            current,
            sweep_complete: false,
        }
    }

    fn absorb(&mut self, now: SimTime, events: Vec<IfaceEvent>, actions: &mut Vec<DriverAction>) {
        for ev in events {
            match ev {
                IfaceEvent::Transmit(frame) => {
                    actions.push(DriverAction::Transmit { iface: 0, frame })
                }
                IfaceEvent::GotLease { bssid, lease, .. } => {
                    if self.cfg.cache_leases {
                        self.leases.insert(bssid, lease);
                    }
                }
                IfaceEvent::ConnectivityUp { bssid, .. } => {
                    self.table
                        .record_outcome(now, bssid, JoinOutcome::FullyJoined);
                }
                IfaceEvent::Down { bssid, outcome, .. } => {
                    if let Some(outcome) = outcome {
                        self.table.record_outcome(now, bssid, outcome);
                    }
                    // Back to scanning from the first channel.
                    self.start_scan(now, actions);
                }
                IfaceEvent::LeaseRejected { bssid } => {
                    self.leases.invalidate(bssid);
                }
            }
        }
    }

    fn start_scan(&mut self, now: SimTime, actions: &mut Vec<DriverAction>) {
        self.sweep_complete = false;
        self.mode = Mode::Switching;
        let first = self.cfg.scan_channels[0];
        if self.current == Some(first) {
            self.mode = Mode::Scanning { idx: 0, since: now };
        } else {
            self.current = None;
            actions.push(DriverAction::SwitchChannel(first));
        }
    }

    fn try_join_best(&mut self, now: SimTime, actions: &mut Vec<DriverAction>) {
        let Some((bssid, rec)) = self.table.best_candidate(now, &[], &[]) else {
            return;
        };
        let target = ApTarget {
            bssid,
            ssid: rec.ssid.clone(),
            channel: rec.channel,
        };
        let cached = if self.cfg.cache_leases {
            self.leases.lookup(now, bssid)
        } else {
            None
        };
        if !self.iface.dhcp_ready(now) {
            return; // stock DHCP penalty box
        }
        self.iface.start_join(now, target.clone(), cached);
        self.mode = if self.current == Some(target.channel) {
            Mode::Camped
        } else {
            self.current = None;
            actions.push(DriverAction::SwitchChannel(target.channel));
            Mode::Switching
        };
    }

    fn on_channel(&self) -> bool {
        match (self.current, self.iface.target()) {
            (Some(cur), Some(t)) => cur == t.channel,
            _ => false,
        }
    }
}

impl ClientSystem for StockDriver {
    fn label(&self) -> String {
        self.cfg.name.to_string()
    }

    fn on_frame_into(&mut self, now: SimTime, rx: &RxFrame<'_>, actions: &mut Vec<DriverAction>) {
        match &rx.frame.body {
            FrameBody::Beacon { ssid, channel, .. }
            | FrameBody::ProbeResponse { ssid, channel } => {
                if let Some(rssi) = rx.rssi_dbm {
                    self.table.observe(now, rx.frame.src, ssid, *channel, rssi);
                }
            }
            _ => {}
        }
        let relevant = rx.frame.dst == self.iface.addr
            || {
                if let FrameBody::Data { packet, .. } = &rx.frame.body {
                    matches!(&packet.payload, spider_wire::ip::L4::Dhcp(m) if m.chaddr == self.iface.addr)
                } else {
                    false
                }
            };
        if relevant {
            let mut log = std::mem::take(&mut self.log);
            let evs = self.iface.on_frame(now, rx.frame, &mut log);
            let on_ch = self.on_channel();
            let evs2 = self.iface.poll(now, on_ch, &mut log);
            self.log = log;
            self.absorb(now, evs, actions);
            self.absorb(now, evs2, actions);
        }
    }

    fn on_switch_complete_into(
        &mut self,
        now: SimTime,
        ch: Channel,
        actions: &mut Vec<DriverAction>,
    ) {
        self.current = Some(ch);
        if self.iface.is_busy() {
            self.mode = Mode::Camped;
            let on_ch = self.on_channel();
            let mut log = std::mem::take(&mut self.log);
            let evs = self.iface.poll(now, on_ch, &mut log);
            self.log = log;
            self.absorb(now, evs, actions);
        } else {
            // Arrived on a scan channel.
            let idx = self
                .cfg
                .scan_channels
                .iter()
                .position(|&c| c == ch)
                .unwrap_or(0);
            self.mode = Mode::Scanning { idx, since: now };
        }
    }

    fn poll_into(&mut self, now: SimTime, actions: &mut Vec<DriverAction>) {
        match self.mode {
            Mode::Scanning { idx, since } => {
                // After a full sweep, try to join the best AP seen.
                if self.sweep_complete {
                    self.try_join_best(now, actions);
                    self.sweep_complete = false;
                }
                if matches!(self.mode, Mode::Scanning { .. })
                    && now.saturating_since(since) >= self.cfg.scan_dwell
                {
                    let next = idx + 1;
                    if next >= self.cfg.scan_channels.len() {
                        self.sweep_complete = true;
                        // Try joining right away with what we have.
                        self.try_join_best(now, actions);
                        if matches!(self.mode, Mode::Scanning { .. }) {
                            // Nothing to join: sweep again.
                            self.start_scan(now, actions);
                        }
                    } else {
                        let ch = self.cfg.scan_channels[next];
                        self.mode = Mode::Switching;
                        if self.current == Some(ch) {
                            self.mode = Mode::Scanning {
                                idx: next,
                                since: now,
                            };
                        } else {
                            self.current = None;
                            actions.push(DriverAction::SwitchChannel(ch));
                        }
                    }
                }
            }
            Mode::Switching => {}
            Mode::Camped => {
                if !self.iface.is_busy() {
                    self.start_scan(now, actions);
                }
            }
        }
        let on_ch = self.on_channel();
        let mut log = std::mem::take(&mut self.log);
        let evs = self.iface.poll(now, on_ch, &mut log);
        self.log = log;
        self.absorb(now, evs, actions);
    }

    fn next_wakeup(&self, now: SimTime) -> SimTime {
        let mut t = self.iface.next_wakeup();
        if let Mode::Scanning { since, .. } = self.mode {
            t = t.min(since + self.cfg.scan_dwell);
        }
        // Re-poll regularly while camped-but-idle or switching stalls.
        t.min(now + SimDuration::from_millis(200)).max(now)
    }

    fn join_log(&self) -> &JoinLog {
        &self.log
    }

    fn is_connected(&self) -> bool {
        self.iface.is_connected()
    }

    fn delivered_bytes(&self) -> u64 {
        self.iface.delivered_bytes()
    }

    fn associated_interfaces(&self) -> usize {
        usize::from(self.iface.is_associated())
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
    use spider_simcore::SimDuration;
    use spider_wire::{Frame, Ssid};

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

    /// Drive the scan loop until the driver asks to switch or acts.
    fn run_until_auth(driver: &mut StockDriver, horizon_ms: u64) -> Option<MacAddr> {
        let mut t = SimTime::ZERO;
        while t < SimTime::from_millis(horizon_ms) {
            let wk = driver.next_wakeup(t).max(t + SimDuration::from_millis(1));
            t = wk;
            for a in driver.poll(t) {
                match a {
                    DriverAction::SwitchChannel(ch) => {
                        // Instant switch for the test harness.
                        driver.on_switch_complete(t + SimDuration::from_millis(5), ch);
                    }
                    DriverAction::Transmit { frame, .. } => {
                        if matches!(frame.body, FrameBody::AuthRequest) {
                            return Some(frame.dst);
                        }
                    }
                }
            }
        }
        None
    }

    #[test]
    fn scans_sweep_all_channels() {
        let mut d = StockDriver::new(StockConfig::stock(1));
        let mut visited = std::collections::BTreeSet::new();
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            if let Some(ch) = d.current {
                visited.insert(ch);
            }
            t = d.next_wakeup(t).max(t + SimDuration::from_millis(1));
            for a in d.poll(t) {
                if let DriverAction::SwitchChannel(ch) = a {
                    d.on_switch_complete(t + SimDuration::from_millis(5), ch);
                }
            }
        }
        assert_eq!(visited.len(), 11, "full-band sweep: {visited:?}");
    }

    #[test]
    fn joins_strongest_ap_after_sweep() {
        let mut d = StockDriver::new(StockConfig::quickwifi(1));
        // Hear two APs on channel 6 while sweeping; the stronger wins.
        d.on_frame(
            SimTime::from_millis(1),
            &beacon(100, Channel::CH6, -80.0).rx(),
        );
        d.on_frame(
            SimTime::from_millis(2),
            &beacon(101, Channel::CH6, -55.0).rx(),
        );
        let joined = run_until_auth(&mut d, 2_000);
        assert_eq!(joined, Some(MacAddr::from_id(101)));
    }

    #[test]
    fn rescans_after_connection_down() {
        let mut d = StockDriver::new(StockConfig::quickwifi(1));
        d.on_frame(
            SimTime::from_millis(1),
            &beacon(100, Channel::CH1, -60.0).rx(),
        );
        let joined = run_until_auth(&mut d, 2_000);
        assert!(joined.is_some());
        // Let the link-layer join fail (no responses): the driver must
        // eventually resume scanning (mode != Camped with a busy iface).
        let mut t = SimTime::from_secs(2);
        for _ in 0..200 {
            t = d.next_wakeup(t).max(t + SimDuration::from_millis(1));
            for a in d.poll(t) {
                if let DriverAction::SwitchChannel(ch) = a {
                    d.on_switch_complete(t + SimDuration::from_millis(5), ch);
                }
            }
        }
        assert!(!d.iface.is_busy());
        assert!(matches!(d.mode, Mode::Scanning { .. } | Mode::Switching));
    }

    #[test]
    fn failed_joins_cool_down_without_backoff_strikes() {
        // A beaconing AP that never answers: every link-layer join fails.
        // The stock driver shares Spider's utility table but not its
        // backoff, so it retries as soon as the 2 s cooldown ends, and no
        // strike accumulates however often the AP fails.
        let mut d = StockDriver::new(StockConfig::quickwifi(1));
        let ap = MacAddr::from_id(100);
        let mut t = SimTime::ZERO;
        let mut next_beacon = SimTime::ZERO;
        let mut failed_at = None;
        let mut retries = 0;
        while t < SimTime::from_secs(15) {
            if t >= next_beacon {
                d.on_frame(t, &beacon(100, Channel::CH1, -60.0).rx());
                next_beacon = t + SimDuration::from_millis(100);
            }
            let was_busy = d.iface.is_busy();
            for a in d.poll(t) {
                if let DriverAction::SwitchChannel(ch) = a {
                    d.on_switch_complete(t + SimDuration::from_millis(5), ch);
                }
            }
            match (was_busy, d.iface.is_busy()) {
                (true, false) => failed_at = Some(t),
                (false, true) => {
                    if let Some(failed) = failed_at.take() {
                        let gap = t.saturating_since(failed);
                        assert!(
                            (SimDuration::from_secs(2)..=SimDuration::from_millis(2_500))
                                .contains(&gap),
                            "re-picked {gap:?} after a failed join"
                        );
                        retries += 1;
                    }
                }
                _ => {}
            }
            assert_eq!(d.table.get(ap).map_or(0, |r| r.strikes), 0);
            t = d.next_wakeup(t).max(t + SimDuration::from_millis(1));
        }
        assert!(retries >= 3, "only {retries} retries in 15 s");
        assert!(d.log.join_failures >= 4);
    }

    #[test]
    fn labels_differ() {
        assert_eq!(StockDriver::new(StockConfig::stock(1)).label(), "MadWiFi");
        assert_eq!(
            StockDriver::new(StockConfig::quickwifi(1)).label(),
            "Cabernet"
        );
    }

    #[test]
    fn quickwifi_caches_leases_stock_does_not() {
        assert!(StockConfig::quickwifi(1).cache_leases);
        assert!(!StockConfig::stock(1).cache_leases);
    }
}
