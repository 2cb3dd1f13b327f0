//! AP-side DHCP server.
//!
//! The paper's analytical model abstracts an AP's join responsiveness as
//! a uniformly distributed response time β ∈ [βmin, βmax] (§2.1.1); real
//! consumer APs take anywhere from tens of milliseconds to many seconds
//! to produce an OFFER. [`DhcpServerConfig::offer_delay_s`] is that β. ACKs
//! to REQUESTs are cheaper (the server just confirms), modelled by a
//! separate smaller delay.
//!
//! Address assignment is stable per client MAC — re-encountering the
//! same AP yields the same address, which is what makes client-side
//! lease caching (INIT-REBOOT) work.

use spider_simcore::{FxHashMap, SimDuration, SimRng, SimTime};
use spider_wire::{DhcpMessage, DhcpOp, Ipv4Addr, MacAddr};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct DhcpServerConfig {
    /// The server identifier / gateway address.
    pub gateway: Ipv4Addr,
    /// First assignable address (addresses are allocated sequentially
    /// from here).
    pub pool_start: Ipv4Addr,
    /// Number of assignable addresses.
    pub pool_size: u32,
    /// Lease duration granted.
    pub lease_time: SimDuration,
    /// OFFER delay bounds in seconds (the model's βmin, βmax).
    pub offer_delay_s: (f64, f64),
    /// ACK delay bounds in seconds.
    pub ack_delay_s: (f64, f64),
}

impl DhcpServerConfig {
    /// A server for AP number `ap_id` with the given β bounds, carving a
    /// distinct 10.x.y.0/24 per AP.
    pub fn for_ap(ap_id: usize, beta: (f64, f64)) -> DhcpServerConfig {
        let hi = ((ap_id >> 8) & 0xff) as u8;
        let lo = (ap_id & 0xff) as u8;
        DhcpServerConfig {
            gateway: Ipv4Addr::new(10, hi, lo, 1),
            pool_start: Ipv4Addr::new(10, hi, lo, 10),
            pool_size: 200,
            lease_time: SimDuration::from_secs(3600),
            offer_delay_s: beta,
            ack_delay_s: (beta.0 * 0.1, beta.1 * 0.1),
        }
    }
}

/// A response the caller must transmit at time `at`.
#[derive(Debug, Clone)]
pub struct DelayedSend {
    /// When to transmit.
    pub at: SimTime,
    /// What to transmit.
    pub msg: DhcpMessage,
}

/// The DHCP server state machine.
#[derive(Debug, Clone)]
pub struct DhcpServer {
    cfg: DhcpServerConfig,
    rng: SimRng,
    assignments: FxHashMap<MacAddr, Ipv4Addr>,
    next_index: u32,
}

impl DhcpServer {
    /// Create a server with its own RNG stream.
    pub fn new(cfg: DhcpServerConfig, rng: SimRng) -> DhcpServer {
        DhcpServer {
            cfg,
            rng,
            assignments: FxHashMap::default(),
            next_index: 0,
        }
    }

    /// The server's configuration.
    pub fn config(&self) -> &DhcpServerConfig {
        &self.cfg
    }

    fn address_for(&mut self, mac: MacAddr) -> Option<Ipv4Addr> {
        if let Some(ip) = self.assignments.get(&mac) {
            return Some(*ip);
        }
        // Sequential allocation, skipping any address another client
        // already holds — a cached-lease REQUEST (INIT-REBOOT) may have
        // claimed an address ahead of the allocation cursor.
        while self.next_index < self.cfg.pool_size {
            let ip = Ipv4Addr::from_u32(self.cfg.pool_start.to_u32() + self.next_index);
            self.next_index += 1;
            if !self.assignments.values().any(|&a| a == ip) {
                self.assignments.insert(mac, ip);
                return Some(ip);
            }
        }
        None
    }

    /// Whether `ip` lies inside this server's pool.
    fn in_pool(&self, ip: Ipv4Addr) -> bool {
        let base = self.cfg.pool_start.to_u32();
        let v = ip.to_u32();
        v >= base && v < base + self.cfg.pool_size
    }

    /// Process a client message received at `now`; returns responses with
    /// their transmission times.
    pub fn on_message(&mut self, now: SimTime, msg: &DhcpMessage) -> Vec<DelayedSend> {
        match msg.op {
            DhcpOp::Discover => {
                let Some(ip) = self.address_for(msg.chaddr) else {
                    return Vec::new(); // pool exhausted: silence
                };
                let delay = SimDuration::from_secs_f64(
                    self.rng
                        .uniform_in(self.cfg.offer_delay_s.0, self.cfg.offer_delay_s.1),
                );
                vec![DelayedSend {
                    at: now + delay,
                    msg: DhcpMessage {
                        op: DhcpOp::Offer,
                        xid: msg.xid,
                        chaddr: msg.chaddr,
                        yiaddr: ip,
                        server_id: self.cfg.gateway,
                        lease: self.cfg.lease_time,
                    },
                }]
            }
            DhcpOp::Request => {
                let delay = SimDuration::from_secs_f64(
                    self.rng
                        .uniform_in(self.cfg.ack_delay_s.0, self.cfg.ack_delay_s.1),
                );
                // Accept if the address is this client's assignment, or an
                // unassigned in-pool address (cached-lease re-confirmation
                // after a server restart).
                let current = self.assignments.get(&msg.chaddr).copied();
                let acceptable = match current {
                    Some(ip) => ip == msg.yiaddr,
                    None => {
                        self.in_pool(msg.yiaddr)
                            && !self.assignments.values().any(|&a| a == msg.yiaddr)
                    }
                };
                let op = if acceptable && msg.server_id == self.cfg.gateway {
                    if current.is_none() {
                        self.assignments.insert(msg.chaddr, msg.yiaddr);
                    }
                    DhcpOp::Ack
                } else {
                    DhcpOp::Nak
                };
                vec![DelayedSend {
                    at: now + delay,
                    msg: DhcpMessage {
                        op,
                        xid: msg.xid,
                        chaddr: msg.chaddr,
                        yiaddr: msg.yiaddr,
                        server_id: self.cfg.gateway,
                        lease: self.cfg.lease_time,
                    },
                }]
            }
            // Server ignores server-originated ops.
            DhcpOp::Offer | DhcpOp::Ack | DhcpOp::Nak => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(beta: (f64, f64)) -> DhcpServer {
        DhcpServer::new(DhcpServerConfig::for_ap(3, beta), SimRng::new(42))
    }

    #[test]
    fn discover_gets_delayed_offer() {
        let mut s = server((0.5, 2.0));
        let mac = MacAddr::from_id(1);
        let out = s.on_message(SimTime::ZERO, &DhcpMessage::discover(7, mac));
        assert_eq!(out.len(), 1);
        let DelayedSend { at, msg } = &out[0];
        assert_eq!(msg.op, DhcpOp::Offer);
        assert_eq!(msg.xid, 7);
        assert_eq!(msg.server_id, Ipv4Addr::new(10, 0, 3, 1));
        let d = at.as_secs_f64();
        assert!((0.5..=2.0).contains(&d), "offer delay {d}");
    }

    #[test]
    fn assignment_is_stable_per_mac() {
        let mut s = server((0.1, 0.2));
        let mac = MacAddr::from_id(1);
        let ip1 = s.on_message(SimTime::ZERO, &DhcpMessage::discover(1, mac))[0]
            .msg
            .yiaddr;
        let ip2 = s.on_message(SimTime::from_secs(10), &DhcpMessage::discover(2, mac))[0]
            .msg
            .yiaddr;
        assert_eq!(ip1, ip2);
        let other = s.on_message(
            SimTime::ZERO,
            &DhcpMessage::discover(1, MacAddr::from_id(2)),
        )[0]
        .msg
        .yiaddr;
        assert_ne!(ip1, other);
    }

    #[test]
    fn request_after_offer_is_acked() {
        let mut s = server((0.1, 0.2));
        let mac = MacAddr::from_id(1);
        let offer = s.on_message(SimTime::ZERO, &DhcpMessage::discover(1, mac))[0]
            .msg
            .clone();
        let req = DhcpMessage::request(1, mac, offer.yiaddr, offer.server_id);
        let out = s.on_message(SimTime::from_secs(1), &req);
        assert_eq!(out[0].msg.op, DhcpOp::Ack);
        assert_eq!(out[0].msg.lease, SimDuration::from_secs(3600));
        // ACK delay is an order of magnitude smaller than the offer delay.
        assert!(
            out[0]
                .at
                .saturating_since(SimTime::from_secs(1))
                .as_secs_f64()
                <= 0.02 + 1e-9
        );
    }

    #[test]
    fn cached_request_for_free_in_pool_address_is_acked() {
        let mut s = server((0.1, 0.2));
        let mac = MacAddr::from_id(1);
        let ip = Ipv4Addr::new(10, 0, 3, 50);
        let req = DhcpMessage::request(5, mac, ip, Ipv4Addr::new(10, 0, 3, 1));
        let out = s.on_message(SimTime::ZERO, &req);
        assert_eq!(out[0].msg.op, DhcpOp::Ack);
        // The binding persists.
        let again = s.on_message(SimTime::from_secs(1), &DhcpMessage::discover(6, mac));
        assert_eq!(again[0].msg.yiaddr, ip);
    }

    #[test]
    fn request_for_someone_elses_address_is_nakked() {
        let mut s = server((0.1, 0.2));
        let a = MacAddr::from_id(1);
        let b = MacAddr::from_id(2);
        let ip_a = s.on_message(SimTime::ZERO, &DhcpMessage::discover(1, a))[0]
            .msg
            .yiaddr;
        let req = DhcpMessage::request(2, b, ip_a, Ipv4Addr::new(10, 0, 3, 1));
        let out = s.on_message(SimTime::ZERO, &req);
        assert_eq!(out[0].msg.op, DhcpOp::Nak);
    }

    #[test]
    fn request_for_out_of_pool_address_is_nakked() {
        let mut s = server((0.1, 0.2));
        let req = DhcpMessage::request(
            2,
            MacAddr::from_id(1),
            Ipv4Addr::new(192, 168, 1, 5),
            Ipv4Addr::new(10, 0, 3, 1),
        );
        assert_eq!(s.on_message(SimTime::ZERO, &req)[0].msg.op, DhcpOp::Nak);
    }

    #[test]
    fn wrong_server_id_is_nakked() {
        let mut s = server((0.1, 0.2));
        let mac = MacAddr::from_id(1);
        let ip = s.on_message(SimTime::ZERO, &DhcpMessage::discover(1, mac))[0]
            .msg
            .yiaddr;
        let req = DhcpMessage::request(1, mac, ip, Ipv4Addr::new(10, 9, 9, 1));
        assert_eq!(s.on_message(SimTime::ZERO, &req)[0].msg.op, DhcpOp::Nak);
    }

    #[test]
    fn pool_exhaustion_goes_silent() {
        let mut cfg = DhcpServerConfig::for_ap(0, (0.1, 0.2));
        cfg.pool_size = 2;
        let mut s = DhcpServer::new(cfg, SimRng::new(1));
        assert!(!s
            .on_message(
                SimTime::ZERO,
                &DhcpMessage::discover(1, MacAddr::from_id(1))
            )
            .is_empty());
        assert!(!s
            .on_message(
                SimTime::ZERO,
                &DhcpMessage::discover(1, MacAddr::from_id(2))
            )
            .is_empty());
        assert!(s
            .on_message(
                SimTime::ZERO,
                &DhcpMessage::discover(1, MacAddr::from_id(3))
            )
            .is_empty());
    }

    #[test]
    fn server_ignores_server_ops() {
        let mut s = server((0.1, 0.2));
        let msg = DhcpMessage {
            op: DhcpOp::Offer,
            xid: 1,
            chaddr: MacAddr::from_id(1),
            yiaddr: Ipv4Addr::new(10, 0, 3, 10),
            server_id: Ipv4Addr::new(10, 0, 3, 1),
            lease: SimDuration::ZERO,
        };
        assert!(s.on_message(SimTime::ZERO, &msg).is_empty());
    }
}

#[cfg(all(test, feature = "proptest-tests"))]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The server never assigns one address to two clients: across an
        /// arbitrary interleaving of DISCOVERs and REQUESTs, every ACKed
        /// (mac, ip) binding is injective.
        #[test]
        fn no_duplicate_address_grants(
            ops in prop::collection::vec((0u64..20, any::<bool>(), 0u32..300), 1..80),
            seed in 0u64..1_000,
        ) {
            let mut cfg = DhcpServerConfig::for_ap(1, (0.01, 0.02));
            cfg.pool_size = 10; // force contention
            let mut server = DhcpServer::new(cfg, SimRng::new(seed));
            let mut grants: std::collections::HashMap<Ipv4Addr, MacAddr> =
                std::collections::HashMap::new();
            let mut offered: std::collections::HashMap<MacAddr, Ipv4Addr> =
                std::collections::HashMap::new();
            let mut now = SimTime::ZERO;
            for (mac_id, is_request, req_ip_off) in ops {
                now = now + SimDuration::from_millis(10);
                let mac = MacAddr::from_id(mac_id);
                let msg = if is_request {
                    let ip = offered.get(&mac).copied().unwrap_or(Ipv4Addr::new(
                        10,
                        0,
                        1,
                        10 + (req_ip_off % 30) as u8,
                    ));
                    DhcpMessage::request(1, mac, ip, Ipv4Addr::new(10, 0, 1, 1))
                } else {
                    DhcpMessage::discover(1, mac)
                };
                for ds in server.on_message(now, &msg) {
                    match ds.msg.op {
                        DhcpOp::Offer => {
                            offered.insert(ds.msg.chaddr, ds.msg.yiaddr);
                        }
                        DhcpOp::Ack => {
                            if let Some(owner) = grants.get(&ds.msg.yiaddr) {
                                prop_assert_eq!(
                                    *owner, ds.msg.chaddr,
                                    "address {} granted to two clients", ds.msg.yiaddr
                                );
                            }
                            grants.insert(ds.msg.yiaddr, ds.msg.chaddr);
                        }
                        _ => {}
                    }
                }
            }
        }

        /// Responses always carry the request's xid and chaddr, and land
        /// within the configured delay bounds.
        #[test]
        fn responses_echo_identity_and_respect_delays(
            xid: u32, mac_id in 0u64..50, seed in 0u64..1_000,
        ) {
            let mut server = DhcpServer::new(
                DhcpServerConfig::for_ap(2, (0.5, 2.0)),
                SimRng::new(seed),
            );
            let mac = MacAddr::from_id(mac_id);
            let now = SimTime::from_secs(5);
            for ds in server.on_message(now, &DhcpMessage::discover(xid, mac)) {
                prop_assert_eq!(ds.msg.xid, xid);
                prop_assert_eq!(ds.msg.chaddr, mac);
                let delay = ds.at.saturating_since(now).as_secs_f64();
                prop_assert!((0.5..=2.0).contains(&delay), "delay {delay}");
            }
        }
    }
}
