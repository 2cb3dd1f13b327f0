//! A two-node protocol drill: one Spider interface against one AP (MAC +
//! DHCP server), frames shuttled by hand with no world, no loss, no
//! radio. Proves the state machines interoperate and documents the full
//! join message flow:
//!
//! auth req → auth resp → assoc req → assoc resp → DISCOVER → OFFER →
//! REQUEST → ACK → ping → pong → TCP SYN.

use spider_repro::core::iface::{ClientIface, IfaceEvent, SERVER_IP};
use spider_repro::mac80211::{ApConfig, ApEvent, ApMac, ApTarget, ClientMacConfig, JoinLog};
use spider_repro::netstack::{DhcpClientConfig, DhcpServer, DhcpServerConfig, PingConfig};
use spider_repro::simcore::{SimDuration, SimRng, SimTime};
use spider_repro::wire::ip::L4;
use spider_repro::wire::{AirFrame, Channel, Frame, FrameBody, Ipv4Packet, MacAddr, Ssid};

struct Drill {
    iface: ClientIface,
    ap: ApMac,
    dhcp: DhcpServer,
    log: JoinLog,
    now: SimTime,
    /// DHCP responses waiting for their server-side delay to elapse.
    pending: Vec<(SimTime, spider_repro::wire::DhcpMessage)>,
}

impl Drill {
    fn new() -> Drill {
        let bssid = MacAddr::from_id(500);
        Drill {
            iface: ClientIface::new(
                0,
                MacAddr::from_id(1),
                ClientMacConfig::reduced(),
                DhcpClientConfig::reduced(SimDuration::from_millis(200)),
                PingConfig::paper(0),
            ),
            ap: ApMac::new(
                ApConfig::open(bssid, Ssid::new("drill"), Channel::CH6),
                SimTime::MAX, // no beacons needed
            ),
            dhcp: DhcpServer::new(DhcpServerConfig::for_ap(0, (0.05, 0.2)), SimRng::new(9)),
            log: JoinLog::new(),
            now: SimTime::ZERO,
            pending: Vec::new(),
        }
    }

    fn tick(&mut self, ms: u64) -> Vec<AirFrame> {
        self.now += SimDuration::from_millis(ms);
        let mut client_tx = Vec::new();
        for ev in self.iface.poll(self.now, true, &mut self.log) {
            if let IfaceEvent::Transmit(f) = ev {
                client_tx.push(f);
            }
        }
        // Release due DHCP responses.
        let now = self.now;
        let due: Vec<_> = {
            let (due, rest): (Vec<_>, Vec<_>) =
                self.pending.drain(..).partition(|(at, _)| *at <= now);
            self.pending = rest;
            due
        };
        let mut ap_tx = Vec::new();
        for (_, msg) in due {
            let chaddr = msg.chaddr;
            let pkt = Ipv4Packet {
                src: self.dhcp.config().gateway,
                dst: msg.yiaddr,
                payload: L4::Dhcp(msg),
            };
            for ev in self.ap.enqueue_downlink(now, chaddr, pkt, false) {
                if let ApEvent::Send(f) = ev {
                    ap_tx.push(f);
                }
            }
        }
        // Client frames hit the AP.
        for frame in client_tx {
            for ev in self.ap.on_frame(now, &frame) {
                match ev {
                    ApEvent::Send(f) => ap_tx.push(f),
                    ApEvent::DeliverUp { from, packet } => match &packet.payload {
                        L4::Dhcp(msg) => {
                            for ds in self.dhcp.on_message(now, msg) {
                                self.pending.push((ds.at, ds.msg));
                            }
                        }
                        L4::Icmp(msg) => {
                            if packet.dst == SERVER_IP {
                                if let Some(reply) = msg.reply_to() {
                                    let pkt = Ipv4Packet {
                                        src: SERVER_IP,
                                        dst: packet.src,
                                        payload: L4::Icmp(reply),
                                    };
                                    for ev in self.ap.enqueue_downlink(now, from, pkt, true) {
                                        if let ApEvent::Send(f) = ev {
                                            ap_tx.push(f);
                                        }
                                    }
                                }
                            }
                        }
                        L4::Tcp(_) => { /* the drill stops at the SYN */ }
                    },
                    _ => {}
                }
            }
        }
        ap_tx
    }

    fn deliver_to_client(&mut self, frames: Vec<AirFrame>) -> Vec<Frame> {
        let mut out = Vec::new();
        for f in frames {
            for ev in self.iface.on_frame(self.now, &f, &mut self.log) {
                if let IfaceEvent::Transmit(t) = ev {
                    out.push(t);
                }
            }
        }
        out
    }
}

#[test]
fn full_join_across_crates_without_a_world() {
    let mut drill = Drill::new();
    let target = ApTarget {
        bssid: MacAddr::from_id(500),
        ssid: Ssid::new("drill"),
        channel: Channel::CH6,
    };
    drill.iface.start_join(SimTime::ZERO, target, None);

    let mut saw_syn = false;
    for _ in 0..600 {
        let ap_frames = drill.tick(10);
        let replies = drill.deliver_to_client(ap_frames);
        // Client's immediate replies (acks, follow-up handshakes) loop
        // straight back to the AP.
        let now = drill.now;
        for f in &replies {
            if let FrameBody::Data { packet, .. } = &f.body {
                if matches!(&packet.payload, L4::Tcp(s) if s.flags.syn) {
                    saw_syn = true;
                }
            }
            for ev in drill.ap.on_frame(now, f) {
                if let ApEvent::DeliverUp { packet, .. } = ev {
                    if let L4::Dhcp(msg) = &packet.payload {
                        for ds in drill.dhcp.on_message(now, msg) {
                            drill.pending.push((ds.at, ds.msg));
                        }
                    }
                }
            }
        }
        if drill.iface.is_connected() && saw_syn {
            break;
        }
    }
    assert!(drill.iface.is_connected(), "join never completed");
    assert!(saw_syn, "no TCP connection was initiated after the join");
    assert_eq!(drill.log.assoc.len(), 1);
    assert_eq!(drill.log.dhcp.len(), 1);
    assert_eq!(drill.log.join.len(), 1);
    assert!(drill.ap.is_associated(MacAddr::from_id(1)));
    // The join took: association (~ms) + DHCP (0.05-0.2s offer + ack)
    // + first ping round trip.
    let join = drill.log.join[0].took;
    assert!(join < SimDuration::from_secs(2), "join took {join}");
}
