//! Capture and dissect a drive: run a short scenario with frame capture
//! enabled, then read the captured frames back and print a protocol
//! timeline — the simulator's `tcpdump`.
//!
//! ```sh
//! cargo run --release --example capture_trace
//! ```

use spider_repro::core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_repro::simcore::{SimDuration, SimTime};
use spider_repro::wire::ip::L4;
use spider_repro::wire::{Channel, FrameBody};
use spider_repro::workloads::scenarios::lab_scenario;
use spider_repro::workloads::{Direction, World};
use std::collections::BTreeMap;

fn main() {
    let duration = SimDuration::from_secs(10);
    let mut cfg = lab_scenario(&[Channel::CH1, Channel::CH1], 250_000.0, duration, 42);
    cfg.capture = Some(100_000);
    let driver = SpiderDriver::new(SpiderConfig::for_mode(
        OperationMode::SingleChannelMultiAp(Channel::CH1),
        1,
    ));
    let mut world = World::new(cfg, driver);
    world.run_until(SimTime::ZERO + duration);
    let records = world.captured().to_vec();
    let result = world.run();
    println!("{result}\n");

    println!("captured {} frames", records.len());

    // Frame-type census.
    let mut census: BTreeMap<&'static str, usize> = BTreeMap::new();
    for r in &records {
        let kind = match &r.frame.body {
            FrameBody::Beacon { .. } => "beacon",
            FrameBody::ProbeRequest { .. } => "probe-req",
            FrameBody::ProbeResponse { .. } => "probe-resp",
            FrameBody::AuthRequest => "auth-req",
            FrameBody::AuthResponse { .. } => "auth-resp",
            FrameBody::AssocRequest { .. } => "assoc-req",
            FrameBody::AssocResponse { .. } => "assoc-resp",
            FrameBody::Deauth { .. } => "deauth",
            FrameBody::Null { .. } => "psm-null",
            FrameBody::PsPoll => "ps-poll",
            FrameBody::Data { packet, .. } => match &packet.payload {
                L4::Dhcp(_) => "dhcp",
                L4::Icmp(_) => "icmp",
                L4::Tcp(_) => "tcp",
            },
        };
        *census.entry(kind).or_default() += 1;
    }
    println!("\nframe census:");
    for (kind, count) in &census {
        println!("  {kind:12} {count:>6}");
    }

    // The first 20 non-TCP frames, tcpdump style.
    println!("\nfirst 20 control-plane frames:");
    for r in records
        .iter()
        .filter(|r| {
            !matches!(&r.frame.body, FrameBody::Data { packet, .. }
                if matches!(packet.payload, L4::Tcp(_)))
        })
        .take(20)
    {
        let dir = match r.direction {
            Direction::ToClient => "→ client",
            Direction::ToAp => "→ ap    ",
        };
        println!(
            "  {:>10.6}s {dir}  {} → {}  {:?}",
            r.at.as_secs_f64(),
            r.frame.src,
            r.frame.dst,
            discriminant_name(&r.frame.body),
        );
    }
}

fn discriminant_name(body: &FrameBody) -> String {
    match body {
        FrameBody::Data { packet, .. } => match &packet.payload {
            L4::Dhcp(m) => format!("DHCP {:?}", m.op),
            L4::Icmp(m) => format!("{m:?}"),
            L4::Tcp(s) => format!("TCP seq={}", s.seq),
        },
        other => {
            let s = format!("{other:?}");
            s.split([' ', '{']).next().unwrap_or("?").to_string()
        }
    }
}
