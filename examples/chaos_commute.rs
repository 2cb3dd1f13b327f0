//! A stormy commute: the town drive of Table 2, but every AP can
//! misbehave — blackouts, zombies, silent or exhausted DHCP servers,
//! ICMP-filtered gateways, loss bursts (DESIGN.md §8). Prints how fast
//! each injected fault was detected and recovered from, Spider vs. the
//! stock and FatVAP baselines.
//!
//! ```sh
//! cargo run --release --example chaos_commute
//! ```

use spider_repro::baselines::{FatVapConfig, FatVapDriver, StockConfig, StockDriver};
use spider_repro::core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_repro::simcore::SimDuration;
use spider_repro::wire::Channel;
use spider_repro::workloads::scenarios::{town_scenario, ScenarioParams};
use spider_repro::workloads::{FaultPlan, FaultStats, RunResult, World, WorldConfig};

fn stormy_town(seed: u64, fault_seed: u64) -> WorldConfig {
    let params = ScenarioParams {
        duration: SimDuration::from_secs(600),
        seed,
        ..Default::default()
    };
    let mut cfg = town_scenario(&params);
    cfg.faults = FaultPlan::stormy(fault_seed, cfg.deployment.len(), cfg.duration);
    cfg
}

fn report(label: &str, result: &RunResult) {
    let f: &FaultStats = &result.faults;
    println!("\n{label}");
    println!(
        "  goodput {:>7.1} KB/s   connectivity {:>5.1}%   {} joins, {} failed",
        result.throughput_kbs(),
        result.connectivity_pct(),
        result.join_log.join.len(),
        result.join_log.join_failures,
    );
    println!(
        "  drops by fault: blackout {} | zombie {} | dhcp-silent {} | \
         dhcp-nak {} | icmp-filtered {}   ({} AP reboots)",
        f.frames_dropped_blackout,
        f.packets_dropped_zombie,
        f.dhcp_dropped_silent,
        f.dhcp_naks_exhausted,
        f.icmp_dropped_filtered,
        f.ap_reboots,
    );
    match (f.mean_detect_s(), f.mean_recover_s()) {
        (Some(d), Some(r)) => {
            println!(
                "  detected {} dead links, mean {:.2} s after onset; \
                 mean recovery {:.2} s over {} episodes",
                f.detect_times_s.len(),
                d,
                r,
                f.recover_times_s.len(),
            );
            print!("  per-fault detect:");
            for t in &f.detect_times_s {
                print!(" {t:.2}s");
            }
            print!("\n  per-fault recover:");
            for t in &f.recover_times_s {
                print!(" {t:.2}s");
            }
            println!();
        }
        _ => println!("  no mid-session fault was pinned on this driver"),
    }
}

fn main() {
    println!(
        "A 10-minute town drive through a fault storm (seeded, fully\n\
         deterministic): every AP may black out, go zombie, stop serving\n\
         DHCP, NAK cached leases, filter ICMP, or burst-lose frames."
    );

    let (seed, fault_seed) = (42, 1042);

    let spider = World::new(
        stormy_town(seed, fault_seed),
        SpiderDriver::new(SpiderConfig::for_mode(
            OperationMode::SingleChannelMultiAp(Channel::CH1),
            1,
        )),
    )
    .run();
    report("Spider (1 channel, multi-AP)", &spider);

    let spider_mc = World::new(
        stormy_town(seed, fault_seed),
        SpiderDriver::new(SpiderConfig::for_mode(
            OperationMode::MultiChannelMultiAp {
                period: SimDuration::from_millis(600),
            },
            1,
        )),
    )
    .run();
    report("Spider (3 channels, multi-AP)", &spider_mc);

    let stock = World::new(
        stormy_town(seed, fault_seed),
        StockDriver::new(StockConfig::quickwifi(1)),
    )
    .run();
    report("stock roaming (QuickWiFi timers)", &stock);

    let fatvap = World::new(
        stormy_town(seed, fault_seed),
        FatVapDriver::new(FatVapConfig::default()),
    )
    .run();
    report("FatVAP-style AP slicing", &fatvap);

    println!(
        "\nDetection clocks start at episode onset for clients present\n\
         when the fault lands (and at the first swallowed packet for\n\
         mid-episode joins), so drivers that are off-channel (the\n\
         3-channel schedule) or mid-join see longer times than the\n\
         3.0 s lab-condition ping budget enforced by tests/chaos.rs. Spider's recovery stack — 10/s end-to-end pings\n\
         (30 losses = dead), gateway-ping fallback, NAK-driven lease\n\
         eviction, and the utility table's per-AP backoff — keeps the\n\
         storm from trapping it on a dead AP: the 1-channel mode holds\n\
         its goodput, the 3-channel mode its connectivity, matching the\n\
         fair-weather Table 2 split."
    );
}
