//! A commute: downtown crawl, then a fast arterial — driven with the
//! §4.8 adaptive scheduler, which rotates channels while slow and locks
//! to the busiest channel at speed.
//!
//! ```sh
//! cargo run --release --example vehicular_commute
//! ```

use spider_repro::core::adaptive::AdaptiveSpider;
use spider_repro::core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_repro::simcore::SimDuration;
use spider_repro::wire::Channel;
use spider_repro::workloads::scenarios::{town_scenario, ScenarioParams};
use spider_repro::workloads::World;

fn leg(name: &str, speed_mps: f64, seed: u64) {
    let params = ScenarioParams {
        duration: SimDuration::from_secs(600),
        speed_mps,
        seed,
        ..Default::default()
    };
    println!("\n--- {name}: {speed_mps} m/s for 10 minutes ---");

    // Adaptive Spider, fed the leg's speed (GPS in a real deployment).
    let world = town_scenario(&params);
    let inner = SpiderDriver::new(SpiderConfig::for_mode(
        OperationMode::SingleChannelMultiAp(Channel::CH6),
        1,
    ));
    let mut adaptive = AdaptiveSpider::new(inner);
    adaptive.set_speed_hint(speed_mps);
    let result = World::new(world, adaptive).run();
    println!(
        "adaptive:          {:>7.1} KB/s  {:>5.1}% connectivity  ({} joins)",
        result.throughput_kbs(),
        result.connectivity_pct(),
        result.join_log.join.len()
    );

    // The two static policies it arbitrates between, for reference.
    for (label, mode) in [
        (
            "static 1-channel:",
            OperationMode::SingleChannelMultiAp(Channel::CH1),
        ),
        (
            "static 3-channel:",
            OperationMode::MultiChannelMultiAp {
                period: SimDuration::from_millis(600),
            },
        ),
    ] {
        let world = town_scenario(&params);
        let result = World::new(world, SpiderDriver::new(SpiderConfig::for_mode(mode, 1))).run();
        println!(
            "{label:18} {:>7.1} KB/s  {:>5.1}% connectivity",
            result.throughput_kbs(),
            result.connectivity_pct()
        );
    }
}

fn main() {
    println!("A commute in two legs, same client logic, different speeds.");
    leg("downtown crawl", 3.0, 21);
    leg("arterial road", 15.0, 22);
    println!(
        "\nThe adaptive scheduler follows the paper's dividing-speed rule\n\
         (§2.1.3): below ~10 m/s rotating channels buys connectivity for\n\
         little cost; above it, channel switching strangles TCP and the\n\
         scheduler pins the busiest channel."
    );
}
