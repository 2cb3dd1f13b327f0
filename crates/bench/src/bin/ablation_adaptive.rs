//! Ablation: the §4.8 adaptive scheduler vs the four static modes,
//! across speeds.
//!
//! The adaptive policy should track the best static mode at each speed:
//! multi-channel at walking pace (connectivity-rich), single-channel at
//! vehicular speed (the dividing-speed result).

use spider_bench::{print_table, town_params, write_csv};
use spider_core::adaptive::AdaptiveSpider;
use spider_core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_simcore::{sweep, SimDuration};
use spider_wire::Channel;
use spider_workloads::scenarios::town_scenario;
use spider_workloads::World;

/// Policies measured per speed, in column order.
const POLICIES: usize = 3;

fn run_policy(policy: usize, speed: f64) -> (f64, f64) {
    let period = SimDuration::from_millis(600);
    let mut params = town_params(1);
    params.speed_mps = speed;
    let world = town_scenario(&params);
    let result = match policy {
        0 => {
            let mode = OperationMode::SingleChannelMultiAp(Channel::CH1);
            World::new(world, SpiderDriver::new(SpiderConfig::for_mode(mode, 1))).run()
        }
        1 => {
            let mode = OperationMode::MultiChannelMultiAp { period };
            World::new(world, SpiderDriver::new(SpiderConfig::for_mode(mode, 1))).run()
        }
        _ => {
            let inner = SpiderDriver::new(SpiderConfig::for_mode(
                OperationMode::SingleChannelMultiAp(Channel::CH6),
                1,
            ));
            let mut adaptive = AdaptiveSpider::new(inner);
            adaptive.set_speed_hint(speed);
            World::new(world, adaptive).run()
        }
    };
    (result.throughput_kbs(), result.connectivity_pct())
}

fn main() {
    let speeds = [2.5, 5.0, 10.0, 20.0];
    let mut jobs = Vec::new();
    for &speed in &speeds {
        for policy in 0..POLICIES {
            jobs.push((policy, speed));
        }
    }
    let results = sweep(&jobs, |&(policy, speed)| run_policy(policy, speed));

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (s, &speed) in speeds.iter().enumerate() {
        let mut cells = vec![format!("{speed}")];
        let mut row = vec![speed];
        for policy in 0..POLICIES {
            let (kbs, conn) = results[s * POLICIES + policy];
            row.push(kbs);
            row.push(conn);
            cells.push(format!("{kbs:.0}/{conn:.0}%"));
        }
        rows.push(row);
        table.push(cells);
    }
    print_table(
        "Ablation: adaptive scheduling vs static modes (KB/s / connectivity)",
        &[
            "speed(m/s)",
            "static ch1 multi-AP",
            "static 3ch multi-AP",
            "adaptive",
        ],
        &table,
    );
    let path = write_csv(
        "ablation_adaptive.csv",
        &[
            "speed",
            "ch1_kbs",
            "ch1_conn",
            "m3_kbs",
            "m3_conn",
            "adaptive_kbs",
            "adaptive_conn",
        ],
        rows,
    );
    println!("\nwrote {}", path.display());
}
