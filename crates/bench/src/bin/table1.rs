//! Table 1: channel-switching latency of the driver as a function of the
//! number of associated virtual interfaces.
//!
//! The latency is a hardware reset plus one PSM frame per associated
//! interface on the old channel and one poll on the new (≈4.9 ms + 0.25
//! ms per interface; the paper measured 4.94–5.95 ms across 0–4
//! interfaces). Besides the analytic values we *measure* the switch in a
//! live world: a Spider driver with N associated interfaces alternating
//! between two channels.

use spider_bench::{print_table, write_csv};
use spider_core::{ChannelSchedule, OperationMode, SpiderConfig, SpiderDriver};
use spider_radio::PhyParams;
use spider_simcore::{sweep, SimDuration};
use spider_wire::Channel;
use spider_workloads::scenarios::indoor_scenario;
use spider_workloads::World;

fn main() {
    let phy = PhyParams::b11();
    let jobs: Vec<usize> = (0..=4).collect();
    let results = sweep(&jobs, |&ifaces| {
        let analytic_ms = phy.switch_latency(ifaces).as_millis_f64();

        // Live measurement: N APs on ch1, schedule alternating ch1/ch6;
        // count switches over a fixed horizon and infer the per-switch
        // cost from the radio's own accounting.
        let period = SimDuration::from_millis(400);
        let schedule =
            ChannelSchedule::custom(period, vec![(Channel::CH1, 0.5), (Channel::CH6, 0.5)]);
        let channels = vec![Channel::CH1; ifaces.max(1)];
        let world = indoor_scenario(&channels, 10.0, 250_000.0, SimDuration::from_secs(30), 5);
        let mut cfg = SpiderConfig::for_mode(OperationMode::MultiChannelMultiAp { period }, 1)
            .with_schedule(schedule);
        if ifaces == 0 {
            cfg = cfg.with_candidates(vec![]); // join nothing
        }
        let result = World::new(world, SpiderDriver::new(cfg)).run();
        (analytic_ms, result.switches)
    });

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (&ifaces, &(analytic_ms, switches)) in jobs.iter().zip(&results) {
        rows.push(vec![ifaces as f64, analytic_ms]);
        table.push(vec![
            format!("{ifaces}"),
            format!("{analytic_ms:.3}"),
            format!("{switches}"),
        ]);
    }
    print_table(
        "Table 1: channel switching latency (ms) vs associated interfaces",
        &["interfaces", "latency (ms)", "switches in 30s live run"],
        &table,
    );
    let path = write_csv("table1.csv", &["interfaces", "latency_ms"], rows);
    println!("\nwrote {}", path.display());
    println!("\nPaper: 4.942, 4.952, 5.266, 5.546, 5.945 ms for 0-4 interfaces.");
}
