//! A `World` run is a pure function of its inputs (DESIGN.md §13): any
//! `(seed, backhaul)` pair run twice yields bit-identical results, and
//! throughput never exceeds what the backhaul can carry.

use spider_repro::core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_repro::simcore::check::check;
use spider_repro::simcore::SimDuration;
use spider_repro::wire::Channel;
use spider_repro::workloads::scenarios::lab_scenario;
use spider_repro::workloads::World;

#[test]
fn world_is_a_pure_function_of_its_inputs() {
    check("world_is_a_pure_function_of_its_inputs", 8, |g| {
        let seed = g.u64(0..1_000);
        let backhaul_bps = g.u64(50..500) as f64 * 1_000.0;
        let run = || {
            let cfg = lab_scenario(
                &[Channel::CH1],
                backhaul_bps,
                SimDuration::from_secs(10),
                seed,
            );
            let mode = OperationMode::SingleChannelMultiAp(Channel::CH1);
            World::new(cfg, SpiderDriver::new(SpiderConfig::for_mode(mode, 1))).run()
        };
        let (a, b) = (run(), run());
        assert!(a.bytes > 0, "seed {seed} moved no data");
        assert!(
            a == b,
            "two runs of seed {seed} at {backhaul_bps} b/s differ: {} vs {} bytes, \
             {} vs {} joins",
            a.bytes,
            b.bytes,
            a.join_log.join.len(),
            b.join_log.join.len()
        );
        // A small burst tolerance covers the first window.
        assert!(
            a.avg_throughput_bps <= backhaul_bps * 1.10 + 1.0,
            "throughput {} exceeds backhaul {backhaul_bps}",
            a.avg_throughput_bps
        );
    });
}
