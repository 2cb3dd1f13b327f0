//! Standard experiment runs shared across binaries.

use spider_baselines::{StockConfig, StockDriver};
use spider_core::{ChannelSchedule, OperationMode, SpiderConfig, SpiderDriver};
use spider_simcore::{sweep_with, Json, SimDuration};
use spider_wire::Channel;
use spider_workloads::metrics::RunResult;
use spider_workloads::scenarios::{boston_scenario, town_scenario, ScenarioParams};
use spider_workloads::{World, WorldConfig};

// Send/Sync audit for the parallel sweep runner: every input a sweep
// job needs to *build* a world (and every output it hands back) must
// cross a thread boundary. Spelling the bounds out here turns a lost
// `Send` — say, an `Rc` slipping into a config — into a compile error
// at the layer that owns the jobs, not an opaque one inside a closure.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<ScenarioParams>();
    assert_send_sync::<WorldConfig>();
    assert_send_sync::<SpiderConfig>();
    assert_send_sync::<StockConfig>();
    assert_send_sync::<ChannelSchedule>();
    assert_send::<RunResult>();
};

/// Emit one labelled batch of runs as a JSON artifact under
/// `target/experiments/`. Each entry is [`RunResult::to_json`], so two
/// deterministic batches produce byte-identical files — diffing
/// artifacts across machines or worker counts doubles as a determinism
/// check. Returns the path written.
pub fn emit_runs_json(name: &str, runs: &[(String, RunResult)]) -> std::path::PathBuf {
    let doc = Json::obj([(
        "runs",
        Json::arr(runs.iter().map(|(label, r)| {
            Json::obj([("config", Json::str(label.clone())), ("run", r.to_json())])
        })),
    )]);
    crate::output::write_json(name, &doc)
}

/// The §4 town drive: a 30-minute loop at 10 m/s through the measured
/// channel mix. Every seed drives through one physical town (and one
/// Boston variant): the deployment is pinned to seed 1, so seeds
/// diverge only in world RNG — beacon phases, DHCP draws, loss.
pub fn town_params(seed: u64) -> ScenarioParams {
    ScenarioParams {
        duration: SimDuration::from_secs(1_800),
        seed,
        deploy_seed: Some(1),
        ..Default::default()
    }
}

/// A client system on the town drive of [`town_params`].
#[derive(Clone)]
pub enum TownDrive {
    /// Spider on the town drive.
    Spider(SpiderConfig),
    /// Spider on the Boston channel mix: Table 2's Cambridge row.
    Cambridge(SpiderConfig),
    /// The stock MadWiFi driver on the town drive.
    MadWifi,
}

impl TownDrive {
    /// Drive `town_params(seed)` once.
    pub fn run(&self, seed: u64) -> RunResult {
        let params = town_params(seed);
        let spider = |cfg: &SpiderConfig| SpiderDriver::new(cfg.clone());
        match self {
            TownDrive::Spider(cfg) => World::new(town_scenario(&params), spider(cfg)).run(),
            TownDrive::Cambridge(cfg) => World::new(boston_scenario(&params), spider(cfg)).run(),
            TownDrive::MadWifi => World::new(
                town_scenario(&params),
                StockDriver::new(StockConfig::stock(1)),
            )
            .run(),
        }
    }
}

/// Run each drive once on each of its seeds, as one sweep on `workers`
/// workers. Entry `i` holds drive `i`'s results in the order of its
/// seeds, byte-identical at any worker count.
pub fn run_town_drives(drives: &[(TownDrive, &[u64])], workers: usize) -> Vec<Vec<RunResult>> {
    let jobs: Vec<(&TownDrive, u64)> = drives
        .iter()
        .flat_map(|(drive, seeds)| seeds.iter().map(move |&seed| (drive, seed)))
        .collect();
    let mut flat = sweep_with(&jobs, |&(drive, seed)| drive.run(seed), workers).into_iter();
    drives
        .iter()
        .map(|(_, seeds)| flat.by_ref().take(seeds.len()).collect())
        .collect()
}

/// The standard §4 configurations, each paired with the label used in
/// the paper's Table 2.
pub struct StdConfigs;

impl StdConfigs {
    /// The paper's multi-channel scheduling period (600 ms over 1/6/11).
    pub fn period() -> SimDuration {
        SimDuration::from_millis(600)
    }

    /// Number of Table 2 rows.
    pub const TABLE2_ROWS: usize = 6;

    /// Labels of Table 2's rows, in the order of [`StdConfigs::table2_drives`].
    pub const TABLE2_LABELS: [&'static str; Self::TABLE2_ROWS] = [
        "(1) Channel 1, Multi-AP",
        "(2) Channel 1, Single-AP",
        "(3) Multi-channel, Multi-AP",
        "(4) Multi-channel, Single-AP",
        "(2) Channel 6, Single-AP (Cambridge)",
        "MadWiFi driver",
    ];

    /// Table 2's drives: the four Spider operation modes with their
    /// default (reduced) timers, the Cambridge row (channel 6 single-AP
    /// on the Boston mix), then MadWiFi.
    pub fn table2_drives() -> [TownDrive; Self::TABLE2_ROWS] {
        let period = Self::period();
        let spider = |mode| SpiderConfig::for_mode(mode, 1);
        [
            TownDrive::Spider(spider(OperationMode::SingleChannelMultiAp(Channel::CH1))),
            TownDrive::Spider(spider(OperationMode::SingleChannelSingleAp(Channel::CH1))),
            TownDrive::Spider(spider(OperationMode::MultiChannelMultiAp { period })),
            TownDrive::Spider(spider(OperationMode::MultiChannelSingleAp { period })),
            TownDrive::Cambridge(spider(OperationMode::SingleChannelSingleAp(Channel::CH6))),
            TownDrive::MadWifi,
        ]
    }

    /// Table 2's rows across several seeds as one sweep on `workers`
    /// workers: one entry per row, labelled, carrying that row's
    /// per-seed results in seed order. The output is byte-identical at
    /// any worker count; `bench_world` gates exactly that.
    pub fn table2_seeds_with(seeds: &[u64], workers: usize) -> Vec<(String, Vec<RunResult>)> {
        let drives: Vec<(TownDrive, &[u64])> = Self::table2_drives()
            .into_iter()
            .map(|drive| (drive, seeds))
            .collect();
        Self::TABLE2_LABELS
            .iter()
            .zip(run_town_drives(&drives, workers))
            .map(|(label, results)| (label.to_string(), results))
            .collect()
    }

    /// The §2.2 schedule family: fraction `x` of the period on channel 6,
    /// the remainder split between channels 1 and 11 (`D = 400 ms`).
    pub fn f6_schedule(x: f64) -> ChannelSchedule {
        let period = SimDuration::from_millis(400);
        if x >= 1.0 {
            ChannelSchedule::single(Channel::CH6)
        } else {
            let rest = (1.0 - x) / 2.0;
            ChannelSchedule::custom(
                period,
                vec![
                    (Channel::CH6, x),
                    (Channel::CH1, rest),
                    (Channel::CH11, rest),
                ],
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f6_schedule_fractions() {
        let s = StdConfigs::f6_schedule(0.5);
        assert!((s.fraction(Channel::CH6) - 0.5).abs() < 1e-9);
        assert!((s.fraction(Channel::CH1) - 0.25).abs() < 1e-9);
        let full = StdConfigs::f6_schedule(1.0);
        assert!(full.is_single_channel());
    }

    #[test]
    fn short_table2_smoke() {
        // A 60-second version of the Table 2 run as a smoke test.
        let mut params = town_params(3);
        params.duration = SimDuration::from_secs(60);
        let cfg = SpiderConfig::for_mode(OperationMode::SingleChannelMultiAp(Channel::CH1), 1);
        let result = World::new(town_scenario(&params), SpiderDriver::new(cfg)).run();
        assert!(result.duration == SimDuration::from_secs(60));
    }
}
