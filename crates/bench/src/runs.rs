//! Standard experiment runs shared across binaries.

use spider_baselines::{FatVapConfig, FatVapDriver, StockConfig, StockDriver};
use spider_core::adaptive::AdaptiveSpider;
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

/// One drive of a registry: a client system on a variant of the town
/// drive of [`town_params`].
#[derive(Clone, Debug)]
pub struct TownDrive {
    /// The client system driven.
    pub client: TownClient,
    /// The town it drives through.
    pub town: Town,
}

/// The client system of a [`TownDrive`].
#[derive(Clone, Debug)]
pub enum TownClient {
    /// Spider.
    Spider(SpiderConfig),
    /// The stock MadWiFi driver.
    MadWifi,
    /// The FatVAP driver with its default configuration.
    FatVap,
    /// The §4.8 adaptive scheduler over channel-6 multi-AP Spider, its
    /// speed hint the town's speed.
    Adaptive,
}

/// The town of a [`TownDrive`]: [`town_params`] with at most one change.
#[derive(Clone, Debug)]
pub enum Town {
    /// The town as [`town_params`] builds it.
    Standard,
    /// The Boston channel mix: Table 2's Cambridge row.
    Boston,
    /// The town driven at this speed (m/s).
    Speed(f64),
    /// A town where selection history matters: 30 % of the open APs
    /// never answer DHCP (captive portals, filtered DHCP) and the
    /// working ones are slow (β ∈ (0.5, 6.0) s).
    Harsh,
    /// The counterfactual town whose APs PSM-buffer join traffic for
    /// sleeping clients, as real 802.11 APs do not.
    PsmBuffered,
}

impl TownClient {
    /// This client on `town`.
    pub fn on(self, town: Town) -> TownDrive {
        TownDrive { client: self, town }
    }
}

impl TownDrive {
    /// Drive the town once on `seed`.
    pub fn run(&self, seed: u64) -> RunResult {
        let mut params = town_params(seed);
        match self.town {
            Town::Speed(mps) => params.speed_mps = mps,
            Town::Harsh => {
                params.dead_dhcp_fraction = 0.30;
                params.dhcp_beta = (0.5, 6.0);
            }
            Town::Standard | Town::Boston | Town::PsmBuffered => {}
        }
        let mut world = match self.town {
            Town::Boston => boston_scenario(&params),
            _ => town_scenario(&params),
        };
        world.psm_buffers_join_traffic = matches!(self.town, Town::PsmBuffered);
        match &self.client {
            TownClient::Spider(cfg) => World::new(world, SpiderDriver::new(cfg.clone())).run(),
            TownClient::MadWifi => World::new(world, StockDriver::new(StockConfig::stock(1))).run(),
            TownClient::FatVap => {
                World::new(world, FatVapDriver::new(FatVapConfig::default())).run()
            }
            TownClient::Adaptive => {
                let mode = OperationMode::SingleChannelMultiAp(Channel::CH6);
                let mut adaptive =
                    AdaptiveSpider::new(SpiderDriver::new(SpiderConfig::for_mode(mode, 1)));
                adaptive.set_speed_hint(params.speed_mps);
                World::new(world, adaptive).run()
            }
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
        let spider = |mode| TownClient::Spider(SpiderConfig::for_mode(mode, 1));
        [
            spider(OperationMode::SingleChannelMultiAp(Channel::CH1)).on(Town::Standard),
            spider(OperationMode::SingleChannelSingleAp(Channel::CH1)).on(Town::Standard),
            spider(OperationMode::MultiChannelMultiAp { period }).on(Town::Standard),
            spider(OperationMode::MultiChannelSingleAp { period }).on(Town::Standard),
            spider(OperationMode::SingleChannelSingleAp(Channel::CH6)).on(Town::Boston),
            TownClient::MadWifi.on(Town::Standard),
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
