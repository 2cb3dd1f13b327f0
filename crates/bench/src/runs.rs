//! Standard experiment runs shared across binaries.

use spider_baselines::{StockConfig, StockDriver};
use spider_core::{ChannelSchedule, OperationMode, SpiderConfig, SpiderDriver};
use spider_mac80211::ClientSystem;
use spider_simcore::{sweep, sweep_with, worker_count, Json, SimDuration};
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

/// Standard town-drive parameters used by the §4 experiments (30-minute
/// loop drive at 10 m/s through the measured channel mix).
pub fn town_params(seed: u64) -> ScenarioParams {
    ScenarioParams {
        duration: SimDuration::from_secs(1_800),
        seed,
        ..Default::default()
    }
}

/// Deployment seed pinned across Table 2's seeds. Every seed shares
/// one physical town (and one Boston variant), so seeds diverge only in
/// world RNG — beacon phases, DHCP draws, loss.
pub const TABLE2_DEPLOY_SEED: u64 = 1;

/// [`town_params`] with the deployment pinned to
/// [`TABLE2_DEPLOY_SEED`]: Table 2's per-seed parameters.
pub fn table2_params(seed: u64) -> ScenarioParams {
    ScenarioParams {
        deploy_seed: Some(TABLE2_DEPLOY_SEED),
        ..town_params(seed)
    }
}

/// Run any client system through a world.
pub fn run_driver<C: ClientSystem>(cfg: WorldConfig, client: C) -> RunResult {
    World::new(cfg, client).run()
}

/// Run Spider with the given configuration.
pub fn spider_run(cfg: WorldConfig, spider: SpiderConfig) -> RunResult {
    run_driver(cfg, SpiderDriver::new(spider))
}

/// The standard §4 configurations, each paired with the label used in
/// the paper's Table 2.
pub struct StdConfigs;

impl StdConfigs {
    /// The paper's multi-channel scheduling period (600 ms over 1/6/11).
    pub fn period() -> SimDuration {
        SimDuration::from_millis(600)
    }

    /// Number of rows in [`StdConfigs::table2`].
    pub const TABLE2_ROWS: usize = 6;

    /// Label of Table 2 row `row` (see [`StdConfigs::table2`]).
    pub fn table2_label(row: usize) -> &'static str {
        match row {
            0 => "(1) Channel 1, Multi-AP",
            1 => "(2) Channel 1, Single-AP",
            2 => "(3) Multi-channel, Multi-AP",
            3 => "(4) Multi-channel, Single-AP",
            4 => "(2) Channel 6, Single-AP (Cambridge)",
            5 => "MadWiFi driver",
            _ => panic!("table2 has {} rows", Self::TABLE2_ROWS),
        }
    }

    /// Run Table 2 row `row` on `seed`. The deployment is always
    /// pinned to [`TABLE2_DEPLOY_SEED`]; `seed` sets only the world RNG
    /// streams.
    pub fn table2_row(row: usize, seed: u64) -> RunResult {
        let params = table2_params(seed);
        let period = Self::period();
        let mode = match row {
            0 => OperationMode::SingleChannelMultiAp(Channel::CH1),
            1 => OperationMode::SingleChannelSingleAp(Channel::CH1),
            2 => OperationMode::MultiChannelMultiAp { period },
            3 => OperationMode::MultiChannelSingleAp { period },
            // Cambridge (Boston mix): channel 6 single-AP, the external
            // validation row.
            4 => {
                return spider_run(
                    boston_scenario(&params),
                    SpiderConfig::for_mode(OperationMode::SingleChannelSingleAp(Channel::CH6), 1),
                )
            }
            5 => {
                return run_driver(
                    town_scenario(&params),
                    StockDriver::new(StockConfig::stock(1)),
                )
            }
            _ => panic!("table2 has {} rows", Self::TABLE2_ROWS),
        };
        spider_run(town_scenario(&params), SpiderConfig::for_mode(mode, 1))
    }

    /// Table 2's four Spider rows on the town drive (plus MadWiFi), with
    /// the Cambridge rows from the Boston scenario. Rows run as one
    /// parallel sweep; the returned order is always the row order.
    pub fn table2(seed: u64) -> Vec<(String, RunResult)> {
        let jobs: Vec<usize> = (0..Self::TABLE2_ROWS).collect();
        let results = sweep(&jobs, |&row| Self::table2_row(row, seed));
        jobs.iter()
            .zip(results)
            .map(|(&row, result)| (Self::table2_label(row).to_string(), result))
            .collect()
    }

    /// [`StdConfigs::table2`] across several seeds as one flat sweep:
    /// one entry per row, carrying that row's per-seed results in seed
    /// order.
    pub fn table2_seeds(seeds: &[u64]) -> Vec<(String, Vec<RunResult>)> {
        Self::table2_seeds_with(seeds, worker_count())
    }

    /// [`StdConfigs::table2_seeds`] with an explicit worker count. The
    /// output is byte-identical at any worker count; `bench_world`
    /// gates exactly that.
    pub fn table2_seeds_with(seeds: &[u64], workers: usize) -> Vec<(String, Vec<RunResult>)> {
        // Seed-major job order.
        let jobs: Vec<(usize, u64)> = seeds
            .iter()
            .flat_map(|&seed| (0..Self::TABLE2_ROWS).map(move |row| (row, seed)))
            .collect();
        let flat = sweep_with(&jobs, |&(row, seed)| Self::table2_row(row, seed), workers);
        let mut results: Vec<Option<RunResult>> = flat.into_iter().map(Some).collect();
        (0..Self::TABLE2_ROWS)
            .map(|row| {
                let per_seed = (0..seeds.len())
                    .map(|s| {
                        results[s * Self::TABLE2_ROWS + row]
                            .take()
                            .expect("each (row, seed) job runs exactly once")
                    })
                    .collect();
                (Self::table2_label(row).to_string(), per_seed)
            })
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
    fn table2_labels_cover_every_row() {
        let labels: Vec<&str> = (0..StdConfigs::TABLE2_ROWS)
            .map(StdConfigs::table2_label)
            .collect();
        assert_eq!(labels.len(), 6);
        assert!(labels[0].contains("Multi-AP"));
        assert!(labels[4].contains("Cambridge"));
        assert!(labels[5].contains("MadWiFi"));
    }

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
        let world = town_scenario(&params);
        let result = spider_run(
            world,
            SpiderConfig::for_mode(OperationMode::SingleChannelMultiAp(Channel::CH1), 1),
        );
        assert!(result.duration == SimDuration::from_secs(60));
    }
}
