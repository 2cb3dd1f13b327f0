//! The macro benchmark: full `World` runs under fixed-seed workloads.
//!
//! Four scenarios exercise the engine's distinct regimes:
//!
//! * `sparse_commute` — a 10-minute drive at the default suburban AP
//!   density. Dominated by TCP/beacon traffic to a handful of in-range
//!   APs; the historical steady state.
//! * `dense_downtown` — a 30-minute drive through a deployment of more
//!   than 1,000 sites. This is the scenario the spatial grid index
//!   exists for: without it every tick scans every AP.
//! * `chaos_storm` — the dense deployment under a seeded stormy
//!   [`FaultPlan`](spider_workloads::FaultPlan), stressing the fault
//!   lookup path on every frame and the periodic fault sweep.
//! * `stock_commute` — Table 2's stock MadWiFi row (10 minutes of the
//!   Table 2 town), the events/sec anchor for the baseline-driver path.
//!
//! Every scenario is a pure function of its seed, so the numbers in
//! `BENCH_world.json` are reproducible modulo machine speed. The
//! `--check` mode of the `bench_world` binary compares fresh
//! events/sec against the checked-in JSON and fails on a >2x drop.

use crate::runs::StdConfigs;
use spider_baselines::{StockConfig, StockDriver};
use spider_core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_simcore::{worker_count, Json, SimDuration, SimTime};
use spider_wire::Channel;
use spider_workloads::campaign::{
    run_campaign, run_campaign_forked, CampaignConfig, ChaosProfile, CheckpointTrie, SloMetric,
    SloRule, SloTable,
};
use spider_workloads::scenarios::{town_scenario, ScenarioParams};
use spider_workloads::{FaultEpisode, FaultKind, FaultPlan, World};
use std::time::Instant;

/// Factor by which events/sec may drop versus the checked-in baseline
/// before `--check` fails the run.
pub const REGRESSION_FACTOR: f64 = 2.0;

/// One fixed-seed benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// Stable name, used as the JSON key and the `--check` join key.
    pub name: &'static str,
    /// Simulated run length in seconds.
    pub sim_secs: u64,
    /// Deployment density (open APs per km of road).
    pub density_per_km: f64,
    /// World seed (deployment, DHCP, loss, backhaul draws).
    pub seed: u64,
    /// Overlay a seeded stormy fault plan (seed [`STORM_SEED`]).
    pub storm: bool,
    /// Drive the stock baseline instead of single-channel Spider.
    pub stock: bool,
    /// Minimum deployment size the run asserts (0 = no floor).
    pub min_sites: usize,
}

/// Seed for the `chaos_storm` fault plan.
pub const STORM_SEED: u64 = 99;

/// The benchmark suite. `fast` shortens simulated durations for CI
/// smoke runs; the deployments (and therefore the engine's data-
/// structure sizes) are identical in both modes, so events/sec stays
/// comparable across modes.
pub fn scenarios(fast: bool) -> Vec<ScenarioSpec> {
    let scale = |secs: u64| if fast { (secs / 10).max(30) } else { secs };
    vec![
        ScenarioSpec {
            name: "sparse_commute",
            sim_secs: scale(600),
            density_per_km: 12.0,
            seed: 42,
            storm: false,
            stock: false,
            min_sites: 0,
        },
        ScenarioSpec {
            name: "dense_downtown",
            sim_secs: scale(1_800),
            density_per_km: 220.0,
            seed: 42,
            storm: false,
            stock: false,
            min_sites: 1_000,
        },
        ScenarioSpec {
            name: "chaos_storm",
            sim_secs: scale(300),
            density_per_km: 220.0,
            seed: 42,
            storm: true,
            stock: false,
            min_sites: 1_000,
        },
        ScenarioSpec {
            name: "stock_commute",
            sim_secs: scale(600),
            density_per_km: ScenarioParams::default().density_per_km,
            // World seed 1 also draws Table 2's pinned town
            // (`TABLE2_DEPLOY_SEED`).
            seed: 1,
            storm: false,
            stock: true,
            min_sites: 0,
        },
    ]
}

/// Measured outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Deployment size actually generated.
    pub sites: usize,
    /// World seed.
    pub seed: u64,
    /// Simulated seconds.
    pub sim_secs: u64,
    /// Wall-clock seconds for the run.
    pub wall_secs: f64,
    /// Discrete events processed.
    pub events: u64,
    /// Events per wall-clock second — the headline figure.
    pub events_per_sec: f64,
    /// Application bytes delivered (a cheap cross-run sanity anchor).
    pub bytes: u64,
}

impl ScenarioResult {
    /// Render as one entry of the `scenarios` array of
    /// `BENCH_world.json`; `name` and `events_per_sec` are the keys
    /// `--check` reads back.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name.clone())),
            ("sites", Json::UInt(self.sites as u64)),
            ("seed", Json::UInt(self.seed)),
            ("sim_seconds", Json::UInt(self.sim_secs)),
            ("wall_seconds", Json::Num(self.wall_secs)),
            ("events", Json::UInt(self.events)),
            ("events_per_sec", Json::Num(self.events_per_sec)),
            ("bytes", Json::UInt(self.bytes)),
        ])
    }
}

/// Build and run one scenario, timing the whole `World::run`.
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioResult {
    let params = ScenarioParams {
        duration: SimDuration::from_secs(spec.sim_secs),
        seed: spec.seed,
        density_per_km: spec.density_per_km,
        ..Default::default()
    };
    let mut cfg = town_scenario(&params);
    let sites = cfg.deployment.len();
    assert!(
        sites >= spec.min_sites,
        "{}: deployment has {sites} sites, benchmark requires >= {}",
        spec.name,
        spec.min_sites
    );
    if spec.storm {
        cfg.faults = FaultPlan::stormy(STORM_SEED, sites, cfg.duration);
    }
    let t = Instant::now();
    let result = if spec.stock {
        World::new(cfg, StockDriver::new(StockConfig::stock(1))).run()
    } else {
        let driver = SpiderDriver::new(SpiderConfig::for_mode(
            OperationMode::SingleChannelMultiAp(Channel::CH6),
            1,
        ));
        World::new(cfg, driver).run()
    };
    let wall_secs = t.elapsed().as_secs_f64();
    ScenarioResult {
        name: spec.name.to_string(),
        sites,
        seed: spec.seed,
        sim_secs: spec.sim_secs,
        wall_secs,
        events: result.events,
        events_per_sec: result.events as f64 / wall_secs.max(1e-9),
        bytes: result.bytes,
    }
}

/// Pre-rewrite engine figures, measured on the same scenarios at commit
/// `cb89511` (linear AP scans, deep-copied frames, flat fault plan).
/// Kept in the JSON so the speedup claim travels with the numbers.
pub const PRE_PR_DENSE_EVENTS_PER_SEC: f64 = 2_489_000.0;

/// Measured outcome of the sweep-runner suite benchmark: the same
/// batch of experiment jobs run on one worker and on the worker pool.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Number of independent experiment jobs in the batch.
    pub jobs: usize,
    /// Worker threads used for the parallel leg.
    pub workers: usize,
    /// Wall-clock seconds for the serial leg (1 worker).
    pub serial_wall_secs: f64,
    /// Wall-clock seconds for the parallel leg.
    pub parallel_wall_secs: f64,
    /// Total simulated events of the serial leg. Deterministic — a pure
    /// function of the job list — unlike wall seconds.
    pub events_serial: u64,
    /// Total simulated events of the parallel leg; equal to
    /// [`events_serial`](Self::events_serial) when the sweep is
    /// deterministic.
    pub events_parallel: u64,
    /// The parallel leg's results equalled the serial leg byte for
    /// byte — the deterministic gate. Wall-clock speedup stays
    /// informational: a 1-vCPU CI runner legitimately measures 1.00.
    pub identical: bool,
}

impl SuiteResult {
    /// Serial / parallel wall-time ratio (informational; machine
    /// dependent).
    pub fn speedup(&self) -> f64 {
        self.serial_wall_secs / self.parallel_wall_secs.max(1e-9)
    }

    /// Render as the `suite` section of `BENCH_world.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "note",
                Json::str(
                    "sweep runner on Table 2 drives: identical batch on 1 worker vs the pool; \
                     the gate is the deterministic event accounting and byte-identity, \
                     wall seconds are informational",
                ),
            ),
            ("experiment_jobs", Json::UInt(self.jobs as u64)),
            ("workers", Json::UInt(self.workers as u64)),
            ("serial_wall_seconds", Json::Num(self.serial_wall_secs)),
            ("parallel_wall_seconds", Json::Num(self.parallel_wall_secs)),
            ("parallel_speedup", Json::Num(self.speedup())),
            ("events_serial", Json::UInt(self.events_serial)),
            ("events_parallel", Json::UInt(self.events_parallel)),
            ("identical", Json::Bool(self.identical)),
        ])
    }
}

/// Benchmark the sweep runner on a representative slice of the
/// experiment suite: Table 2's six configurations across three seeds
/// (one seed in fast mode), i.e. real 30-minute `World` drives, not a
/// synthetic load. Runs the identical batch twice through
/// [`StdConfigs::table2_seeds_with`] — once on one worker, once on
/// [`worker_count`] workers — and asserts the results are byte-
/// identical, which is the sweep determinism contract measured on the
/// real workload. The event totals of both legs are recorded so the
/// gate rests on deterministic numbers, not on machine-dependent
/// wall-clock speedup.
pub fn run_suite_bench(fast: bool) -> SuiteResult {
    let seeds: &[u64] = if fast { &[1] } else { &[1, 2, 3] };

    let t = Instant::now();
    let serial = StdConfigs::table2_seeds_with(seeds, 1);
    let serial_wall_secs = t.elapsed().as_secs_f64();

    let workers = worker_count();
    let t = Instant::now();
    let parallel = StdConfigs::table2_seeds_with(seeds, workers);
    let parallel_wall_secs = t.elapsed().as_secs_f64();

    let render = |rows: &[(String, Vec<spider_workloads::RunResult>)]| -> Vec<String> {
        rows.iter()
            .flat_map(|(_, rs)| rs.iter().map(|r| r.to_json().pretty()))
            .collect()
    };
    let identical = render(&serial) == render(&parallel);
    assert!(
        identical,
        "suite bench: parallel Table 2 sweep diverged from the serial leg"
    );
    let events = |rows: &[(String, Vec<spider_workloads::RunResult>)]| -> u64 {
        rows.iter()
            .flat_map(|(_, rs)| rs.iter().map(|r| r.events))
            .sum()
    };

    SuiteResult {
        jobs: seeds.len() * StdConfigs::TABLE2_ROWS,
        workers,
        serial_wall_secs,
        parallel_wall_secs,
        events_serial: events(&serial),
        events_parallel: events(&parallel),
        identical,
    }
}

/// Measured outcome of the checkpoint/fork engine benchmark
/// (DESIGN.md §13): one cold run vs the same run resumed from a
/// mid-run checkpoint, and a full shrink campaign evaluated cold vs
/// through a [`CheckpointTrie`].
#[derive(Debug, Clone)]
pub struct CheckpointResult {
    /// Deployment size of the benchmark world.
    pub sites: usize,
    /// Simulated seconds per world run.
    pub sim_secs: u64,
    /// Wall-clock seconds for the cold run of the failing schedule.
    pub cold_wall_secs: f64,
    /// Wall-clock seconds to finish the same run from a checkpoint
    /// taken just before the first episode (prefix already paid).
    pub fork_wall_secs: f64,
    /// The forked run's `RunResult` equalled the cold run's, bit for
    /// bit — the identity anchor the wall-clock comparison rests on.
    pub identical: bool,
    /// `still_fails` evaluations the shrinker spent (same in both legs
    /// by construction).
    pub shrink_evals: usize,
    /// Wall-clock seconds for the shrink campaign with every
    /// evaluation simulated from `t = 0`.
    pub shrink_cold_wall_secs: f64,
    /// Wall-clock seconds for the same campaign through the
    /// checkpoint trie.
    pub shrink_forked_wall_secs: f64,
    /// Events a cold evaluation of every candidate would have cost.
    pub shrink_events_cold: u64,
    /// Events the forked campaign actually simulated (advances plus
    /// post-divergence suffixes).
    pub shrink_events_simulated: u64,
    /// Both legs minimized to the identical schedule in the same
    /// number of evaluations.
    pub minimized_identical: bool,
    /// [`shrink_events_simulated`](Self::shrink_events_simulated)
    /// under the earliest-start divergence rule, as recorded.
    pub shrink_events_before: u64,
}

impl CheckpointResult {
    /// Simulated-event reduction of the forked shrink campaign — the
    /// machine-independent headline (event counts are deterministic).
    pub fn events_ratio(&self) -> f64 {
        self.shrink_events_cold as f64 / self.shrink_events_simulated.max(1) as f64
    }

    /// Render as the `checkpoint` section of `BENCH_world.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "note",
                Json::str(
                    "checkpoint/fork engine on a late-fault schedule: resume vs cold, \
                     and the shrink campaign through the checkpoint trie",
                ),
            ),
            ("sites", Json::UInt(self.sites as u64)),
            ("sim_seconds", Json::UInt(self.sim_secs)),
            (
                "resume",
                Json::obj([
                    ("cold_wall_seconds", Json::Num(self.cold_wall_secs)),
                    ("forked_wall_seconds", Json::Num(self.fork_wall_secs)),
                    ("bit_identical", Json::Bool(self.identical)),
                ]),
            ),
            (
                "shrink_campaign",
                Json::obj([
                    ("evals", Json::UInt(self.shrink_evals as u64)),
                    ("cold_wall_seconds", Json::Num(self.shrink_cold_wall_secs)),
                    (
                        "forked_wall_seconds",
                        Json::Num(self.shrink_forked_wall_secs),
                    ),
                    ("events_cold", Json::UInt(self.shrink_events_cold)),
                    ("events_simulated", Json::UInt(self.shrink_events_simulated)),
                    ("events_ratio", Json::Num(self.events_ratio())),
                    ("minimized_identical", Json::Bool(self.minimized_identical)),
                    (
                        "before",
                        before_json(self.shrink_events_before, self.shrink_events_cold),
                    ),
                ]),
            ),
        ])
    }
}

/// Seed for the checkpoint benchmark's world (campaign-style town).
const CHECKPOINT_WORLD_SEED: u64 = 7;

/// Events the two trie legs simulated, `(shrink, campaign)`, when a
/// plan diverged at its earliest episode start (commit 95d4f4b) rather
/// than where a difference is first observable (DESIGN.md §13.2). Cold
/// counts are the same under both rules.
fn events_before(fast: bool) -> (u64, u64) {
    if fast {
        (144_756, 1_225_125)
    } else {
        (458_851, 6_338_394)
    }
}

/// The `before` object of a trie leg: what it simulated under the
/// earliest-start rule, against the same cold count.
fn before_json(simulated: u64, cold: u64) -> Json {
    Json::obj([
        (
            "rule",
            Json::str("divergence at the earliest episode start (commit 95d4f4b)"),
        ),
        ("events_simulated", Json::UInt(simulated)),
        (
            "events_ratio",
            Json::Num(cold as f64 / simulated.max(1) as f64),
        ),
    ])
}

/// The failing schedule the checkpoint benchmark shrinks: compound
/// faults concentrated in the final tenth of the drive. This is the
/// regime the fork engine targets — shrink candidates differ from the
/// reference only late in simulated time, so evaluations resume a long
/// shared prefix instead of re-simulating it. The window is kept this
/// late deliberately: fault episodes are event-dense (retries,
/// rescans), so the events saved by sharing the prefix track the
/// *quiet* fraction of the drive, not just the time fraction.
fn checkpoint_bench_plan(duration: SimDuration) -> FaultPlan {
    let at = |f: f64| SimTime::ZERO + SimDuration::from_secs_f64(duration.as_secs_f64() * f);
    FaultPlan::scripted(vec![
        FaultEpisode {
            ap: None,
            kind: FaultKind::LossBurst { extra: 0.4 },
            start: at(0.90),
            end: at(0.98),
        },
        FaultEpisode {
            ap: None,
            kind: FaultKind::Blackout,
            start: at(0.905),
            end: at(0.925),
        },
        FaultEpisode {
            ap: None,
            kind: FaultKind::Zombie,
            start: at(0.93),
            end: at(0.95),
        },
        FaultEpisode {
            ap: None,
            kind: FaultKind::DhcpSilence,
            start: at(0.955),
            end: at(0.975),
        },
    ])
}

/// Benchmark the checkpoint/fork engine (DESIGN.md §13) on a
/// campaign-style town drive with [`checkpoint_bench_plan`] faults.
///
/// Two legs, both asserting bit-identity against cold runs:
///
/// * **resume** — the failing schedule run cold, then finished from a
///   checkpoint taken just before its first episode;
/// * **shrink campaign** — [`CheckpointTrie::shrink`] under an
///   unmeetable SLO table, once through the cold trie (every candidate
///   from `t = 0`) and once through a sharing one, comparing
///   wall-clock, simulated events, and the minimized artifact.
pub fn run_checkpoint_bench(fast: bool) -> CheckpointResult {
    let sim_secs: u64 = if fast { 120 } else { 300 };
    let duration = SimDuration::from_secs(sim_secs);
    let params = ScenarioParams {
        duration,
        seed: CHECKPOINT_WORLD_SEED,
        density_per_km: 40.0,
        ..Default::default()
    };
    let sites = town_scenario(&params).deployment.len();
    let make = |plan: &FaultPlan| {
        let mut cfg = town_scenario(&params);
        cfg.faults = plan.clone();
        World::new(
            cfg,
            SpiderDriver::new(SpiderConfig::for_mode(
                OperationMode::SingleChannelMultiAp(Channel::CH6),
                1,
            )),
        )
    };
    let plan = checkpoint_bench_plan(duration);
    // Any detection at all violates: forces the shrinker to work.
    let slo = SloTable {
        rules: vec![
            SloRule {
                metric: SloMetric::MaxDetectS("blackout"),
                budget: 0.0,
            },
            SloRule {
                metric: SloMetric::MaxDetectS("zombie"),
                budget: 0.0,
            },
        ],
    };

    // Leg 1: cold run vs fork-resumed run of the same schedule.
    let t = Instant::now();
    let cold = make(&plan).run();
    let cold_wall_secs = t.elapsed().as_secs_f64();
    let first_start = plan
        .episodes
        .iter()
        .map(|e| e.start)
        .min()
        .expect("bench plan has episodes");
    let boundary = SimTime::from_micros(first_start.as_micros() - 1);
    let (base, _, _) = make(&FaultPlan::none()).advance_shared(boundary, first_start);
    let t = Instant::now();
    let forked = base.fork_with_plan(plan.clone()).finish().0;
    let fork_wall_secs = t.elapsed().as_secs_f64();
    let identical = forked == cold;

    // Leg 2: the shrink campaign, cold vs through the checkpoint trie.
    let budget = 60;
    let mut cold = CheckpointTrie::cold(&make);
    let t = Instant::now();
    let cold_outcome = cold.shrink(&plan, budget, &slo);
    let shrink_cold_wall_secs = t.elapsed().as_secs_f64();

    let mut trie = CheckpointTrie::new(&make);
    trie.insert(plan.clone());
    let t = Instant::now();
    let forked_outcome = trie.shrink(&plan, budget, &slo);
    let shrink_forked_wall_secs = t.elapsed().as_secs_f64();

    CheckpointResult {
        sites,
        sim_secs,
        cold_wall_secs,
        fork_wall_secs,
        identical,
        shrink_evals: cold_outcome.evals,
        shrink_cold_wall_secs,
        shrink_forked_wall_secs,
        shrink_events_cold: cold.stats.events_cold,
        shrink_events_simulated: trie.stats.events_simulated,
        minimized_identical: cold_outcome.plan == forked_outcome.plan
            && cold_outcome.evals == forked_outcome.evals,
        shrink_events_before: events_before(fast).0,
    }
}

/// Measured outcome of the checkpoint prefix-tree benchmark: a chaos
/// campaign whose trials fork from a divergence trie instead of each
/// simulating its own prefix (DESIGN.md §13).
#[derive(Debug, Clone)]
pub struct PrefixTreeResult {
    /// Trials in the campaign leg.
    pub campaign_trials: usize,
    /// Wall seconds for the cold campaign ([`run_campaign`]).
    pub campaign_cold_wall_secs: f64,
    /// Wall seconds for the forked campaign through the trie.
    pub campaign_forked_wall_secs: f64,
    /// Events the cold path would simulate for the same campaign
    /// (deterministic, from [`ForkStats`]).
    pub campaign_events_cold: u64,
    /// Events the forked campaign actually simulated (tree advances
    /// plus post-divergence suffixes, shrink phase included).
    pub campaign_events_simulated: u64,
    /// Forked [`CampaignReport`] byte-identical to the cold report.
    pub campaign_identical: bool,
    /// Checkpoints the forked campaign materialized.
    pub checkpoints: usize,
    /// [`campaign_events_simulated`](Self::campaign_events_simulated)
    /// under the earliest-start divergence rule, as recorded.
    pub campaign_events_before: u64,
}

impl PrefixTreeResult {
    /// Simulated-event reduction of the forked campaign — the
    /// machine-independent headline the `bench_world` gate enforces
    /// (>= 3.4 in both modes).
    pub fn campaign_events_ratio(&self) -> f64 {
        self.campaign_events_cold as f64 / self.campaign_events_simulated.max(1) as f64
    }

    /// Render as the `prefix_tree` section of `BENCH_world.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "note",
                Json::str(
                    "checkpoint prefix-tree: cross-trial checkpoint sharing through \
                     the campaign divergence trie",
                ),
            ),
            (
                "campaign_trie",
                Json::obj([
                    ("trials", Json::UInt(self.campaign_trials as u64)),
                    ("cold_wall_seconds", Json::Num(self.campaign_cold_wall_secs)),
                    (
                        "forked_wall_seconds",
                        Json::Num(self.campaign_forked_wall_secs),
                    ),
                    ("events_cold", Json::UInt(self.campaign_events_cold)),
                    (
                        "events_simulated",
                        Json::UInt(self.campaign_events_simulated),
                    ),
                    ("events_ratio", Json::Num(self.campaign_events_ratio())),
                    ("report_identical", Json::Bool(self.campaign_identical)),
                    ("checkpoints", Json::UInt(self.checkpoints as u64)),
                    (
                        "before",
                        before_json(self.campaign_events_before, self.campaign_events_cold),
                    ),
                ]),
            ),
        ])
    }
}

/// Benchmark the checkpoint prefix-tree (DESIGN.md §13): a tight-SLO
/// chaos campaign run cold ([`run_campaign`]) and through the
/// divergence trie ([`run_campaign_forked`]); reports must be
/// byte-identical while the trie simulates measurably fewer events.
pub fn run_prefix_tree_bench(fast: bool) -> PrefixTreeResult {
    // A tight-SLO chaos campaign on the checkpoint bench's town, once
    // cold and once through the divergence trie. Back-loaded schedules (every episode in the second half of the
    // drive) are the regime the trie targets — long shared fault-free
    // prefixes — matching the checkpoint bench's final-tenth scenario.
    let campaign_sim_secs: u64 = if fast { 120 } else { 300 };
    let params = ScenarioParams {
        duration: SimDuration::from_secs(campaign_sim_secs),
        seed: CHECKPOINT_WORLD_SEED,
        density_per_km: 40.0,
        ..Default::default()
    };
    let sites = town_scenario(&params).deployment.len();
    let make = |plan: &FaultPlan| {
        let mut cfg = town_scenario(&params);
        cfg.faults = plan.clone();
        World::new(
            cfg,
            SpiderDriver::new(SpiderConfig::for_mode(
                OperationMode::SingleChannelMultiAp(Channel::CH6),
                1,
            )),
        )
    };
    let campaign_cfg = CampaignConfig {
        trials: if fast { 8 } else { 16 },
        seed: CHECKPOINT_WORLD_SEED,
        num_aps: sites,
        duration: SimDuration::from_secs(campaign_sim_secs),
        profile: ChaosProfile::back_loaded(0.5),
        // Any detection at all violates: failing trials exercise the
        // shrink phase of both legs.
        slo: SloTable {
            rules: vec![
                SloRule {
                    metric: SloMetric::MaxDetectS("blackout"),
                    budget: 0.0,
                },
                SloRule {
                    metric: SloMetric::MaxDetectS("zombie"),
                    budget: 0.0,
                },
            ],
        },
        shrink_budget: 60,
        max_shrinks: 2,
        workers: 4,
        watchdog_ms: None,
    };
    let t = Instant::now();
    let report_cold = run_campaign(&campaign_cfg, make);
    let campaign_cold_wall_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (report_forked, stats) = run_campaign_forked(&campaign_cfg, make);
    let campaign_forked_wall_secs = t.elapsed().as_secs_f64();

    PrefixTreeResult {
        campaign_trials: campaign_cfg.trials,
        campaign_cold_wall_secs,
        campaign_forked_wall_secs,
        campaign_events_cold: stats.events_cold,
        campaign_events_simulated: stats.events_simulated,
        campaign_identical: report_forked.to_json().pretty() == report_cold.to_json().pretty(),
        checkpoints: stats.checkpoints,
        campaign_events_before: events_before(fast).1,
    }
}

/// Assemble the `BENCH_world.json` document. The engine scenarios are
/// always single-threaded; `suite` covers the parallel sweep runner,
/// `checkpoint` the checkpoint/fork engine, and `prefix_tree` the
/// campaign-trie sharing benchmark.
pub fn document(
    mode: &str,
    results: &[ScenarioResult],
    suite: &SuiteResult,
    checkpoint: &CheckpointResult,
    prefix_tree: &PrefixTreeResult,
) -> Json {
    Json::obj([
        ("bench", Json::str("world")),
        ("mode", Json::str(mode)),
        (
            "pre_pr_baseline",
            Json::obj([
                (
                    "note",
                    Json::str(
                        "engine at commit cb89511, before the spatial grid / shared-frame rewrite",
                    ),
                ),
                (
                    "dense_downtown_events_per_sec",
                    Json::Num(PRE_PR_DENSE_EVENTS_PER_SEC),
                ),
                (
                    "wall_seconds",
                    Json::obj([
                        ("sparse_commute", Json::Num(0.130)),
                        ("dense_downtown", Json::Num(1.744)),
                        ("chaos_storm", Json::Num(7.194)),
                    ]),
                ),
            ]),
        ),
        (
            "scenarios",
            Json::arr(results.iter().map(ScenarioResult::to_json)),
        ),
        ("suite", suite.to_json()),
        ("checkpoint", checkpoint.to_json()),
        ("prefix_tree", prefix_tree.to_json()),
    ])
}

/// Fresh runs per scenario behind each figure [`check_regressions`]
/// judges: one run on a shared host can be slowed past the gate's
/// factor by load alone.
pub const CHECK_RUNS: usize = 3;

/// The run with the median events/sec of `runs` (the lower middle of
/// an even count).
///
/// # Panics
///
/// Panics if `runs` is empty.
pub fn median_run(mut runs: Vec<ScenarioResult>) -> ScenarioResult {
    assert!(!runs.is_empty(), "median of no runs");
    runs.sort_by(|a, b| a.events_per_sec.total_cmp(&b.events_per_sec));
    runs.swap_remove((runs.len() - 1) / 2)
}

/// Compare fresh results against a baseline `BENCH_world.json`. Each
/// result should be the [`median_run`] of [`CHECK_RUNS`] fresh runs.
/// Returns one message per scenario whose events/sec dropped by more
/// than [`REGRESSION_FACTOR`]; empty means the gate passes. Scenarios
/// missing on either side are skipped (renames should not fail CI); a
/// baseline that does not parse fails the gate.
pub fn check_regressions(baseline_json: &str, results: &[ScenarioResult]) -> Vec<String> {
    let baseline = match Json::parse(baseline_json) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("baseline is not valid JSON: {e}")],
    };
    let scenarios = baseline
        .get("scenarios")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    let mut failures = Vec::new();
    for r in results {
        let base = scenarios
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(r.name.as_str()))
            .and_then(|s| s.get("events_per_sec"))
            .and_then(Json::as_f64);
        if let Some(base) = base {
            if r.events_per_sec * REGRESSION_FACTOR < base {
                failures.push(format!(
                    "{}: {:.0} events/sec is more than {REGRESSION_FACTOR}x below baseline {base:.0}",
                    r.name, r.events_per_sec
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, eps: f64) -> ScenarioResult {
        ScenarioResult {
            name: name.to_string(),
            sites: 10,
            seed: 1,
            sim_secs: 60,
            wall_secs: 0.5,
            events: (eps * 0.5) as u64,
            events_per_sec: eps,
            bytes: 1234,
        }
    }

    fn suite() -> SuiteResult {
        SuiteResult {
            jobs: 18,
            workers: 4,
            serial_wall_secs: 12.0,
            parallel_wall_secs: 3.0,
            events_serial: 5_000_000,
            events_parallel: 5_000_000,
            identical: true,
        }
    }

    fn checkpoint() -> CheckpointResult {
        CheckpointResult {
            sites: 69,
            sim_secs: 300,
            cold_wall_secs: 0.2,
            fork_wall_secs: 0.05,
            identical: true,
            shrink_evals: 12,
            shrink_cold_wall_secs: 2.4,
            shrink_forked_wall_secs: 0.7,
            shrink_events_cold: 3_000_000,
            shrink_events_simulated: 900_000,
            minimized_identical: true,
            shrink_events_before: 1_000_000,
        }
    }

    fn prefix_tree() -> PrefixTreeResult {
        PrefixTreeResult {
            campaign_trials: 16,
            campaign_cold_wall_secs: 4.0,
            campaign_forked_wall_secs: 1.5,
            campaign_events_cold: 2_600_000,
            campaign_events_simulated: 2_000_000,
            campaign_identical: true,
            checkpoints: 9,
            campaign_events_before: 2_600_000,
        }
    }

    /// The document as `bench_world` writes it, parsed back.
    fn written(results: &[ScenarioResult]) -> Json {
        let text = document("full", results, &suite(), &checkpoint(), &prefix_tree()).pretty();
        Json::parse(&text).expect("BENCH_world.json parses")
    }

    #[test]
    fn document_round_trips_through_the_parser() {
        let results = vec![
            result("sparse_commute", 1_500_000.0),
            result("dense_downtown", 9_000_000.5),
        ];
        let doc = document("full", &results, &suite(), &checkpoint(), &prefix_tree());
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        let scenarios = doc.get("scenarios").and_then(Json::as_arr).unwrap();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(
            scenarios[1].get("events_per_sec").and_then(Json::as_f64),
            Some(9_000_000.5)
        );
    }

    #[test]
    fn suite_section_is_rendered() {
        let s = suite();
        assert!((s.speedup() - 4.0).abs() < 1e-9);
        let doc = written(&[result("sparse_commute", 1_500_000.0)]);
        let section = doc.get("suite").expect("suite section");
        assert_eq!(section.get("experiment_jobs"), Some(&Json::UInt(18)));
        assert_eq!(section.get("parallel_speedup"), Some(&Json::Num(4.0)));
        assert_eq!(section.get("events_serial"), Some(&Json::UInt(5_000_000)));
        assert_eq!(section.get("events_parallel"), Some(&Json::UInt(5_000_000)));
        assert_eq!(section.get("identical"), Some(&Json::Bool(true)));
    }

    #[test]
    fn checkpoint_section_is_rendered() {
        assert!((checkpoint().events_ratio() - 10.0 / 3.0).abs() < 1e-9);
        let doc = written(&[result("sparse_commute", 1_500_000.0)]);
        let section = doc.get("checkpoint").expect("checkpoint section");
        let resume = section.get("resume").expect("resume leg");
        assert_eq!(resume.get("bit_identical"), Some(&Json::Bool(true)));
        let shrink = section.get("shrink_campaign").expect("shrink leg");
        assert!(shrink.get("events_ratio").and_then(Json::as_f64).is_some());
        let before = shrink.get("before").expect("before side");
        assert_eq!(before.get("events_simulated"), Some(&Json::UInt(1_000_000)));
        assert_eq!(before.get("events_ratio"), Some(&Json::Num(3.0)));
    }

    #[test]
    fn prefix_tree_section_is_rendered() {
        assert!((prefix_tree().campaign_events_ratio() - 1.3).abs() < 1e-9);
        let doc = written(&[result("sparse_commute", 1_500_000.0)]);
        let trie = doc
            .get("prefix_tree")
            .and_then(|pt| pt.get("campaign_trie"))
            .expect("campaign_trie leg");
        assert_eq!(trie.get("report_identical"), Some(&Json::Bool(true)));
        assert_eq!(trie.get("checkpoints"), Some(&Json::UInt(9)));
        let before = trie.get("before").expect("before side");
        assert_eq!(before.get("events_ratio"), Some(&Json::Num(1.0)));
    }

    #[test]
    fn regression_gate_fires_only_past_the_factor() {
        let baseline = document(
            "full",
            &[result("dense_downtown", 8_000_000.0)],
            &suite(),
            &checkpoint(),
            &prefix_tree(),
        )
        .pretty();
        // 2x slower exactly: passes (gate is strict >2x).
        assert!(check_regressions(&baseline, &[result("dense_downtown", 4_000_000.0)]).is_empty());
        // Slightly worse than 2x: fails.
        let failures = check_regressions(&baseline, &[result("dense_downtown", 3_900_000.0)]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("dense_downtown"));
        // Unknown scenario on either side: skipped, not failed.
        assert!(check_regressions(&baseline, &[result("brand_new", 1.0)]).is_empty());
    }

    #[test]
    fn median_run_picks_the_middle_rate() {
        let rates = |runs: Vec<ScenarioResult>| median_run(runs).events_per_sec;
        let three = |a, b, c| {
            vec![
                result("dense_downtown", a),
                result("dense_downtown", b),
                result("dense_downtown", c),
            ]
        };
        // Whatever the order, one slow (or fast) outlier is ignored.
        assert_eq!(rates(three(1.0e6, 4.0e6, 3.0e6)), 3.0e6);
        assert_eq!(rates(three(4.0e6, 3.0e6, 1.0e6)), 3.0e6);
        assert_eq!(rates(three(3.0e6, 9.0e6, 2.9e6)), 3.0e6);
        // The median is a whole run, not a blend of runs.
        let runs = vec![
            ScenarioResult {
                events: 7,
                ..result("sparse_commute", 2.0e6)
            },
            result("sparse_commute", 1.0e6),
            result("sparse_commute", 5.0e6),
        ];
        assert_eq!(median_run(runs).events, 7);
        // One run is its own median; an even count takes the lower middle.
        assert_eq!(rates(vec![result("x", 5.0)]), 5.0);
        assert_eq!(
            rates(vec![
                result("x", 8.0),
                result("x", 2.0),
                result("x", 4.0),
                result("x", 6.0)
            ]),
            4.0
        );
    }

    #[test]
    #[should_panic(expected = "median of no runs")]
    fn median_run_rejects_no_runs() {
        median_run(Vec::new());
    }

    #[test]
    fn regression_gate_rejects_an_unparseable_baseline() {
        let failures = check_regressions("{\"scenarios\": [", &[result("dense_downtown", 1.0)]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("not valid JSON"));
    }

    #[test]
    fn suite_has_the_four_scenarios_and_fast_mode_keeps_density() {
        let full = scenarios(false);
        let fast = scenarios(true);
        assert_eq!(full.len(), 4);
        assert_eq!(fast.len(), 4);
        for (f, s) in full.iter().zip(&fast) {
            assert_eq!(f.name, s.name);
            assert_eq!(f.density_per_km, s.density_per_km);
            assert_eq!(f.seed, s.seed);
            assert!(s.sim_secs <= f.sim_secs);
        }
        assert!(full
            .iter()
            .any(|s| s.name == "dense_downtown" && s.min_sites >= 1_000));
        assert!(full.iter().any(|s| s.storm));
        assert!(fast
            .iter()
            .any(|s| s.name == "stock_commute" && s.stock && s.sim_secs == 60));
    }

    #[test]
    fn sparse_scenario_runs_and_reports_consistent_figures() {
        // A tiny world run end-to-end through the harness path.
        let spec = ScenarioSpec {
            name: "smoke",
            sim_secs: 30,
            density_per_km: 12.0,
            seed: 7,
            storm: false,
            stock: false,
            min_sites: 1,
        };
        let r = run_scenario(&spec);
        assert_eq!(r.name, "smoke");
        assert!(r.sites >= 1);
        assert!(r.events > 0);
        assert!(r.wall_secs > 0.0);
        assert!((r.events_per_sec - r.events as f64 / r.wall_secs).abs() < 1.0);
    }
}
