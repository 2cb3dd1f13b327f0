//! Checkpoint/fork bit-identity, end to end (DESIGN.md §13).
//!
//! The checkpoint engine's whole contract is one sentence: a forked
//! world resumes **bit-identically** to a from-scratch run. These tests
//! drive the benchmark suite's two heaviest deployments (the dense
//! downtown drive and the same drive under a seeded fault storm), a
//! chaos-campaign schedule and the stock-driver baseline, snapshot each
//! at three mid-run points, and assert the forked `RunResult` — every
//! metric, the join log, the per-class fault counters — equals the
//! uninterrupted run's. With debug assertions on (plain `cargo test`),
//! the air-frame conservation audit additionally replays across every
//! snapshot boundary: frames created before a fork must balance against
//! deliveries after it.

use spider_repro::baselines::{StockConfig, StockDriver};
use spider_repro::core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_repro::mac80211::ClientSystem;
use spider_repro::simcore::{sweep_with, SimDuration, SimTime};
use spider_repro::wire::Channel;
use spider_repro::workloads::scenarios::{town_scenario, ScenarioParams};
use spider_repro::workloads::{
    chaos_plan, ChaosProfile, FaultPlan, FaultProfile, RunResult, World, WorldConfig,
};

/// Same fault-plan seed as the benchmark suite's `chaos_storm`.
const STORM_SEED: u64 = 99;

fn dense_cfg(sim_secs: u64, storm: bool) -> WorldConfig {
    let mut cfg = town_scenario(&ScenarioParams {
        duration: SimDuration::from_secs(sim_secs),
        seed: 42,
        density_per_km: 220.0,
        ..Default::default()
    });
    if storm {
        cfg.faults = FaultPlan::seeded(
            STORM_SEED,
            cfg.deployment.len(),
            cfg.duration,
            &FaultProfile::stormy(),
        );
    }
    cfg
}

fn spider_driver() -> SpiderDriver {
    SpiderDriver::new(SpiderConfig::for_mode(
        OperationMode::SingleChannelMultiAp(Channel::CH6),
        1,
    ))
}

/// Advance one world through `fractions` of its duration, forking at
/// each point and finishing the fork; every forked result — and the
/// original, finished last — must equal the cold run bit for bit.
/// Returns the cold run.
fn assert_forks_match_cold<C: ClientSystem + Clone>(
    cfg: WorldConfig,
    driver: impl Fn() -> C,
    what: &str,
) -> RunResult {
    let cold = World::new(cfg.clone(), driver()).run();
    let mut live = World::new(cfg, driver());
    let total = cold.duration;
    for fraction in [0.25, 0.5, 0.75] {
        let at = SimTime::ZERO + SimDuration::from_secs_f64(total.as_secs_f64() * fraction);
        live.run_until(at);
        let forked = live.fork().finish().0;
        assert_eq!(
            forked, cold,
            "{what}: fork at {fraction} of the run diverged from the cold run"
        );
        // The ISSUE's headline counters, asserted on their own so a
        // failure names them even if some other field diverges first.
        assert_eq!(
            forked.faults, cold.faults,
            "{what}: per-class fault counters"
        );
        assert_eq!(forked.events, cold.events, "{what}: event totals");
    }
    // Snapshotting must not perturb the snapshotted world either.
    let original = live.finish().0;
    assert_eq!(
        original, cold,
        "{what}: the forked-from world itself diverged"
    );
    cold
}

#[test]
fn dense_downtown_forks_are_bit_identical() {
    let cfg = dense_cfg(60, false);
    assert!(cfg.deployment.len() >= 1_000, "deployment lost its density");
    assert_forks_match_cold(cfg, spider_driver, "dense_downtown");
}

#[test]
fn chaos_storm_forks_are_bit_identical() {
    let cfg = dense_cfg(60, true);
    assert!(!cfg.faults.is_empty(), "storm plan came up empty");
    assert_forks_match_cold(cfg, spider_driver, "chaos_storm");
}

/// Forking is driver-agnostic: the stock single-connection baseline's
/// state must snapshot as cleanly as Spider's.
#[test]
fn stock_baseline_forks_are_bit_identical() {
    let cfg = town_scenario(&ScenarioParams {
        duration: SimDuration::from_secs(120),
        seed: 42,
        density_per_km: 40.0,
        ..Default::default()
    });
    let cold = assert_forks_match_cold(
        cfg,
        || StockDriver::new(StockConfig::stock(1)),
        "stock_baseline",
    );
    assert!(cold.bytes > 0, "stock baseline never transferred anything");
}

fn campaign_cfg(sim_secs: u64) -> (WorldConfig, FaultPlan) {
    let cfg = town_scenario(&ScenarioParams {
        duration: SimDuration::from_secs(sim_secs),
        seed: 7,
        density_per_km: 40.0,
        ..Default::default()
    });
    let plan = chaos_plan(
        11,
        cfg.deployment.len(),
        cfg.duration,
        &ChaosProfile::standard(),
    );
    (cfg, plan)
}

#[test]
fn campaign_schedule_forks_are_bit_identical() {
    let (mut cfg, plan) = campaign_cfg(120);
    assert!(!plan.is_empty(), "campaign schedule came up empty");
    cfg.faults = plan;
    assert_forks_match_cold(cfg, spider_driver, "campaign_schedule");
}

/// The prefix-sharing primitive itself: a world advanced under a
/// *different* plan that agrees up to the checkpoint — here the empty
/// plan, which agrees with anything before its first episode — forked
/// with the candidate plan swapped in, must equal the candidate's cold
/// run. This is exactly what the campaign trial phase and the shrinker
/// rely on.
#[test]
fn fork_with_plan_from_shared_prefix_matches_cold_run() {
    let (cfg, plan) = campaign_cfg(120);
    let first_start = plan.episodes.iter().map(|e| e.start).min().unwrap();
    let boundary = SimTime::from_micros(first_start.as_micros().saturating_sub(1));

    let mut with_plan = cfg.clone();
    with_plan.faults = plan.clone();
    let cold = World::new(with_plan, spider_driver()).run();

    // `advance_shared` (not a bare `run_until`) so the base stops short
    // of any in-flight medium reservation peeking past the divergence.
    let (base, consumed_to, _) =
        World::new(cfg, spider_driver()).advance_shared(boundary, first_start);
    assert!(consumed_to > SimTime::ZERO, "shared no prefix at all");
    let forked = base.fork_with_plan(plan).finish().0;
    assert_eq!(
        forked, cold,
        "prefix-shared fork diverged from the cold run"
    );
}

/// A sweep over plan variants forked from one shared checkpoint:
/// identical results at `SPIDER_JOBS=1` and `4` (explicit worker
/// counts — the env override feeds the same parameter), and identical
/// to cold runs.
#[test]
fn plan_fork_sweep_is_worker_count_invariant() {
    let (cfg, plan) = campaign_cfg(90);
    // Variants that share the full no-fault prefix: the original plan,
    // a ddmin-style half, and a single-episode rump.
    let half = FaultPlan::scripted(plan.episodes[..plan.episodes.len() / 2].to_vec());
    let rump = FaultPlan::scripted(vec![*plan.episodes.last().unwrap()]);
    let variants = [plan, half, rump];
    let boundary = variants
        .iter()
        .flat_map(|p| p.episodes.iter().map(|e| e.start))
        .min()
        .map(|s| SimTime::from_micros(s.as_micros().saturating_sub(1)))
        .unwrap();

    let cold: Vec<RunResult> = variants
        .iter()
        .map(|p| {
            let mut c = cfg.clone();
            c.faults = p.clone();
            World::new(c, spider_driver()).run()
        })
        .collect();

    let divergence = boundary + SimDuration::from_micros(1);
    let base = World::new(cfg, spider_driver())
        .advance_shared(boundary, divergence)
        .0;
    for workers in [1, 4] {
        let results = sweep_with(
            &variants,
            |p| base.fork_with_plan(p.clone()).finish().0,
            workers,
        );
        assert_eq!(results, cold, "plan-fork sweep at {workers} workers");
    }
}
