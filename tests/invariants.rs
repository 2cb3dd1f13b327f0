//! Runtime invariant layer, end to end (DESIGN.md §11).
//!
//! Compiled whenever debug assertions are on (every plain `cargo test`),
//! these tests drive the benchmark suite's two heaviest deployments —
//! the dense downtown drive and the dense drive under a seeded fault
//! storm — with every runtime check armed: event-queue pop ordering,
//! air-frame conservation, fault-counter consistency, and the radio's
//! NaN/∞ guards. A clean run *is* the assertion; any invariant
//! violation panics inside the engine with a message naming the broken
//! ledger.
//!
//! The negative tests then prove each guard actually fires: a check
//! that cannot fail verifies nothing.

#[cfg(debug_assertions)]
use spider_repro::core::{OperationMode, SpiderConfig, SpiderDriver};
#[cfg(debug_assertions)]
use spider_repro::simcore::SimDuration;
#[cfg(debug_assertions)]
use spider_repro::wire::Channel;
#[cfg(debug_assertions)]
use spider_repro::workloads::scenarios::{town_scenario, ScenarioParams};
#[cfg(debug_assertions)]
use spider_repro::workloads::{FaultPlan, World};

/// Same fault-plan seed as the benchmark suite's `chaos_storm`.
#[cfg(debug_assertions)]
const STORM_SEED: u64 = 99;

#[cfg(debug_assertions)]
fn dense_params(sim_secs: u64) -> ScenarioParams {
    ScenarioParams {
        duration: SimDuration::from_secs(sim_secs),
        seed: 42,
        density_per_km: 220.0,
        ..Default::default()
    }
}

#[cfg(debug_assertions)]
fn spider_driver() -> SpiderDriver {
    SpiderDriver::new(SpiderConfig::for_mode(
        OperationMode::SingleChannelMultiAp(Channel::CH6),
        1,
    ))
}

/// Dense downtown (the suite's heaviest fault-free deployment) with all
/// invariant checks armed. Durations are shorter than the benchmark's —
/// these run under the dev profile with overflow checks — but the
/// deployment, and so every data structure the invariants watch, is the
/// full >1000-site downtown.
#[cfg(debug_assertions)]
#[test]
fn dense_downtown_upholds_all_invariants() {
    let cfg = town_scenario(&dense_params(120));
    assert!(cfg.deployment.len() >= 1_000, "deployment lost its density");
    let result = World::new(cfg, spider_driver()).run();
    assert!(result.bytes > 0, "dense run delivered nothing: {result}");
    // No fault plan: the audit inside `finish` has already asserted
    // every fault counter stayed at zero.
    assert_eq!(result.faults.total_drops(), 0);
}

/// The same deployment under the seeded stormy fault plan: blackouts,
/// zombies and DHCP faults exercise every drop path the air-frame
/// ledger accounts for.
#[cfg(debug_assertions)]
#[test]
fn chaos_storm_upholds_all_invariants() {
    let mut cfg = town_scenario(&dense_params(90));
    let sites = cfg.deployment.len();
    assert!(sites >= 1_000, "deployment lost its density");
    cfg.faults = FaultPlan::stormy(STORM_SEED, sites, cfg.duration);
    let result = World::new(cfg, spider_driver()).run();
    assert!(
        result.faults.total_drops() > 0,
        "the storm never bit — fault machinery is dead: {result}"
    );
}

/// Determinism holds with the checks armed: the invariant layer must
/// observe, never perturb.
#[cfg(debug_assertions)]
#[test]
fn validate_layer_does_not_perturb_the_run() {
    let run = || {
        let mut cfg = town_scenario(&dense_params(60));
        let sites = cfg.deployment.len();
        cfg.faults = FaultPlan::stormy(STORM_SEED, sites, cfg.duration);
        World::new(cfg, spider_driver()).run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.bytes, b.bytes);
    assert_eq!(a.events, b.events);
    assert_eq!(a.switches, b.switches);
    assert_eq!(a.faults.total_drops(), b.faults.total_drops());
}

// ---------------------------------------------------------------------
// Negative tests: each guard must demonstrably fire.
// ---------------------------------------------------------------------

mod negative {
    #[cfg(debug_assertions)]
    use spider_repro::radio::{LossModel, Propagation};
    use spider_repro::simcore::{EventQueue, SimTime};

    /// Causality: scheduling behind the queue's clock panics in every
    /// build, release included — this guard is unconditional.
    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn event_queue_rejects_scheduling_into_the_past() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), ());
        q.pop();
        q.schedule(SimTime::from_millis(1), ());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "rssi_dbm: bad distance")]
    fn nan_distance_trips_the_rssi_guard() {
        let _ = Propagation::outdoor().rssi_dbm(f64::NAN);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "rssi_dbm: bad distance")]
    fn infinite_distance_trips_the_rssi_guard() {
        let _ = Propagation::outdoor().rssi_dbm(f64::INFINITY);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "loss_probability: bad inputs")]
    fn nan_distance_trips_the_loss_guard() {
        let _ = LossModel::paper_default().loss_probability(f64::NAN, 100.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "loss_probability_sq: bad inputs")]
    fn negative_squared_distance_trips_the_loss_guard() {
        let _ = LossModel::paper_default().loss_probability_sq(-1.0, 100.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "loss_probability: bad inputs")]
    fn zero_range_trips_the_loss_guard() {
        let m = LossModel::DistanceRamp {
            base: 0.05,
            edge_start: 0.7,
        };
        let _ = m.loss_probability(10.0, 0.0);
    }
}
