//! Cross-crate integration: every driver through the full world.

use spider_repro::baselines::{FatVapConfig, FatVapDriver, StockConfig, StockDriver};
use spider_repro::core::adaptive::AdaptiveSpider;
use spider_repro::core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_repro::simcore::SimDuration;
use spider_repro::wire::Channel;
use spider_repro::workloads::scenarios::{lab_scenario, town_scenario, RouteKind, ScenarioParams};
use spider_repro::workloads::World;

fn short_town(seed: u64) -> ScenarioParams {
    ScenarioParams {
        duration: SimDuration::from_secs(300),
        seed,
        ..Default::default()
    }
}

#[test]
fn all_four_spider_modes_complete_joins_on_a_town_drive() {
    let period = SimDuration::from_millis(600);
    let modes = [
        OperationMode::SingleChannelMultiAp(Channel::CH1),
        OperationMode::SingleChannelSingleAp(Channel::CH1),
        OperationMode::MultiChannelMultiAp { period },
        OperationMode::MultiChannelSingleAp { period },
    ];
    for mode in modes {
        let world = town_scenario(&short_town(5));
        let result = World::new(
            world,
            SpiderDriver::new(SpiderConfig::for_mode(mode.clone(), 1)),
        )
        .run();
        assert!(
            !result.join_log.join.is_empty(),
            "{:?} completed no joins: {result}",
            mode
        );
        assert!(result.bytes > 0, "{:?} moved no data: {result}", mode);
    }
}

#[test]
fn baselines_complete_joins_too() {
    let world = town_scenario(&short_town(6));
    let stock = World::new(world, StockDriver::new(StockConfig::stock(1))).run();
    assert!(!stock.join_log.join.is_empty(), "{stock}");

    let world = town_scenario(&short_town(6));
    let quick = World::new(world, StockDriver::new(StockConfig::quickwifi(1))).run();
    assert!(!quick.join_log.join.is_empty(), "{quick}");
    assert!(
        quick.join_log.join_cdf().median() <= stock.join_log.join_cdf().median() + 1.0,
        "QuickWiFi joins should not be slower than stock"
    );

    let world = town_scenario(&short_town(6));
    let fatvap = World::new(world, FatVapDriver::new(FatVapConfig::default())).run();
    assert!(!fatvap.join_log.assoc.is_empty(), "{fatvap}");
}

#[test]
fn adaptive_driver_runs_and_switches_modes() {
    let mut params = short_town(8);
    params.speed_mps = 3.0; // slow: exploration expected
    let world = town_scenario(&params);
    let inner = SpiderDriver::new(SpiderConfig::for_mode(
        OperationMode::SingleChannelMultiAp(Channel::CH6),
        1,
    ));
    let mut adaptive = AdaptiveSpider::new(inner);
    adaptive.set_speed_hint(3.0);
    let result = World::new(world, adaptive).run();
    assert!(result.switches > 0, "slow adaptive should rotate: {result}");
    assert!(!result.join_log.join.is_empty(), "{result}");
}

#[test]
fn whole_pipeline_is_deterministic_per_seed() {
    let run = || {
        let world = town_scenario(&short_town(11));
        World::new(
            world,
            SpiderDriver::new(SpiderConfig::for_mode(
                OperationMode::MultiChannelMultiAp {
                    period: SimDuration::from_millis(600),
                },
                1,
            )),
        )
        .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.bytes, b.bytes);
    assert_eq!(a.switches, b.switches);
    assert_eq!(a.join_log.join.len(), b.join_log.join.len());
    assert_eq!(a.tcp_timeouts, b.tcp_timeouts);
    // And a different seed genuinely differs.
    let world = town_scenario(&short_town(12));
    let c = World::new(
        world,
        SpiderDriver::new(SpiderConfig::for_mode(
            OperationMode::MultiChannelMultiAp {
                period: SimDuration::from_millis(600),
            },
            1,
        )),
    )
    .run();
    assert_ne!(a.bytes, c.bytes);
}

#[test]
fn straight_road_first_visit_has_no_cache_hits() {
    let mut params = short_town(13);
    params.route = RouteKind::Straight;
    let world = town_scenario(&params);
    let driver = SpiderDriver::new(SpiderConfig::for_mode(
        OperationMode::SingleChannelMultiAp(Channel::CH1),
        1,
    ));
    let (result, driver) = World::new(world, driver).finish();
    assert!(!result.join_log.join.is_empty());
    assert_eq!(
        driver.lease_cache().hits,
        0,
        "every AP is new on a straight road"
    );
}

#[test]
fn loop_route_reuses_cached_leases() {
    let mut params = short_town(13);
    params.duration = SimDuration::from_secs(1_200); // > 2 laps
    let world = town_scenario(&params);
    let driver = SpiderDriver::new(SpiderConfig::for_mode(
        OperationMode::SingleChannelMultiAp(Channel::CH1),
        1,
    ));
    let (_, driver) = World::new(world, driver).finish();
    assert!(
        driver.lease_cache().hits > 0,
        "later laps must hit the DHCP cache"
    );
}

#[test]
fn dead_dhcp_aps_never_grant_leases() {
    let mut params = short_town(14);
    params.dead_dhcp_fraction = 1.0; // every AP broken
    let world = town_scenario(&params);
    let result = World::new(
        world,
        SpiderDriver::new(SpiderConfig::for_mode(
            OperationMode::SingleChannelMultiAp(Channel::CH1),
            1,
        )),
    )
    .run();
    assert_eq!(result.join_log.dhcp.len(), 0, "{result}");
    assert!(result.join_log.dhcp_failures > 0, "{result}");
    assert_eq!(result.bytes, 0);
}

#[test]
fn lab_two_aps_aggregate_like_two_radios() {
    // Fig. 10's micro-benchmark claim as a regression test.
    let backhaul = 125_000.0;
    let run = |channels: &[Channel]| {
        World::new(
            lab_scenario(channels, backhaul, SimDuration::from_secs(30), 2),
            SpiderDriver::new(SpiderConfig::for_mode(
                OperationMode::SingleChannelMultiAp(Channel::CH1),
                1,
            )),
        )
        .run()
    };
    let one = run(&[Channel::CH1]);
    let two = run(&[Channel::CH1, Channel::CH1]);
    assert!(
        two.avg_throughput_bps > 1.6 * one.avg_throughput_bps,
        "one AP: {one}; two APs: {two}"
    );
}
