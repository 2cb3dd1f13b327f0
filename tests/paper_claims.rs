//! The paper's headline claims as executable assertions.
//!
//! Each test states the claim, the section it comes from, and checks the
//! *shape* (who wins, roughly by how much) at fixed seeds. Absolute
//! numbers differ from the paper's testbed; EXPERIMENTS.md records both.

use spider_repro::baselines::{StockConfig, StockDriver};
use spider_repro::core::{ChannelSchedule, OperationMode, SpiderConfig, SpiderDriver};
use spider_repro::model::{
    simulate_join_probability, ChannelScenario, JoinModel, ThroughputOptimizer,
};
use spider_repro::simcore::{SimDuration, SimRng};
use spider_repro::wire::Channel;
use spider_repro::workloads::scenarios::{town_scenario, ScenarioParams};
use spider_repro::workloads::{RunResult, World};

fn town_run(mode: OperationMode, seed: u64) -> RunResult {
    let params = ScenarioParams {
        duration: SimDuration::from_secs(900),
        seed,
        ..Default::default()
    };
    let world = town_scenario(&params);
    World::new(world, SpiderDriver::new(SpiderConfig::for_mode(mode, 1))).run()
}

const PERIOD: SimDuration = SimDuration::from_millis(600);

/// §1/§4.3: "we can maximize bandwidth using multiple APs on a single
/// wireless channel ... more than 400% improvement over a multi-channel
/// approach." We assert a ≥2x margin.
#[test]
fn single_channel_multi_ap_beats_multi_channel_on_throughput() {
    let single = town_run(OperationMode::SingleChannelMultiAp(Channel::CH1), 1);
    let multi = town_run(OperationMode::MultiChannelMultiAp { period: PERIOD }, 1);
    assert!(
        single.avg_throughput_bps > 2.0 * multi.avg_throughput_bps,
        "single: {single}; multi: {multi}"
    );
}

/// §1: "if connectivity is a priority, then joining to multiple APs on
/// multiple channels is best."
#[test]
fn multi_channel_multi_ap_wins_connectivity() {
    let single = town_run(OperationMode::SingleChannelMultiAp(Channel::CH1), 1);
    let multi = town_run(OperationMode::MultiChannelMultiAp { period: PERIOD }, 1);
    assert!(
        multi.connectivity > single.connectivity,
        "single: {single}; multi: {multi}"
    );
}

/// §4.4: "Spider provides 2.5x improvement in throughput and 2x
/// improvement in connectivity" over the stock driver. We assert ≥1.5x
/// on both.
#[test]
fn spider_beats_stock_wifi() {
    let spider = town_run(OperationMode::SingleChannelMultiAp(Channel::CH1), 2);
    let params = ScenarioParams {
        duration: SimDuration::from_secs(900),
        seed: 2,
        ..Default::default()
    };
    let world = town_scenario(&params);
    let stock = World::new(world, StockDriver::new(StockConfig::stock(1))).run();
    assert!(
        spider.avg_throughput_bps > 1.5 * stock.avg_throughput_bps,
        "spider: {spider}; stock: {stock}"
    );
    assert!(
        spider.connectivity > 1.5 * stock.connectivity,
        "spider: {spider}; stock: {stock}"
    );
}

/// §4.3/Table 2: multi-AP beats single-AP on the same single channel.
#[test]
fn multi_ap_beats_single_ap_on_one_channel() {
    let multi = town_run(OperationMode::SingleChannelMultiAp(Channel::CH1), 3);
    let single = town_run(OperationMode::SingleChannelSingleAp(Channel::CH1), 3);
    assert!(
        multi.avg_throughput_bps > single.avg_throughput_bps,
        "multi: {multi}; single: {single}"
    );
    assert!(multi.join_log.join.len() >= single.join_log.join.len());
}

/// §2.1.1 (Fig. 2): the closed-form join model and its Monte-Carlo
/// simulation are statistically equivalent.
#[test]
fn join_model_matches_simulation() {
    let model = JoinModel::paper_defaults(5.0);
    let mut rng = SimRng::new(4);
    for fi in [0.25, 0.5, 0.75, 1.0] {
        let analytic = model.p_join(fi, 4.0);
        let mc = simulate_join_probability(&model, fi, 4.0, 50, 100, &mut rng);
        assert!(
            (analytic - mc.mean).abs() < 0.06 + 3.0 * mc.std_dev,
            "fi={fi}: model {analytic:.3} vs sim {:.3}±{:.3}",
            mc.mean,
            mc.std_dev
        );
    }
}

/// §2.1.3 (Fig. 4): "users that travel with an average speed of 10 m/s
/// or faster should form concurrent Wi-Fi connections only within a
/// single channel."
#[test]
fn dividing_speed_at_most_10mps_for_the_joined_heavy_scenario() {
    let optimizer = ThroughputOptimizer::paper(JoinModel::paper_defaults(10.0));
    let scenarios = [
        ChannelScenario {
            joined_frac: 0.75,
            available_frac: 0.0,
        },
        ChannelScenario {
            joined_frac: 0.0,
            available_frac: 0.25,
        },
    ];
    let div = optimizer
        .dividing_speed(&scenarios, &[2.5, 3.3, 5.0, 6.6, 10.0, 20.0])
        .expect("a dividing speed must exist");
    assert!(div <= 10.0, "dividing speed {div}");
}

/// §4.5 (Fig. 14): reduced DHCP timeouts improve the median join time;
/// multi-channel schedules roughly double it.
#[test]
fn reduced_timeouts_speed_joins_and_channels_slow_them() {
    use spider_repro::mac80211::ClientMacConfig;
    use spider_repro::netstack::DhcpClientConfig;

    let run = |multi: bool, reduced: bool, seed: u64| {
        let mode = if multi {
            OperationMode::MultiChannelMultiAp { period: PERIOD }
        } else {
            OperationMode::SingleChannelMultiAp(Channel::CH1)
        };
        let (mac, dhcp) = if reduced {
            (
                ClientMacConfig::reduced(),
                DhcpClientConfig::reduced(SimDuration::from_millis(200)),
            )
        } else {
            (ClientMacConfig::stock(), DhcpClientConfig::stock())
        };
        let params = ScenarioParams {
            duration: SimDuration::from_secs(900),
            seed,
            ..Default::default()
        };
        let world = town_scenario(&params);
        let cfg = SpiderConfig::for_mode(mode, 1).with_timeouts(mac, dhcp);
        World::new(world, SpiderDriver::new(cfg)).run()
    };
    let fast = run(false, true, 5).join_log.join_cdf().median();
    let slow = run(false, false, 5).join_log.join_cdf().median();
    assert!(fast < slow, "reduced {fast}s !< default {slow}s");
    let multi = run(true, true, 5).join_log.join_cdf().median();
    assert!(
        multi > 1.5 * fast,
        "multi-channel joins ({multi}s) should dwarf single-channel ({fast}s)"
    );
}

/// §2.2.1 (Fig. 6 / Table 3): DHCP suffers on fractional schedules —
/// the multi-channel failure rate exceeds the single-channel rate.
#[test]
fn dhcp_fails_more_on_fractional_schedules() {
    let single = town_run(OperationMode::SingleChannelMultiAp(Channel::CH1), 6);
    let multi = town_run(OperationMode::MultiChannelMultiAp { period: PERIOD }, 6);
    let fr = |r: &RunResult| r.join_log.dhcp_failure_ratio().unwrap_or(0.0);
    assert!(
        fr(&multi) > fr(&single),
        "multi {:.2} !> single {:.2}",
        fr(&multi),
        fr(&single)
    );
}

/// §4.6 (Table 4 vs Table 2): Table 4's single-channel row (121.5 KB/s,
/// 35.5%) and equal 3-channel row (28.8 KB/s, 44.7%) are Table 2's rows
/// (1) and (3). Table 4 builds them as a multi-channel configuration
/// with its schedule overridden; on one town they are the same drives,
/// which is why the town sweep runs each of them once.
#[test]
fn table4_schedules_repeat_table2_rows() {
    let params = ScenarioParams {
        duration: SimDuration::from_secs(300),
        seed: 2,
        deploy_seed: Some(1),
        ..Default::default()
    };
    let run = |cfg: SpiderConfig| World::new(town_scenario(&params), SpiderDriver::new(cfg)).run();
    let rows = [
        (
            ChannelSchedule::single(Channel::CH1),
            OperationMode::SingleChannelMultiAp(Channel::CH1),
        ),
        (
            ChannelSchedule::equal(&Channel::ORTHOGONAL, PERIOD),
            OperationMode::MultiChannelMultiAp { period: PERIOD },
        ),
    ];
    for (schedule, mode) in rows {
        let period = schedule.period();
        let table4 = run(
            SpiderConfig::for_mode(OperationMode::MultiChannelMultiAp { period }, 1)
                .with_schedule(schedule),
        );
        let table2 = run(SpiderConfig::for_mode(mode, 1));
        assert!(!table2.join_log.join.is_empty(), "no joins: {table2}");
        assert!(table4 == table2, "Table 4: {table4}; Table 2: {table2}");
    }
}

/// §4.2 (Table 1): switch latency grows with associated interfaces and
/// stays in the 4.9–6 ms band the paper measured.
#[test]
fn switch_latency_matches_table1_band() {
    let phy = spider_repro::radio::PhyParams::b11();
    let mut prev = SimDuration::ZERO;
    for n in 0..=4 {
        let lat = phy.switch_latency(n);
        assert!(lat > prev);
        assert!(
            lat.as_millis_f64() >= 4.8 && lat.as_millis_f64() <= 6.2,
            "{lat}"
        );
        prev = lat;
    }
}
