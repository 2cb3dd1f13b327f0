//! Chaos tests: fault storms against the recovery machinery.
//!
//! These drive full worlds through scripted and seeded
//! [`FaultPlan`]s and check the robustness properties end to end:
//! dead links are detected within the ping monitor's budget, the
//! blacklist keeps the driver from looping on a dead AP, a zombie AP
//! does not take down the whole client while a healthy neighbour
//! exists, and faulty runs stay deterministic per seed.

use spider_repro::baselines::{FatVapConfig, FatVapDriver, StockConfig, StockDriver};
use spider_repro::core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_repro::simcore::{Json, SimDuration, SimTime};
use spider_repro::wire::Channel;
use spider_repro::workloads::campaign::{chaos_plan, ChaosProfile};
use spider_repro::workloads::scenarios::{lab_scenario, town_scenario, ScenarioParams};
use spider_repro::workloads::{FaultEpisode, FaultKind, FaultPlan, World};

fn spider(mode: OperationMode) -> SpiderDriver {
    SpiderDriver::new(SpiderConfig::for_mode(mode, 1))
}

/// The §3.2.2 detection budget: 30 consecutive losses at 10 pings/s.
const DETECT_BUDGET_S: f64 = 3.0;

#[test]
fn scripted_blackout_is_detected_within_budget() {
    // One AP, static client: connect, then cut the power mid-session.
    let mut cfg = lab_scenario(&[Channel::CH1], 500_000.0, SimDuration::from_secs(30), 2);
    cfg.faults = FaultPlan::scripted(vec![FaultEpisode {
        ap: Some(0),
        kind: FaultKind::Blackout,
        start: SimTime::from_secs(10),
        end: SimTime::from_secs(25),
    }]);
    let result = World::new(
        cfg,
        spider(OperationMode::SingleChannelSingleAp(Channel::CH1)),
    )
    .run();
    assert!(
        result.faults.frames_dropped_blackout > 0,
        "the blackout never bit: {result}"
    );
    assert!(
        !result.faults.detect_times_s.is_empty(),
        "blackout was never detected (no deauth observed): {result}"
    );
    for &d in &result.faults.detect_times_s {
        assert!(
            d <= DETECT_BUDGET_S + 0.05,
            "detection took {d:.3}s, over the {DETECT_BUDGET_S}s budget"
        );
    }
}

#[test]
fn zombie_ap_is_detected_by_the_ping_monitor() {
    // A zombie keeps beaconing and answering DHCP but forwards nothing;
    // only end-to-end probing can see it (§3.2.2).
    let mut cfg = lab_scenario(&[Channel::CH1], 500_000.0, SimDuration::from_secs(30), 5);
    cfg.faults = FaultPlan::scripted(vec![FaultEpisode {
        ap: Some(0),
        kind: FaultKind::Zombie,
        start: SimTime::from_secs(10),
        end: SimTime::from_secs(30),
    }]);
    let result = World::new(
        cfg,
        spider(OperationMode::SingleChannelSingleAp(Channel::CH1)),
    )
    .run();
    assert!(
        result.faults.packets_dropped_zombie > 0,
        "the zombie never swallowed anything: {result}"
    );
    assert!(
        !result.faults.detect_times_s.is_empty(),
        "zombie was never detected: {result}"
    );
    for &d in &result.faults.detect_times_s {
        assert!(d <= DETECT_BUDGET_S + 0.05, "zombie detection took {d:.3}s");
    }
}

#[test]
fn blacklist_prevents_join_looping_on_a_dead_ap() {
    // One AP that goes zombie at t=10s and stays dead: it keeps
    // beaconing and associating, so without the blacklist the driver
    // would cycle join -> verify -> 3s of ping losses -> fail roughly
    // every 3.6 s for the remaining 50 s (~13 failures). Exponential
    // backoff must space the retries out instead.
    let mut cfg = lab_scenario(&[Channel::CH1], 500_000.0, SimDuration::from_secs(60), 2);
    cfg.faults = FaultPlan::scripted(vec![FaultEpisode {
        ap: Some(0),
        kind: FaultKind::Zombie,
        start: SimTime::from_secs(10),
        end: SimTime::from_secs(60),
    }]);
    let (result, driver) = World::new(
        cfg,
        spider(OperationMode::SingleChannelSingleAp(Channel::CH1)),
    )
    .finish();
    assert!(
        !driver.blacklist().is_empty(),
        "the dead AP should be blacklisted"
    );
    assert!(
        result.join_log.join_failures <= 8,
        "{} failed joins in 50 s of zombie — the blacklist is not \
         spacing retries: {result}",
        result.join_log.join_failures
    );
    // It did keep retrying (backoff, not a permanent ban).
    assert!(
        result.join_log.join_failures >= 2,
        "expected a few backed-off retries: {result}"
    );
}

#[test]
fn zombie_ap_degrades_gracefully_with_a_healthy_neighbour() {
    // Two same-channel APs; one goes zombie. Multi-AP Spider must keep
    // goodput flowing through the healthy one.
    let mut cfg = lab_scenario(
        &[Channel::CH1, Channel::CH1],
        500_000.0,
        SimDuration::from_secs(40),
        3,
    );
    cfg.faults = FaultPlan::scripted(vec![FaultEpisode {
        ap: Some(0),
        kind: FaultKind::Zombie,
        start: SimTime::from_secs(5),
        end: SimTime::from_secs(40),
    }]);
    let result = World::new(
        cfg,
        spider(OperationMode::SingleChannelMultiAp(Channel::CH1)),
    )
    .run();
    assert!(
        result.faults.packets_dropped_zombie > 0,
        "zombie never bit: {result}"
    );
    assert!(
        result.bytes > 0,
        "goodput must survive with one healthy AP: {result}"
    );
}

#[test]
fn dhcp_exhaustion_falls_back_and_recovers() {
    // Pool exhausted for a window: cached-lease REQUESTs get NAKed and
    // fresh DISCOVERs are ignored. After the window the client must
    // still be able to (re)join and move data.
    let mut cfg = lab_scenario(&[Channel::CH1], 500_000.0, SimDuration::from_secs(40), 4);
    cfg.faults = FaultPlan::scripted(vec![FaultEpisode {
        ap: Some(0),
        kind: FaultKind::DhcpExhausted,
        start: SimTime::from_secs(0),
        end: SimTime::from_secs(15),
    }]);
    let result = World::new(
        cfg,
        spider(OperationMode::SingleChannelSingleAp(Channel::CH1)),
    )
    .run();
    assert!(
        result.bytes > 0,
        "client never recovered after the pool freed up: {result}"
    );
}

#[test]
fn icmp_blackhole_with_loss_burst_rides_the_gateway_fallback() {
    // Compound episode the stormy generator never produces: the gateway
    // filters end-to-end ICMP while an interference burst layers extra
    // channel loss over the same window. The ping monitor's
    // gateway-ping fallback (§3.2.2) must keep the link classified as
    // alive through both — the probes redirect to the gateway, and the
    // burst's losses stay far short of 30 consecutive misses — so the
    // driver never deauths and data keeps flowing.
    let mut cfg = lab_scenario(&[Channel::CH1], 500_000.0, SimDuration::from_secs(40), 6);
    cfg.faults = FaultPlan::scripted(vec![
        FaultEpisode {
            ap: Some(0),
            kind: FaultKind::IcmpBlackhole,
            start: SimTime::from_secs(5),
            end: SimTime::from_secs(35),
        },
        FaultEpisode {
            ap: Some(0),
            kind: FaultKind::LossBurst { extra: 0.2 },
            start: SimTime::from_secs(8),
            end: SimTime::from_secs(25),
        },
    ]);
    let result = World::new(
        cfg,
        spider(OperationMode::SingleChannelSingleAp(Channel::CH1)),
    )
    .run();
    assert!(
        result.faults.icmp_dropped_filtered > 0,
        "the blackhole never filtered a probe: {result}"
    );
    assert!(
        result.faults.detect_times_s.is_empty(),
        "gateway fallback should keep the link alive — a healthy link \
         was torn down: {result}"
    );
    assert!(
        result.faults.recover_times_s.is_empty(),
        "no outage should open on a link the fallback kept up: {result}"
    );
    assert!(
        result.bytes > 1_000_000,
        "goodput collapsed under the compound episode: {result}"
    );
}

#[test]
fn dhcp_exhaustion_naks_the_cached_lease_rejoin() {
    // Compound episode: a short blackout tears the link down, and the
    // re-join lands inside a DHCP-exhaustion window. The client's
    // cached-lease fast path sends a REQUEST for its old address and
    // must absorb the NAK (§3.2.3 lease caching), fall back to
    // DISCOVER — which the exhausted pool ignores — and still complete
    // the join once the pool frees up.
    let mut cfg = lab_scenario(&[Channel::CH1], 500_000.0, SimDuration::from_secs(60), 8);
    cfg.faults = FaultPlan::scripted(vec![
        FaultEpisode {
            ap: Some(0),
            kind: FaultKind::Blackout,
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(15),
        },
        FaultEpisode {
            ap: Some(0),
            kind: FaultKind::DhcpExhausted,
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(35),
        },
    ]);
    let result = World::new(
        cfg,
        spider(OperationMode::SingleChannelSingleAp(Channel::CH1)),
    )
    .run();
    assert!(
        result.faults.frames_dropped_blackout > 0,
        "the blackout never bit: {result}"
    );
    assert!(
        !result.faults.detect_times_s.is_empty(),
        "the blackout was never detected: {result}"
    );
    assert!(
        result.faults.dhcp_naks_exhausted > 0,
        "the cached-lease REQUEST was never NAKed — the compound \
         window missed the re-join: {result}"
    );
    assert!(
        result.join_log.join.len() >= 2,
        "the client never completed the post-exhaustion re-join: {result}"
    );
    assert!(
        result.bytes > 0,
        "no data after the pool freed up: {result}"
    );
}

#[test]
fn arp_poison_is_detected_only_by_the_end_to_end_monitor() {
    // ARP poisoning leaves every control-plane signal green —
    // association holds, DHCP answers, the AP beacons — while the
    // client's upstream unicast rides a hijacked gateway mapping into
    // a black hole. Even the gateway-ping fallback is useless: the
    // poisoned mapping IS the gateway. Only end-to-end probing can
    // notice, within the §3.2.2 budget, and every recovery re-join
    // must re-resolve the gateway.
    // Seed picked so the first swallowed packet lands just before a
    // ping tick: the detect clock starts at the first bite, so an
    // unlucky phase can add up to one 100 ms ping interval on top of
    // the 3.0 s monitor budget.
    let mut cfg = lab_scenario(&[Channel::CH1], 500_000.0, SimDuration::from_secs(40), 7);
    cfg.faults = FaultPlan::scripted(vec![FaultEpisode {
        ap: Some(0),
        kind: FaultKind::ArpPoison,
        start: SimTime::from_secs(10),
        end: SimTime::from_secs(25),
    }]);
    let (result, driver) = World::new(
        cfg,
        spider(OperationMode::SingleChannelSingleAp(Channel::CH1)),
    )
    .finish();
    assert!(
        result.faults.frames_blackholed_arp > 0,
        "the poison never swallowed anything: {result}"
    );
    // Control plane stayed green: the mid-episode re-join completed
    // DHCP *during* the poisoning window.
    assert!(
        result.join_log.dhcp.len() >= 2,
        "DHCP should keep succeeding under ARP poison (the fault is \
         invisible to the join path): {result}"
    );
    let detects: Vec<f64> = result.faults.detect_times_for("arp-poison").collect();
    assert!(
        !detects.is_empty(),
        "the poison was never detected: {result}"
    );
    for d in detects {
        assert!(
            d <= DETECT_BUDGET_S + 0.05,
            "ARP-poison detection took {d:.3}s, over the {DETECT_BUDGET_S}s budget"
        );
    }
    // Recovery re-resolved the gateway: one resolution for the initial
    // join, at least one more for a re-join.
    assert!(
        driver.gateway_resolutions() >= 2,
        "recovery never re-resolved the gateway ({} resolutions)",
        driver.gateway_resolutions()
    );
    assert!(
        result.bytes > 0,
        "no data after the poisoning ended: {result}"
    );
}

#[test]
fn captive_portal_defeats_gateway_fallback_but_demotion_recovers() {
    // A captive portal answers DHCP and gateway pings but hijacks
    // everything end-to-end — exactly the trap the §3.2.2 gateway-ping
    // fallback walks into: the client joins while the portal is up,
    // verification succeeds via the fallback, and the monitor stays
    // happy forever while TCP delivers nothing. The zero-progress
    // portal classifier must fire, demote the AP to the blacklist
    // ceiling, and let the healthy neighbour carry the session.
    let mut cfg = lab_scenario(
        &[Channel::CH1, Channel::CH1],
        500_000.0,
        SimDuration::from_secs(40),
        12,
    );
    cfg.faults = FaultPlan::scripted(vec![FaultEpisode {
        ap: Some(0),
        kind: FaultKind::CaptivePortal,
        start: SimTime::ZERO,
        end: SimTime::from_secs(40),
    }]);
    let (result, driver) = World::new(
        cfg,
        spider(OperationMode::SingleChannelMultiAp(Channel::CH1)),
    )
    .finish();
    assert!(
        result.faults.packets_hijacked_portal > 0,
        "the portal never hijacked anything: {result}"
    );
    let detects: Vec<f64> = result.faults.detect_times_for("captive-portal").collect();
    assert!(
        !detects.is_empty(),
        "the portal was never classified: {result}"
    );
    for d in detects {
        assert!(
            d <= 12.0,
            "portal classification took {d:.3}s, over the fallback + \
             zero-progress-window budget"
        );
    }
    // Demoted, not retried forever: the portal AP sits at the
    // blacklist ceiling (strikes past the exponential ladder).
    let end = SimTime::from_secs(40);
    let blocked = driver.blacklist().blocked(end);
    assert!(
        blocked.iter().any(|&b| driver.blacklist().strikes(b) >= 17),
        "the portal AP was not demoted to the ceiling: {blocked:?}"
    );
    assert!(
        result.bytes > 0,
        "the healthy neighbour never carried data: {result}"
    );
}

#[test]
fn asymmetric_loss_up_and_down_take_different_detect_paths() {
    // Directional loss is one fault class with two distinct failure
    // signatures: an uplink-dead episode swallows the client's probes
    // on their way out (the world counts them at the client's
    // transmit), a downlink-dead episode swallows replies and beacons
    // on the way back (counted at the AP's transmit). Both must be
    // detected, and the drop attribution must discriminate the legs.
    let run = |up: f64, down: f64, seed: u64| {
        let mut cfg = lab_scenario(&[Channel::CH1], 500_000.0, SimDuration::from_secs(30), seed);
        cfg.faults = FaultPlan::scripted(vec![FaultEpisode {
            ap: Some(0),
            kind: FaultKind::AsymmetricLoss { up, down },
            start: SimTime::from_secs(8),
            end: SimTime::from_secs(22),
        }]);
        World::new(
            cfg,
            spider(OperationMode::SingleChannelSingleAp(Channel::CH1)),
        )
        .run()
    };

    let up_dead = run(1.0, 0.0, 13);
    assert!(
        up_dead.faults.uplink_dropped_asym > 0,
        "uplink-dead episode never bit: {up_dead}"
    );
    assert!(
        up_dead.faults.uplink_dropped_asym > up_dead.faults.downlink_dropped_asym,
        "uplink-dead run must attribute drops to the up leg \
         (up {} vs down {})",
        up_dead.faults.uplink_dropped_asym,
        up_dead.faults.downlink_dropped_asym
    );
    assert!(
        up_dead
            .faults
            .detect_times_for("asymmetric-loss")
            .next()
            .is_some(),
        "uplink-dead episode was never detected: {up_dead}"
    );

    let down_dead = run(0.0, 1.0, 13);
    assert!(
        down_dead.faults.downlink_dropped_asym > 0,
        "downlink-dead episode never bit: {down_dead}"
    );
    assert!(
        down_dead.faults.downlink_dropped_asym > down_dead.faults.uplink_dropped_asym,
        "downlink-dead run must attribute drops to the down leg \
         (up {} vs down {})",
        down_dead.faults.uplink_dropped_asym,
        down_dead.faults.downlink_dropped_asym
    );
    assert!(
        down_dead
            .faults
            .detect_times_for("asymmetric-loss")
            .next()
            .is_some(),
        "downlink-dead episode was never detected: {down_dead}"
    );
}

#[test]
fn drivers_survive_a_seeded_fault_storm() {
    let params = ScenarioParams {
        duration: SimDuration::from_secs(300),
        seed: 21,
        ..Default::default()
    };
    let stormy = |cfg: &mut spider_repro::workloads::WorldConfig| {
        cfg.faults = FaultPlan::stormy(99, cfg.deployment.len(), cfg.duration);
    };

    let mut cfg = town_scenario(&params);
    stormy(&mut cfg);
    let spider_run = World::new(
        cfg,
        spider(OperationMode::SingleChannelMultiAp(Channel::CH1)),
    )
    .run();
    assert!(
        spider_run.faults.total_drops() > 0,
        "the storm never bit: {spider_run}"
    );
    assert!(
        spider_run.bytes > 0,
        "Spider moved no data through the storm: {spider_run}"
    );
    // Every fault counter, the reboot count included (taken from the
    // plan when the run finishes), as recorded when reboots were still
    // counted sweep by sweep.
    assert_eq!(
        compact(&spider_run.faults.to_json()),
        "{\"frames_dropped_blackout\":2266,\"packets_dropped_zombie\":227,\
         \"dhcp_dropped_silent\":60,\"dhcp_naks_exhausted\":0,\"icmp_dropped_filtered\":30,\
         \"frames_blackholed_arp\":0,\"packets_hijacked_portal\":0,\"uplink_dropped_asym\":0,\
         \"downlink_dropped_asym\":0,\"ap_reboots\":37,\
         \"detect_times_s\":[2.999519,0.0,0.0,3.043577,2.999519],\
         \"detect_kinds\":[\"zombie\",\"zombie\",\"zombie\",\"zombie\",\"zombie\"],\
         \"recover_times_s\":[7.612815,28.744676]}"
    );

    // The baselines must at least run to completion under the same
    // storm (their robustness is what Spider is compared against).
    let mut cfg = town_scenario(&params);
    stormy(&mut cfg);
    let stock = World::new(cfg, StockDriver::new(StockConfig::quickwifi(1))).run();
    assert_eq!(stock.duration, SimDuration::from_secs(300));

    let mut cfg = town_scenario(&params);
    stormy(&mut cfg);
    let fatvap = World::new(cfg, FatVapDriver::new(FatVapConfig::default())).run();
    assert_eq!(fatvap.duration, SimDuration::from_secs(300));
}

/// One-line form of a JSON document, for pinning it in a string.
fn compact(doc: &Json) -> String {
    doc.pretty()
        .lines()
        .map(str::trim)
        .collect::<Vec<_>>()
        .join("")
        .replace("\": ", "\":")
}

#[test]
fn chaos_plan_fault_stats_match_the_recorded_runs() {
    // The campaign's town drive under two adversarial chaos plans, with
    // every fault counter as recorded when reboots were still counted
    // sweep by sweep. Seed 5's blackout on AP 31 straddles the drive's
    // first approach to that AP (223.25 s). Seed 11 has a blackout on an
    // AP in range from the start (66), one over before its AP is first
    // reached (13, at 104.25 s) and one on an AP never reached (51):
    // all three still reboot.
    let params = ScenarioParams {
        duration: SimDuration::from_secs(300),
        seed: 7,
        ..Default::default()
    };
    let num_aps = town_scenario(&params).deployment.len();
    let faults = |plan_seed| {
        let mut cfg = town_scenario(&params);
        cfg.faults = chaos_plan(
            plan_seed,
            num_aps,
            cfg.duration,
            &ChaosProfile::adversarial(),
        );
        let run = World::new(
            cfg,
            spider(OperationMode::SingleChannelMultiAp(Channel::CH6)),
        )
        .run();
        compact(&run.faults.to_json())
    };
    assert_eq!(
        faults(5),
        "{\"frames_dropped_blackout\":76,\"packets_dropped_zombie\":0,\
         \"dhcp_dropped_silent\":0,\"dhcp_naks_exhausted\":0,\"icmp_dropped_filtered\":32,\
         \"frames_blackholed_arp\":183,\"packets_hijacked_portal\":0,\"uplink_dropped_asym\":0,\
         \"downlink_dropped_asym\":0,\"ap_reboots\":1,\
         \"detect_times_s\":[3.040157,2.999519,2.999519,2.999519],\
         \"detect_kinds\":[\"arp-poison\",\"arp-poison\",\"arp-poison\",\"arp-poison\"],\
         \"recover_times_s\":[]}"
    );
    assert_eq!(
        faults(11),
        "{\"frames_dropped_blackout\":0,\"packets_dropped_zombie\":0,\
         \"dhcp_dropped_silent\":0,\"dhcp_naks_exhausted\":0,\"icmp_dropped_filtered\":0,\
         \"frames_blackholed_arp\":0,\"packets_hijacked_portal\":0,\"uplink_dropped_asym\":0,\
         \"downlink_dropped_asym\":0,\"ap_reboots\":3,\
         \"detect_times_s\":[],\"detect_kinds\":[],\"recover_times_s\":[]}"
    );
}

#[test]
fn faulty_runs_are_deterministic_per_seed() {
    let run = || {
        let params = ScenarioParams {
            duration: SimDuration::from_secs(200),
            seed: 33,
            ..Default::default()
        };
        let mut cfg = town_scenario(&params);
        cfg.faults = FaultPlan::stormy(7, cfg.deployment.len(), cfg.duration);
        World::new(
            cfg,
            spider(OperationMode::MultiChannelMultiAp {
                period: SimDuration::from_millis(600),
            }),
        )
        .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.bytes, b.bytes);
    assert_eq!(a.switches, b.switches);
    assert_eq!(a.join_log.join.len(), b.join_log.join.len());
    assert_eq!(
        a.faults, b.faults,
        "fault attribution must be bit-identical"
    );
}

#[test]
fn dense_deployment_rerun_is_bit_identical() {
    // The benchmark's dense-downtown regime in miniature: >1,000
    // roadside sites on the 5 km loop, single-channel Spider, under a
    // stormy fault plan so the blackout gating and fault sweep are in
    // play. The engine's fast paths — spatial grid queries, shared-frame
    // fan-out, the calendar event queue, scratch-buffer reuse — must not
    // leak any iteration order or buffer state into observable results:
    // every field of the RunResult, floats compared bit-for-bit, has to
    // come out identical on a rerun of the same seed.
    let run = || {
        let params = ScenarioParams {
            duration: SimDuration::from_secs(60),
            seed: 42,
            density_per_km: 220.0,
            ..Default::default()
        };
        let mut cfg = town_scenario(&params);
        assert!(
            cfg.deployment.len() >= 1_000,
            "dense scenario must stay dense ({} sites)",
            cfg.deployment.len()
        );
        cfg.faults = FaultPlan::stormy(99, cfg.deployment.len(), cfg.duration);
        World::new(
            cfg,
            SpiderDriver::new(SpiderConfig::for_mode(
                OperationMode::SingleChannelMultiAp(Channel::CH6),
                1,
            )),
        )
        .run()
    };
    let (mut a, mut b) = (run(), run());
    assert_eq!(a.label, b.label);
    assert_eq!(a.duration, b.duration);
    assert_eq!(a.bytes, b.bytes);
    assert_eq!(
        a.avg_throughput_bps.to_bits(),
        b.avg_throughput_bps.to_bits()
    );
    assert_eq!(a.connectivity.to_bits(), b.connectivity.to_bits());
    let (sa, sb) = (
        a.instantaneous_bps.sorted_samples().to_vec(),
        b.instantaneous_bps.sorted_samples().to_vec(),
    );
    assert_eq!(sa.len(), sb.len(), "instantaneous-bandwidth sample counts");
    assert!(
        sa.iter().zip(&sb).all(|(x, y)| x.to_bits() == y.to_bits()),
        "instantaneous-bandwidth samples must be bit-identical"
    );
    assert_eq!(a.intervals.on_durations, b.intervals.on_durations);
    assert_eq!(a.intervals.off_durations, b.intervals.off_durations);
    assert_eq!(
        a.intervals.on_fraction.to_bits(),
        b.intervals.on_fraction.to_bits()
    );
    assert_eq!(a.join_log.assoc, b.join_log.assoc);
    assert_eq!(a.join_log.assoc_failures, b.join_log.assoc_failures);
    assert_eq!(a.join_log.dhcp, b.join_log.dhcp);
    assert_eq!(a.join_log.dhcp_failures, b.join_log.dhcp_failures);
    assert_eq!(a.join_log.join, b.join_log.join);
    assert_eq!(a.join_log.join_failures, b.join_log.join_failures);
    assert_eq!(a.switches, b.switches);
    assert_eq!(a.aps_encountered, b.aps_encountered);
    assert_eq!(a.tcp_timeouts, b.tcp_timeouts);
    assert_eq!(a.tcp_retransmits, b.tcp_retransmits);
    assert_eq!(
        a.faults.frames_dropped_blackout,
        b.faults.frames_dropped_blackout
    );
    assert_eq!(
        a.faults.packets_dropped_zombie,
        b.faults.packets_dropped_zombie
    );
    assert_eq!(a.faults.dhcp_dropped_silent, b.faults.dhcp_dropped_silent);
    assert_eq!(a.faults.dhcp_naks_exhausted, b.faults.dhcp_naks_exhausted);
    assert_eq!(
        a.faults.icmp_dropped_filtered,
        b.faults.icmp_dropped_filtered
    );
    assert_eq!(
        a.faults.frames_blackholed_arp,
        b.faults.frames_blackholed_arp
    );
    assert_eq!(
        a.faults.packets_hijacked_portal,
        b.faults.packets_hijacked_portal
    );
    assert_eq!(a.faults.uplink_dropped_asym, b.faults.uplink_dropped_asym);
    assert_eq!(
        a.faults.downlink_dropped_asym,
        b.faults.downlink_dropped_asym
    );
    assert_eq!(a.faults.ap_reboots, b.faults.ap_reboots);
    assert_eq!(a.faults.detect_times_s.len(), b.faults.detect_times_s.len());
    assert!(
        a.faults
            .detect_times_s
            .iter()
            .zip(&b.faults.detect_times_s)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "fault detection latencies must be bit-identical"
    );
    assert_eq!(a.events, b.events, "engine event count must be identical");
}
