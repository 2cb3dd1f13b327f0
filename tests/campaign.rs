//! The chaos-campaign engine's end-to-end contract, on real worlds:
//! a deliberately tightened SLO table must turn seeded chaos schedules
//! into minimized reproducers that (a) are strictly smaller than the
//! schedule they came from, (b) still violate when replayed, and
//! (c) come out byte-identical whether the campaign's sweep runs on
//! one worker or four.

use spider_repro::baselines::{StockConfig, StockDriver};
use spider_repro::core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_repro::simcore::{SimDuration, SimTime};
use spider_repro::wire::Channel;
use spider_repro::workloads::campaign::{
    run_campaign, run_campaign_forked, run_matrix_cell, shrink_schedule, CampaignConfig,
    ChaosProfile, CheckpointTrie, MatrixReport, MinimizedRepro, SloMargins, SloMetric, SloRule,
    SloTable,
};
use spider_repro::workloads::scenarios::{lab_scenario, town_scenario, ScenarioParams};
use spider_repro::workloads::{FaultEpisode, FaultKind, FaultPlan, RunResult, World};

/// A cheap, fault-sensitive world: two same-channel APs, 40 s session.
fn make_lab(plan: &FaultPlan) -> World<SpiderDriver> {
    let mut cfg = lab_scenario(
        &[Channel::CH1, Channel::CH1],
        400_000.0,
        SimDuration::from_secs(40),
        4,
    );
    cfg.faults = plan.clone();
    World::new(
        cfg,
        SpiderDriver::new(SpiderConfig::for_mode(
            OperationMode::SingleChannelMultiAp(Channel::CH1),
            1,
        )),
    )
}

fn run_lab(plan: &FaultPlan) -> RunResult {
    make_lab(plan).run()
}

/// Unmeetable on purpose: any detected fault at all is a violation, so
/// seeded chaos schedules reliably fail and exercise the shrinker.
fn tight_table() -> SloTable {
    SloTable {
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
    }
}

fn campaign_config(workers: usize) -> CampaignConfig {
    CampaignConfig {
        trials: 4,
        seed: 11,
        num_aps: 2,
        duration: SimDuration::from_secs(40),
        profile: ChaosProfile::standard(),
        slo: tight_table(),
        shrink_budget: 80,
        max_shrinks: 2,
        workers,
        watchdog_ms: None,
    }
}

#[test]
fn tightened_slo_yields_minimized_reproducers_that_replay() {
    let report = run_campaign(&campaign_config(1), make_lab);

    assert!(
        report.violating_trials() > 0,
        "a zero-second detect budget must be violated by chaos schedules"
    );
    assert!(
        !report.minimized.is_empty(),
        "violating trials should have been shrunk"
    );
    for m in &report.minimized {
        // (a) Strictly smaller: the generator never emits single-episode
        // schedules (ChaosProfile::standard() floors at 3), so a working
        // shrinker always removes something.
        assert!(
            m.plan.episodes.len() < m.original_episodes,
            "trial {}: shrinker removed nothing ({} episodes before and after)",
            m.trial,
            m.original_episodes
        );
        assert!(m.evals > 0, "shrinker claims to have run no evaluations");

        // (b) The minimized schedule still violates on replay.
        let replayed = run_lab(&m.plan);
        let violations = tight_table().evaluate(&replayed);
        assert!(
            !violations.is_empty(),
            "trial {}: minimized schedule no longer violates on replay",
            m.trial
        );

        // (c) The serialized artifact round-trips and replays the same.
        let doc = m.to_json();
        let parsed = MinimizedRepro::from_json(&doc).expect("artifact round-trip");
        assert_eq!(parsed.plan.episodes.len(), m.plan.episodes.len());
        let replayed_again = run_lab(&parsed.plan);
        assert_eq!(replayed.bytes, replayed_again.bytes);
        assert_eq!(
            replayed.connectivity.to_bits(),
            replayed_again.connectivity.to_bits()
        );
        assert_eq!(replayed.faults, replayed_again.faults);
    }
}

#[test]
fn campaign_reports_are_byte_identical_across_worker_counts() {
    // The whole report — trial outcomes, measured SLO values, minimized
    // plans, shrink eval counts — rendered to canonical JSON, must not
    // depend on how the sweep was scheduled.
    let serial = run_campaign(&campaign_config(1), make_lab);
    let parallel = run_campaign(&campaign_config(4), make_lab);
    assert_eq!(
        serial.to_json().pretty(),
        parallel.to_json().pretty(),
        "campaign output depends on worker count"
    );
    assert_eq!(serial.minimized.len(), parallel.minimized.len());
    for (s, p) in serial.minimized.iter().zip(&parallel.minimized) {
        assert_eq!(s.to_json().pretty(), p.to_json().pretty());
    }
}

#[test]
fn forked_campaign_report_matches_cold_byte_for_byte() {
    // The checkpoint/fork engine is a pure optimization: its report —
    // every outcome, measured SLO value, minimized plan, eval count —
    // must render to exactly the cold path's JSON, at any worker count.
    // Its work ledger is scheduling-independent too: checkpoints are
    // built serially, so the sidecar is byte-identical at 1 and 4
    // workers.
    let cold = run_campaign(&campaign_config(1), make_lab);
    let mut sidecars = Vec::new();
    for workers in [1, 4] {
        let (forked, stats) = run_campaign_forked(&campaign_config(workers), make_lab);
        assert_eq!(
            forked.to_json().pretty(),
            cold.to_json().pretty(),
            "forked campaign report diverged from the cold run at {workers} workers"
        );
        assert!(stats.forks > 0, "no run was forked from a checkpoint");
        assert!(stats.checkpoints > 0, "no checkpoint was materialized");
        assert!(
            stats.events_simulated < stats.events_cold,
            "forking saved nothing: simulated {} of {} cold events",
            stats.events_simulated,
            stats.events_cold
        );
        assert!(
            stats.shrink_events_simulated < stats.shrink_events_cold,
            "shrink phase shared no prefixes"
        );
        sidecars.push(stats.to_json().pretty());
    }
    assert_eq!(
        sidecars[0], sidecars[1],
        "fork-stats sidecar depends on worker count"
    );
}

#[test]
fn shrinking_never_emits_zero_length_episodes() {
    // Window narrowing halves episodes from both ends; under maximal
    // pressure (a check that accepts every candidate) it must bottom
    // out at the minimum window, never at start == end — a zero-length
    // episode would be silently dropped by plan normalization and the
    // "minimized" artifact would stop reproducing.
    let ep = |kind: FaultKind, start: f64, end: f64| FaultEpisode {
        ap: Some(0),
        kind,
        start: SimTime::ZERO + SimDuration::from_secs_f64(start),
        end: SimTime::ZERO + SimDuration::from_secs_f64(end),
    };
    let plan = FaultPlan::scripted(vec![
        ep(FaultKind::ArpPoison, 5.0, 30.0),
        ep(FaultKind::CaptivePortal, 8.0, 20.0),
        ep(FaultKind::AsymmetricLoss { up: 0.9, down: 0.1 }, 10.0, 26.0),
        ep(FaultKind::Blackout, 12.0, 33.0),
    ]);
    let outcome = shrink_schedule(&plan, 400, |_| true);
    assert_eq!(
        outcome.plan.episodes.len(),
        1,
        "an always-failing check should shrink to a single episode"
    );
    for e in &outcome.plan.episodes {
        assert!(
            e.start < e.end,
            "shrinker produced a zero-length episode at {:?}",
            e.start
        );
    }
    // Round-tripping through normalization keeps every episode: none
    // were degenerate, so none get dropped.
    let renormalized = FaultPlan::scripted(outcome.plan.episodes.clone());
    assert_eq!(renormalized.episodes.len(), outcome.plan.episodes.len());
}

#[test]
fn matrix_cells_are_byte_identical_across_workers_and_forking() {
    // The matrix runner layers envelope calibration and per-cell SLO
    // tables on top of the campaign sweep; none of that may introduce
    // scheduling sensitivity. A two-cell lab matrix (Spider + stock on
    // the same channel) must render to identical JSON at 1 vs 4
    // workers, forked vs cold.
    let make_spider = |plan: &FaultPlan| make_lab(plan);
    let make_stock = |plan: &FaultPlan| {
        let mut cfg = lab_scenario(
            &[Channel::CH1, Channel::CH1],
            400_000.0,
            SimDuration::from_secs(40),
            4,
        );
        cfg.faults = plan.clone();
        let mut sc = StockConfig::quickwifi(1);
        sc.scan_channels = vec![Channel::CH1];
        World::new(cfg, StockDriver::new(sc))
    };
    let margins = SloMargins::spider_paper();
    let stock_margins = SloMargins::stock_monitor();

    let matrix = |workers: usize, forked: bool| {
        let mut cfg = campaign_config(workers);
        cfg.profile = ChaosProfile::adversarial();
        let (spider_cell, _) = run_matrix_cell(
            "single-channel-multi-ap",
            "spider",
            &cfg,
            &margins,
            forked,
            make_spider,
        );
        let (stock_cell, _) = run_matrix_cell(
            "single-channel-multi-ap",
            "stock",
            &cfg,
            &stock_margins,
            forked,
            make_stock,
        );
        MatrixReport {
            seed: cfg.seed,
            cells: vec![spider_cell, stock_cell],
        }
        .to_json()
        .pretty()
    };

    let reference = matrix(1, false);
    for (workers, forked) in [(4, false), (1, true), (4, true)] {
        assert_eq!(
            matrix(workers, forked),
            reference,
            "matrix report diverged at {workers} workers, forked={forked}"
        );
    }
}

#[test]
fn checkpoint_trie_runs_are_bit_identical_to_cold() {
    // Every path through the trie must equal the candidate's cold run
    // bit for bit. Episode starts are fixed mid-run so the divergence
    // boundaries land past t=0 and the fork paths actually engage.
    let ep = |ap: Option<usize>, kind: FaultKind, start: f64, end: f64| FaultEpisode {
        ap,
        kind,
        start: SimTime::ZERO + SimDuration::from_secs_f64(start),
        end: SimTime::ZERO + SimDuration::from_secs_f64(end),
    };
    let plan = FaultPlan::scripted(vec![
        ep(Some(0), FaultKind::Blackout, 8.0, 20.0),
        ep(Some(1), FaultKind::Zombie, 12.0, 26.0),
        ep(None, FaultKind::LossBurst { extra: 0.4 }, 18.0, 30.0),
        ep(Some(0), FaultKind::DhcpSilence, 22.0, 34.0),
    ]);
    let front = FaultPlan::scripted(plan.episodes[..3].to_vec());
    let mut trie = CheckpointTrie::new(make_lab);

    // The first run forks off a checkpoint grown under the fault-free
    // key, just before the plan's first episode.
    assert_eq!(
        trie.run(&plan),
        run_lab(&plan),
        "first run diverged from cold"
    );
    assert_eq!((trie.stats.checkpoints, trie.stats.forks), (1, 1));

    // (a) With the plan a key, a candidate dropping its last episode
    // shares the plan up to 22 s: the fault-free checkpoint is swapped
    // onto the plan and advanced under it.
    trie.insert(plan.clone());
    assert_eq!(
        trie.run(&front),
        run_lab(&front),
        "plan-swap path diverged from cold"
    );
    assert_eq!((trie.stats.checkpoints, trie.stats.forks), (2, 2));

    // (b) A behaviourally identical plan needs no new checkpoint: it
    // forks from the deepest one its key already has.
    let same = FaultPlan::scripted(plan.episodes.clone());
    assert_eq!(plan.first_divergence(&same, &[]), None);
    assert_eq!(
        trie.run(&same),
        run_lab(&same),
        "identical plan diverged from cold"
    );
    assert_eq!((trie.stats.checkpoints, trie.stats.forks), (2, 3));
    assert!(trie.stats.events_simulated < trie.stats.events_cold);

    // (c) The cold trie builds nothing and forks nothing.
    let mut cold = CheckpointTrie::cold(make_lab);
    cold.insert(plan.clone());
    for candidate in [&plan, &front, &same] {
        assert_eq!(
            cold.run(candidate),
            run_lab(candidate),
            "cold trie diverged"
        );
    }
    assert_eq!((cold.stats.checkpoints, cold.stats.forks), (0, 0));
    assert_eq!(cold.stats.events_simulated, cold.stats.events_cold);
}

/// The campaign's town drive (world seed 7, Spider on channel 6),
/// shortened to 150 s: APs along the loop are first reached at
/// staggered times, some never.
fn make_town(plan: &FaultPlan) -> World<SpiderDriver> {
    let params = ScenarioParams {
        duration: SimDuration::from_secs(150),
        seed: 7,
        ..Default::default()
    };
    let mut cfg = town_scenario(&params);
    cfg.faults = plan.clone();
    World::new(
        cfg,
        SpiderDriver::new(SpiderConfig::for_mode(
            OperationMode::SingleChannelMultiAp(Channel::CH6),
            1,
        )),
    )
}

#[test]
fn episodes_on_an_ap_reached_late_fork_where_they_become_visible() {
    // Pick the first AP the drive reaches 60 s in or later.
    let reached = make_town(&FaultPlan::none()).first_activations();
    let (ap, reach) = reached
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, at)| at >= SimTime::from_secs(60) && at < SimTime::MAX)
        .min_by_key(|&(_, at)| at)
        .expect("the drive reaches some AP after 60 s");
    assert!(
        reach <= SimTime::from_secs(110),
        "AP {ap} is reached at {reach}"
    );
    let ep = |kind: FaultKind, from: i64, to: i64| {
        let at = |s: i64| SimTime::from_micros((reach.as_micros() as i64 + s * 1_000_000) as u64);
        FaultEpisode {
            ap: Some(ap),
            kind,
            start: at(from),
            end: at(to),
        }
    };
    // Wholly before the AP is reached, straddling that point, and after.
    let before = ep(FaultKind::Blackout, -40, -10);
    let straddle = ep(FaultKind::Blackout, -5, 20);
    let zombie = ep(FaultKind::Zombie, 25, 35);
    let plan = FaultPlan::scripted(vec![before, straddle, zombie]);
    let inert = FaultPlan::scripted(vec![before]);

    let mut trie = CheckpointTrie::new(make_town);
    assert_eq!(trie.share_point(&plan), reach);
    assert_eq!(trie.share_point(&inert), SimTime::MAX);

    let cold = make_town(&plan).run();
    assert_eq!(trie.run(&plan), cold, "forked run diverged from cold");
    assert_eq!(cold.faults.ap_reboots, 2, "{:?}", cold.faults);
    // Run again, the plan forks off the checkpoint its first run grew,
    // so what it simulates is (at most) its suffix: the fork landed
    // after the straddling blackout began.
    let simulated = trie.stats.events_simulated;
    assert_eq!(trie.run(&plan), cold, "second forked run diverged");
    let suffix = trie.stats.events_simulated - simulated;
    let mut prefix = make_town(&FaultPlan::none());
    prefix.run_until(straddle.start);
    assert!(
        cold.events - suffix > prefix.events_processed(),
        "forked at event {} of {}, not past the episode start (event {})",
        cold.events - suffix,
        cold.events,
        prefix.events_processed()
    );

    // A blackout over before the AP is reached changes nothing but the
    // reboot count, which is taken from the plan.
    let inert_cold = make_town(&inert).run();
    assert_eq!(
        trie.run(&inert),
        inert_cold,
        "inert plan diverged from cold"
    );
    assert_eq!(inert_cold.faults.ap_reboots, 1);
    let clean = make_town(&FaultPlan::none()).run();
    assert_eq!(
        (inert_cold.events, inert_cold.bytes, &inert_cold.join_log),
        (clean.events, clean.bytes, &clean.join_log)
    );
}
