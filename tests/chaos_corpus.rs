//! Corpus replay: every checked-in `spider-chaos-repro` artifact in
//! `corpus/` is re-run from its nearest checkpoint (through the
//! checkpoint/fork engine, DESIGN.md §13) and its recorded violations
//! must re-measure *exactly* — same rules, same budgets, same measured
//! values to the last bit. A previously-shrunk reproducer that stops
//! reproducing, or reproduces with different numbers, means an engine
//! change silently altered behaviour the campaign already pinned down.
//!
//! The world and SLO table here mirror the generating command recorded
//! in `corpus/README.md`: the tight-table campaign on the town drive,
//! world seed 7, over the drive length each artifact records.

use spider_repro::core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_repro::simcore::{Json, SimDuration};
use spider_repro::wire::Channel;
use spider_repro::workloads::campaign::{
    CheckpointTrie, MinimizedRepro, SloMetric, SloRule, SloTable,
};
use spider_repro::workloads::scenarios::{town_scenario, ScenarioParams};
use spider_repro::workloads::{FaultPlan, World};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The campaign's fixed world seed (`chaos_campaign`'s `WORLD_SEED`).
const WORLD_SEED: u64 = 7;

/// The same world `chaos_campaign` builds per trial: the town drive
/// with Spider in single-channel multi-AP mode on channel 6, run for
/// `duration`.
fn corpus_world(plan: &FaultPlan, duration: SimDuration) -> World<SpiderDriver> {
    let params = ScenarioParams {
        duration,
        seed: WORLD_SEED,
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

/// The `--tight` table the corpus campaigns were judged by: any
/// detection at all — blackout, zombie, or one of the adversarial
/// classes — is a violation. Rules that an old artifact's plan cannot
/// trigger measure nothing, so widening the table keeps every
/// previously-recorded violation list stable.
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
            SloRule {
                metric: SloMetric::MaxDetectS("arp-poison"),
                budget: 0.0,
            },
            SloRule {
                metric: SloMetric::MaxDetectS("captive-portal"),
                budget: 0.0,
            },
            SloRule {
                metric: SloMetric::MaxDetectS("asymmetric-loss"),
                budget: 0.0,
            },
        ],
    }
}

fn corpus_artifacts() -> Vec<(String, MinimizedRepro)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("corpus/ directory exists")
        .map(|e| {
            e.expect("readable corpus entry")
                .file_name()
                .into_string()
                .unwrap()
        })
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(&name))
                .unwrap_or_else(|e| panic!("read corpus/{name}: {e}"));
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("parse corpus/{name}: {e}"));
            let repro = MinimizedRepro::from_json(&doc)
                .unwrap_or_else(|| panic!("corpus/{name} is not a spider-chaos-repro artifact"));
            (name, repro)
        })
        .collect()
}

#[test]
fn corpus_artifacts_replay_identically_from_checkpoints() {
    let artifacts = corpus_artifacts();
    assert!(
        !artifacts.is_empty(),
        "corpus/ holds at least one artifact (see corpus/README.md)"
    );

    // One trie per recorded drive length: its fault-free key means every
    // artifact forks where its first episode can first be observed, and
    // artifacts share whatever prefix checkpoints earlier ones already
    // paid for. `run_all` replays in share-point order, which keeps the
    // chain advancing incrementally — an early-diverging artifact after
    // a late one would find no usable earlier snapshot and rebuild from
    // scratch.
    let table = tight_table();
    let world_for = |duration| move |plan: &FaultPlan| corpus_world(plan, duration);
    let mut by_duration: BTreeMap<SimDuration, Vec<&(String, MinimizedRepro)>> = BTreeMap::new();
    for artifact in &artifacts {
        by_duration
            .entry(artifact.1.duration)
            .or_default()
            .push(artifact);
    }
    let mut tries = Vec::new();
    for (duration, group) in by_duration {
        let mut trie = CheckpointTrie::new(world_for(duration));
        let plans: Vec<FaultPlan> = group.iter().map(|(_, r)| r.plan.clone()).collect();
        let results = trie.run_all(&plans);
        for ((name, repro), result) in group.into_iter().zip(&results) {
            assert!(
                repro.plan.episodes.len() <= repro.original_episodes,
                "{name}: minimized plan grew past its original schedule"
            );
            let measured = table.evaluate(result);
            assert_eq!(
                measured, repro.violations,
                "{name}: replay from checkpoint measured different violations \
                 than the artifact recorded"
            );
        }
        tries.push(trie);
    }

    // The engine must actually have shared prefixes, not just agreed.
    let forks: usize = tries.iter().map(|t| t.stats.forks).sum();
    let simulated: u64 = tries.iter().map(|t| t.stats.events_simulated).sum();
    let cold: u64 = tries.iter().map(|t| t.stats.events_cold).sum();
    assert!(
        forks >= artifacts.len(),
        "every artifact replays via a fork"
    );
    assert!(
        simulated < cold,
        "checkpoint replay simulated {simulated} events but cold runs would cost {cold} — \
         no prefix was shared"
    );
}
