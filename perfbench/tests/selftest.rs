//! Self-tests of the benchmark: the tracing decorator changes nothing the
//! simulation produces, metric names are well formed and match
//! `BENCHMARK.json`, the seed reaches every seeded workload, and the
//! benchmark's JSON files round-trip through `simcore::json`.

use spider_baselines::{StockConfig, StockDriver};
use spider_core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_mac80211::ClientSystem;
use spider_perfbench::trace::{ClientCounters, Traced};
use spider_perfbench::workload::{drive_output, drive_params, trace_drive};
use spider_perfbench::{Workload, INPUTS};
use spider_simcore::{Json, SimDuration};
use spider_workloads::scenarios::{town_scenario, ScenarioParams};
use spider_workloads::World;
use std::collections::BTreeSet;
use std::sync::Arc;

fn read_json(file: &str) -> Json {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("entry without a name")
                .to_string()
        })
        .collect()
}

/// A short drive of workload `w`'s shape.
fn short(w: Workload, input: u64) -> ScenarioParams {
    ScenarioParams {
        duration: SimDuration::from_secs(120),
        ..drive_params(w, input)
    }
}

fn spider(mode: OperationMode) -> SpiderDriver {
    SpiderDriver::new(SpiderConfig::for_mode(mode, 1))
}

/// The untraced run, a straight `World::run` through the plain driver,
/// against the counted pass of `trace_drive` through the decorator.
/// `trace_drive` itself checks its counted pass against its timed pass,
/// which runs in `run_until` slices with a snapshot taken half-way.
fn assert_transparent<C>(w: Workload, client: C, prefix: &str)
where
    C: ClientSystem + Clone + Send + 'static,
{
    let params = short(w, 3);
    let plain = World::new(town_scenario(&params), client.clone()).run();
    let drive = trace_drive(w.name(), &params, client, prefix);
    let (traced, metrics) = (drive.result, drive.metrics);
    assert_eq!(plain.to_json().pretty(), traced.to_json().pretty());
    assert_eq!(plain, traced);
    let get = |k: &str| metrics.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    assert_eq!(get("world.events"), Some(plain.events as f64));
    assert!(get(&format!("{prefix}.poll.calls")).unwrap_or(0.0) > 0.0);
}

#[test]
fn decorator_is_transparent_for_spider() {
    assert_transparent(
        Workload::MultichannelDrive,
        spider(OperationMode::MultiChannelMultiAp {
            period: SimDuration::from_millis(600),
        }),
        "spider",
    );
}

#[test]
fn decorator_is_transparent_for_stock() {
    assert_transparent(
        Workload::StockDrive,
        StockDriver::new(StockConfig::stock(1)),
        "baselines",
    );
}

#[test]
fn decorator_counters_survive_forks_without_double_counting() {
    let params = short(Workload::MultichannelDrive, 5);
    let driver = || {
        spider(OperationMode::MultiChannelMultiAp {
            period: SimDuration::from_millis(600),
        })
    };
    let load = |c: &ClientCounters| {
        let get = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
        (
            get(&c.on_frame_calls),
            get(&c.poll_calls),
            get(&c.observe_calls),
            get(&c.tx_frames),
        )
    };
    // Run the first minute, fork, and finish only the fork: the prefix is
    // counted once by the parent and the suffix once by the fork.
    let forked = Arc::new(ClientCounters::default());
    let mut world = World::new(
        town_scenario(&params),
        Traced::new(driver(), Arc::clone(&forked)),
    );
    world.run_until(spider_simcore::SimTime::from_secs(60));
    let fork = world.fork();
    drop(world);
    fork.finish();

    let straight = Arc::new(ClientCounters::default());
    World::new(
        town_scenario(&params),
        Traced::new(driver(), Arc::clone(&straight)),
    )
    .run();
    assert!(load(&straight).1 > 0);
    assert_eq!(load(&forked), load(&straight));
}

#[test]
fn metric_names_are_well_formed_and_match_the_benchmark() {
    let spec = read_json("../BENCHMARK.json");
    let well_formed = |n: &str| {
        !n.is_empty()
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    let per_layer = names(&spec, "per_layer");
    for n in names(&spec, "end_to_end")
        .iter()
        .chain(&per_layer)
        .chain(&names(&spec, "workloads"))
    {
        assert!(well_formed(n), "bad metric or workload name {n:?}");
    }
    // A traced drive emits every per-layer metric except the two that
    // run.py derives from process times.
    let drive = trace_drive(
        "multichannel_drive",
        &short(Workload::MultichannelDrive, 1),
        spider(OperationMode::MultiChannelMultiAp {
            period: SimDuration::from_millis(600),
        }),
        "spider",
    );
    let mut emitted: BTreeSet<String> = drive.metrics.into_iter().map(|(n, _)| n).collect();
    emitted.extend(spider_perfbench::probe::all().into_iter().map(|(n, _)| n));
    emitted.insert("sweep.idle_share".into());
    emitted.insert("trace.overhead_s".into());
    let listed: BTreeSet<String> = per_layer.into_iter().collect();
    assert_eq!(emitted, listed);
}

#[test]
fn seed_reaches_every_seeded_workload() {
    let refs = read_json("reference.json");
    for w in Workload::ALL {
        let digests = refs
            .get(w.name())
            .unwrap_or_else(|| panic!("no references for {}", w.name()));
        let Json::Obj(pairs) = digests else {
            panic!("references of {} are not an object", w.name())
        };
        let inputs: BTreeSet<u64> = (0..2 * INPUTS).map(|s| w.input(s, 0)).collect();
        if w == Workload::StockDrive {
            // Pinned to Table 2's world seed (see `Workload::input`).
            assert_eq!(inputs.len(), 1);
        } else {
            assert_eq!(inputs.len(), INPUTS as usize, "{}", w.name());
            assert_ne!(w.input(0, 0), w.input(1, 0));
            // Successive operations of one run take successive inputs.
            assert_ne!(w.input(0, 0), w.input(0, 1));
            // Different inputs give different outputs.
            let distinct: BTreeSet<&str> = pairs.iter().filter_map(|(_, d)| d.as_str()).collect();
            assert_eq!(distinct.len(), pairs.len(), "{} digests repeat", w.name());
        }
        for input in &inputs {
            assert!(
                digests.get(&input.to_string()).is_some(),
                "{} input {input} has no reference",
                w.name()
            );
        }
    }
}

#[test]
fn reference_matches_a_fresh_drive() {
    let refs = read_json("reference.json");
    let w = Workload::MultichannelDrive;
    let input = w.input(0, 0);
    let result = World::new(
        town_scenario(&drive_params(w, input)),
        spider(OperationMode::MultiChannelMultiAp {
            period: SimDuration::from_millis(600),
        }),
    )
    .run();
    let digest = spider_perfbench::workload::digest(&drive_output(&result));
    let recorded = refs
        .get(w.name())
        .and_then(|d| d.get(&input.to_string()))
        .and_then(Json::as_str);
    assert_eq!(recorded, Some(digest.as_str()));
}

#[test]
fn benchmark_files_round_trip_through_simcore_json() {
    for file in [
        "../BENCHMARK.json",
        "reference.json",
        "metrics.json",
        "baseline.json",
        "steadiness.json",
    ] {
        let doc = read_json(file);
        let again = Json::parse(&doc.pretty()).expect("re-parse");
        assert_eq!(doc, again, "{file}");
    }
    let spec = read_json("../BENCHMARK.json");
    let Json::Obj(pairs) = &spec else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = names(&spec, "workloads");
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
