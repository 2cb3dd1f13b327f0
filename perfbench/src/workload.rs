//! The three benchmark workloads, the inputs each one derives from the
//! benchmark seed, and one operation of each: untraced for the
//! end-to-end metrics, traced for the per-layer ones.

use crate::probe;
use crate::trace::{process_cpu_s, timer_ns, ClientCounters, Spans, Traced};
use spider_baselines::{StockConfig, StockDriver};
use spider_core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_mac80211::{ClientSystem, JoinLog};
use spider_simcore::{Json, SimDuration, SimRng, SimTime};
use spider_wire::Channel;
use spider_workloads::campaign::{
    chaos_plan, run_campaign_forked, CampaignConfig, CampaignReport, ChaosProfile, SloMetric,
    SloRule, SloTable,
};
use spider_workloads::scenarios::{town_scenario, ScenarioParams};
use spider_workloads::{FaultPlan, RunResult, World};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Inputs per workload. The benchmark seed selects one of them, and
/// every one has a recorded reference digest in `reference.json`, so an
/// operation's output is checked whatever seed the run is given.
pub const INPUTS: u64 = 32;

/// Deployment of the dense town: 1,026 sites at 220 APs per km.
const DENSE_DEPLOY_SEED: u64 = 42;
/// Deployment pinned by the Table 2 rows.
const TABLE2_DEPLOY_SEED: u64 = 1;
/// World seed of the Table 2 drive the stock workload runs.
const TABLE2_WORLD_SEED: u64 = 1;
/// World seed of the chaos campaign's town.
const CAMPAIGN_WORLD_SEED: u64 = 7;

pub const DRIVE_SECS: u64 = 1_800;
pub const STOCK_SECS: u64 = 600;
pub const CAMPAIGN_DRIVE_SECS: u64 = 300;
/// Enough trials that an operation's CPU time averages over many plans,
/// yet few enough that the trials end well inside the watchdog's first
/// 15 s tick, so the operation's wall time stays one tick long.
pub const CAMPAIGN_TRIALS: usize = 256;
/// The chaos CLI's per-trial watchdog.
const CAMPAIGN_WATCHDOG_MS: u64 = 120_000;
/// Simulated-time slices of a traced drive.
const SLICES: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MultichannelDrive,
    StockDrive,
    ChaosCampaign,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MultichannelDrive,
        Workload::StockDrive,
        Workload::ChaosCampaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MultichannelDrive => "multichannel_drive",
            Workload::StockDrive => "stock_drive",
            Workload::ChaosCampaign => "chaos_campaign",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The input operation `op` of a run with benchmark seed `seed`
    /// runs: the drive's world seed, or the campaign seed. Successive
    /// operations of a run walk through the inputs, so a run's median
    /// is taken over several inputs rather than one.
    ///
    /// The stock drive is pinned to Table 2's world seed. Its host cost
    /// depends on how long the stock driver's poll storm lasts, which
    /// varies with the world seed: over seeds 1 to 6 the drive simulates
    /// 3.5 M to 5.4 M events in 2.9 s to 7.0 s of run time, so a seeded
    /// input would spread `wall_s` far beyond any usable bound.
    pub fn input(self, seed: u64, op: u64) -> u64 {
        match self {
            Workload::StockDrive => TABLE2_WORLD_SEED,
            _ => 1 + (seed % INPUTS + op % INPUTS) % INPUTS,
        }
    }

    /// Every input this workload can run.
    pub fn inputs(self) -> Vec<u64> {
        let mut all: Vec<u64> = (0..INPUTS).map(|s| self.input(s, 0)).collect();
        all.dedup();
        all
    }
}

/// What one operation produced.
pub struct OpOutput {
    /// Hex digest of the operation's output, compared with the reference.
    pub digest: String,
    /// Sweep workers the operation used.
    pub workers: usize,
    /// Host seconds a traced operation spent on measurement beside the
    /// traced workload itself (clock calibration, the timed pass, replays,
    /// micro probes).
    pub extra_s: f64,
    /// Per-layer metrics (traced operations only).
    pub metrics: Vec<(String, f64)>,
    /// Coarse spans (traced operations only).
    pub spans: Json,
}

/// FNV-1a over the canonical JSON text.
pub fn digest(doc: &Json) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in doc.pretty().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A drive's output: [`RunResult::to_json`] without the engine's event
/// count, so a change that drops wasted events keeps the same digest.
pub fn drive_output(r: &RunResult) -> Json {
    match r.to_json() {
        Json::Obj(pairs) => Json::Obj(pairs.into_iter().filter(|(k, _)| k != "events").collect()),
        other => other,
    }
}

/// Scenario parameters of a drive workload for input `input`.
pub fn drive_params(w: Workload, input: u64) -> ScenarioParams {
    match w {
        Workload::MultichannelDrive => ScenarioParams {
            duration: SimDuration::from_secs(DRIVE_SECS),
            seed: input,
            deploy_seed: Some(DENSE_DEPLOY_SEED),
            density_per_km: 220.0,
            ..Default::default()
        },
        Workload::StockDrive => ScenarioParams {
            duration: SimDuration::from_secs(STOCK_SECS),
            seed: input,
            deploy_seed: Some(TABLE2_DEPLOY_SEED),
            ..Default::default()
        },
        Workload::ChaosCampaign => campaign_params(),
    }
}

fn campaign_params() -> ScenarioParams {
    ScenarioParams {
        duration: SimDuration::from_secs(CAMPAIGN_DRIVE_SECS),
        seed: CAMPAIGN_WORLD_SEED,
        ..Default::default()
    }
}

/// An unmeetable table: any detection violates, so every violating
/// trial goes through ddmin shrinking.
fn tight_table() -> SloTable {
    let rule = |class| SloRule {
        metric: SloMetric::MaxDetectS(class),
        budget: 0.0,
    };
    SloTable {
        rules: [
            "blackout",
            "zombie",
            "arp-poison",
            "captive-portal",
            "asymmetric-loss",
        ]
        .into_iter()
        .map(rule)
        .collect(),
    }
}

/// Campaign configuration for input `input` over a town of `num_aps`.
pub fn campaign_config(input: u64, num_aps: usize) -> CampaignConfig {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    CampaignConfig {
        trials: CAMPAIGN_TRIALS,
        seed: input,
        num_aps,
        duration: SimDuration::from_secs(CAMPAIGN_DRIVE_SECS),
        profile: ChaosProfile::adversarial(),
        slo: tight_table(),
        shrink_budget: 120,
        max_shrinks: 1,
        workers: nproc.min(2),
        watchdog_ms: Some(CAMPAIGN_WATCHDOG_MS),
    }
}

/// Set-up alone: everything an operation does before its first event,
/// `town_scenario` and `World::new` (for the campaign, also the
/// configuration, the trial plans and the root world the trials fork
/// from). Returns host seconds.
pub fn setup_only(w: Workload, input: u64) -> f64 {
    let t = Instant::now();
    match w {
        Workload::ChaosCampaign => {
            let params = campaign_params();
            let num_aps = town_scenario(&params).deployment.len();
            let cfg = campaign_config(input, num_aps);
            let root = SimRng::new(input);
            let plans: Vec<FaultPlan> = (0..cfg.trials as u64)
                .map(|t| {
                    let seed = root.stream_indexed("campaign-trial", t).seed();
                    chaos_plan(seed, num_aps, cfg.duration, &cfg.profile)
                })
                .collect();
            std::hint::black_box(plans);
            let mut wc = town_scenario(&params);
            wc.faults = FaultPlan::none();
            std::hint::black_box((cfg, World::new(wc, campaign_driver())));
        }
        Workload::StockDrive => {
            let cfg = town_scenario(&drive_params(w, input));
            std::hint::black_box(World::new(cfg, StockDriver::new(StockConfig::stock(1))));
        }
        Workload::MultichannelDrive => {
            let cfg = town_scenario(&drive_params(w, input));
            std::hint::black_box(World::new(cfg, multichannel_driver()));
        }
    }
    t.elapsed().as_secs_f64()
}

fn multichannel_driver() -> SpiderDriver {
    SpiderDriver::new(SpiderConfig::for_mode(
        OperationMode::MultiChannelMultiAp {
            period: SimDuration::from_millis(600),
        },
        1,
    ))
}

fn campaign_driver() -> SpiderDriver {
    SpiderDriver::new(SpiderConfig::for_mode(
        OperationMode::SingleChannelMultiAp(Channel::CH6),
        1,
    ))
}

/// Run one operation of `w` on `input`.
pub fn run_op(w: Workload, input: u64, traced: bool) -> OpOutput {
    match (w, traced) {
        (Workload::ChaosCampaign, _) => campaign_op(input, traced),
        (Workload::StockDrive, false) => {
            drive_plain(w, input, StockDriver::new(StockConfig::stock(1)))
        }
        (Workload::StockDrive, true) => drive_traced(
            w,
            input,
            StockDriver::new(StockConfig::stock(1)),
            "baselines",
        ),
        (Workload::MultichannelDrive, false) => drive_plain(w, input, multichannel_driver()),
        (Workload::MultichannelDrive, true) => {
            drive_traced(w, input, multichannel_driver(), "spider")
        }
    }
}

fn drive_plain<C: ClientSystem>(w: Workload, input: u64, client: C) -> OpOutput {
    let result = World::new(town_scenario(&drive_params(w, input)), client).run();
    OpOutput {
        digest: digest(&drive_output(&result)),
        workers: 1,
        extra_s: 0.0,
        metrics: Vec::new(),
        spans: Json::Null,
    }
}

/// A traced drive, then the micro probes.
pub fn drive_traced<C>(w: Workload, input: u64, client: C, prefix: &str) -> OpOutput
where
    C: ClientSystem + Clone + Send + 'static,
{
    let mut drive = trace_drive(w.name(), &drive_params(w, input), client, prefix);
    let t = Instant::now();
    drive.metrics.extend(probe::all());
    OpOutput {
        digest: digest(&drive_output(&drive.result)),
        workers: 1,
        extra_s: drive.extra_s + t.elapsed().as_secs_f64(),
        metrics: drive.metrics,
        spans: drive.spans,
    }
}

/// Host timings of an untraced world advanced in [`SLICES`] equal slices
/// of simulated time, so per-event cost can be compared between the
/// start and the end of the run. Sums over several worlds add up.
#[derive(Default)]
struct Sliced {
    /// Seconds in `run_until` and `finish`.
    run_s: f64,
    /// Seconds and events of each slice.
    slices: Vec<(f64, u64)>,
    /// Seconds in one `World::snapshot` half-way through each world.
    snapshot_s: f64,
    worlds: u32,
}

impl Sliced {
    fn add(&mut self, other: Sliced) {
        self.run_s += other.run_s;
        self.snapshot_s += other.snapshot_s;
        self.worlds += other.worlds;
        self.slices
            .resize(other.slices.len().max(self.slices.len()), (0.0, 0));
        for (sum, (s, n)) in self.slices.iter_mut().zip(other.slices) {
            sum.0 += s;
            sum.1 += n;
        }
    }

    /// ns/event of the last slice over the first.
    fn growth(&self) -> f64 {
        let ns_per_event = |(s, n): (f64, u64)| s * 1e9 / n.max(1) as f64;
        match (self.slices.first(), self.slices.last()) {
            (Some(&first), Some(&last)) => ns_per_event(last) / ns_per_event(first),
            _ => 0.0,
        }
    }

    fn mean_snapshot_s(&self) -> f64 {
        self.snapshot_s / f64::from(self.worlds.max(1))
    }
}

fn run_sliced<C>(
    mut world: World<C>,
    duration: SimDuration,
    spans: &Spans,
    parent: usize,
) -> (RunResult, Sliced)
where
    C: ClientSystem + Clone + Send + 'static,
{
    let step = duration.as_micros() / SLICES;
    let mut out = Sliced {
        worlds: 1,
        ..Sliced::default()
    };
    for k in 1..=SLICES {
        let events = world.events_processed();
        let until = SimTime::from_micros(step * k);
        let ((), dt) = spans.span(format!("run_until[{k}]"), Some(parent), || {
            world.run_until(until)
        });
        out.run_s += dt;
        out.slices.push((dt, world.events_processed() - events));
        if k == SLICES / 2 {
            let (snap, dt) = spans.span("snapshot", Some(parent), || world.snapshot());
            out.snapshot_s = dt;
            drop(snap);
        }
    }
    let ((result, _), finish_s) = spans.span("finish", Some(parent), || world.finish());
    out.run_s += finish_s;
    (result, out)
}

/// What [`trace_drive`] measured.
pub struct TracedDrive {
    pub result: RunResult,
    pub metrics: Vec<(String, f64)>,
    pub spans: Json,
    /// Host seconds spent on measurement beside the traced pass itself.
    pub extra_s: f64,
}

/// One drive, run twice. The timed pass runs the plain client in
/// `run_until` slices, and every host time of the world layer comes from
/// it, so none of them carries tracing cost. The counted pass runs the
/// client through the [`Traced`] decorator for the client layer's counts
/// and times, each call's time net of its clock reads. The two passes
/// must produce the same result.
pub fn trace_drive<C>(name: &str, params: &ScenarioParams, client: C, prefix: &str) -> TracedDrive
where
    C: ClientSystem + Clone + Send + 'static,
{
    let t = Instant::now();
    let timer_ns = timer_ns();
    let spans = Spans::default();
    let op = spans.open(name, None);
    let timed = spans.open("timed_pass", Some(op));
    let (cfg, _) = spans.span("town_scenario", Some(timed), || town_scenario(params));
    let (world, new_s) = spans.span("World::new", Some(timed), || {
        World::new(cfg, client.clone())
    });
    let (plain, sliced) = run_sliced(world, params.duration, &spans, timed);
    spans.close(timed);
    let extra_s = t.elapsed().as_secs_f64();

    let counted = spans.open("counted_pass", Some(op));
    let counters = Arc::new(ClientCounters::default());
    let (cfg, _) = spans.span("town_scenario", Some(counted), || town_scenario(params));
    let (world, _) = spans.span("World::new", Some(counted), || {
        World::new(cfg, Traced::new(client, Arc::clone(&counters)))
    });
    let (result, _) = spans.span("run", Some(counted), || world.run());
    spans.close(counted);
    spans.close(op);
    assert_eq!(plain, result, "the tracing decorator changed the drive");

    let run_s = sliced.run_s;
    let world_self_s = (run_s - counters.self_s(timer_ns)).max(0.0);
    let events = result.events;
    let mut m: Vec<(String, f64)> = vec![
        ("world.new_s".into(), new_s),
        ("world.events".into(), events as f64),
        ("world.events_per_s".into(), events as f64 / run_s),
        ("world.self_s".into(), world_self_s),
        (
            "world.ns_per_event".into(),
            world_self_s * 1e9 / events.max(1) as f64,
        ),
        ("world.slice_growth".into(), sliced.growth()),
        ("world.snapshot_s".into(), sliced.mean_snapshot_s()),
    ];
    let idle = ClientCounters::default();
    for p in ["spider", "baselines"] {
        let c = if p == prefix { &*counters } else { &idle };
        m.extend(c.metrics(p, run_s, timer_ns));
    }
    m.extend(engine_counts(
        &result.join_log,
        result.switches,
        result.tcp_retransmits,
        result.tcp_timeouts,
    ));
    m.extend(campaign_metrics(&CampaignLayer::default()));
    m.push((
        "faults.frames_dropped".into(),
        result.faults.total_drops() as f64,
    ));
    TracedDrive {
        result,
        metrics: m,
        spans: spans.to_json(),
        extra_s,
    }
}

/// Exact counts the lower layers leave on a [`RunResult`].
fn engine_counts(
    log: &JoinLog,
    switches: u64,
    retransmits: u64,
    timeouts: u64,
) -> Vec<(String, f64)> {
    let joins = log.join.len() as f64;
    let attempts = joins + log.join_failures as f64;
    let mut dhcp = log.dhcp_cdf();
    let dhcp_p50 = if dhcp.is_empty() { 0.0 } else { dhcp.median() };
    vec![
        ("radio.switches".into(), switches as f64),
        ("mac80211.assoc.ok".into(), log.assoc.len() as f64),
        ("mac80211.assoc.failures".into(), log.assoc_failures as f64),
        (
            "mac80211.join.ok_ratio".into(),
            if attempts > 0.0 {
                joins / attempts
            } else {
                0.0
            },
        ),
        ("netstack.dhcp.ok".into(), log.dhcp.len() as f64),
        ("netstack.dhcp.failures".into(), log.dhcp_failures as f64),
        ("netstack.dhcp.p50_s".into(), dhcp_p50),
        ("tcpsim.retransmits".into(), retransmits as f64),
        ("tcpsim.timeouts".into(), timeouts as f64),
    ]
}

/// What the campaign layer did; all zero for a drive, which never
/// enters it.
#[derive(Default)]
struct CampaignLayer {
    world_builds: u64,
    world_build_s: f64,
    events_simulated: u64,
    events_cold: u64,
    share_ratio: f64,
    checkpoints: usize,
    forks: usize,
    violating: usize,
}

fn campaign_metrics(c: &CampaignLayer) -> Vec<(String, f64)> {
    vec![
        ("campaign.world_builds".into(), c.world_builds as f64),
        ("campaign.world_build_s".into(), c.world_build_s),
        (
            "campaign.events_simulated".into(),
            c.events_simulated as f64,
        ),
        ("campaign.events_cold".into(), c.events_cold as f64),
        ("campaign.share_ratio".into(), c.share_ratio),
        ("campaign.checkpoints".into(), c.checkpoints as f64),
        ("campaign.forks".into(), c.forks as f64),
        ("campaign.violating".into(), c.violating as f64),
    ]
}

fn campaign_op(input: u64, traced: bool) -> OpOutput {
    let params = campaign_params();
    let num_aps = town_scenario(&params).deployment.len();
    let cfg = campaign_config(input, num_aps);
    let make_plain = |plan: &FaultPlan| {
        let mut wc = town_scenario(&params);
        wc.faults = plan.clone();
        World::new(wc, campaign_driver())
    };
    let digest_of = |report: &CampaignReport| {
        assert!(
            report.job_failures.is_empty(),
            "campaign trials panicked: {:?}",
            report.job_failures
        );
        digest(&report.to_json())
    };
    if !traced {
        let (report, _) = run_campaign_forked(&cfg, make_plain);
        return OpOutput {
            digest: digest_of(&report),
            workers: cfg.workers,
            extra_s: 0.0,
            metrics: Vec::new(),
            spans: Json::Null,
        };
    }

    // As for a drive, the campaign runs twice: a timed pass through the
    // plain driver gives the host times, and a counted pass through the
    // decorator the client layer's counts and times. The run time is the
    // timed pass's CPU time, as its wall time is mostly the watchdog's
    // sleep, less its world builds, as a drive's leaves out `World::new`.
    let t = Instant::now();
    let timer_ns = timer_ns();
    let spans = Spans::default();
    let op = spans.open("chaos_campaign", None);
    let timed = spans.open("timed_pass", Some(op));
    let builds = AtomicU64::new(0);
    let build_ns = AtomicU64::new(0);
    let make_timed = |plan: &FaultPlan| {
        let t = Instant::now();
        let world = make_plain(plan);
        builds.fetch_add(1, Ordering::Relaxed);
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        build_ns.fetch_add(ns, Ordering::Relaxed);
        world
    };
    let campaign = spans.open("run_campaign_forked", Some(timed));
    let cpu_start = process_cpu_s();
    let (plain, stats) = run_campaign_forked(&cfg, make_timed);
    let cpu_s = process_cpu_s() - cpu_start;
    spans.close(campaign);
    spans.close(timed);
    let mut extra_s = t.elapsed().as_secs_f64();

    let counted = spans.open("counted_pass", Some(op));
    let counters = Arc::new(ClientCounters::default());
    let make = |plan: &FaultPlan| {
        let mut wc = town_scenario(&params);
        wc.faults = plan.clone();
        World::new(wc, Traced::new(campaign_driver(), Arc::clone(&counters)))
    };
    let campaign = spans.open("run_campaign_forked", Some(counted));
    let (report, _) = run_campaign_forked(&cfg, make);
    spans.close(campaign);
    spans.close(counted);
    let out = digest_of(&report);
    assert_eq!(
        digest_of(&plain),
        out,
        "the tracing decorator changed the campaign"
    );

    // The lower layers' counts, fault drops, slice timings and snapshot
    // cost are not in the report: replay each trial's plan cold and
    // untraced, in slices, and sum.
    let replay = spans.open("replay_trials", Some(op));
    let (mut log, mut switches, mut retransmits, mut timeouts, mut dropped) =
        (JoinLog::new(), 0, 0, 0, 0);
    let mut sliced = Sliced::default();
    for o in &report.outcomes {
        let plan = chaos_plan(o.plan_seed, num_aps, cfg.duration, &cfg.profile);
        let trial = spans.open(format!("trial[{}]", o.trial), Some(replay));
        let (r, s) = run_sliced(make_plain(&plan), cfg.duration, &spans, trial);
        spans.close(trial);
        sliced.add(s);
        log.merge(&r.join_log);
        switches += r.switches;
        retransmits += r.tcp_retransmits;
        timeouts += r.tcp_timeouts;
        dropped += r.faults.total_drops();
    }
    extra_s += spans.close(replay);
    spans.close(op);

    let layer = CampaignLayer {
        world_builds: builds.load(Ordering::Relaxed),
        world_build_s: build_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        events_simulated: stats.events_simulated,
        events_cold: stats.events_cold,
        share_ratio: stats.speedup(),
        checkpoints: stats.checkpoints,
        forks: stats.forks,
        violating: report.violating_trials(),
    };
    let run_s = (cpu_s - layer.world_build_s).max(f64::MIN_POSITIVE);
    let world_self_s = (run_s - counters.self_s(timer_ns)).max(0.0);
    let events = stats.events_simulated;
    let mut m: Vec<(String, f64)> = vec![
        (
            "world.new_s".into(),
            layer.world_build_s / layer.world_builds.max(1) as f64,
        ),
        ("world.events".into(), events as f64),
        ("world.events_per_s".into(), events as f64 / run_s),
        ("world.self_s".into(), world_self_s),
        (
            "world.ns_per_event".into(),
            world_self_s * 1e9 / events.max(1) as f64,
        ),
        ("world.slice_growth".into(), sliced.growth()),
        ("world.snapshot_s".into(), sliced.mean_snapshot_s()),
    ];
    m.extend(counters.metrics("spider", run_s, timer_ns));
    m.extend(ClientCounters::default().metrics("baselines", run_s, timer_ns));
    m.extend(engine_counts(&log, switches, retransmits, timeouts));
    m.extend(campaign_metrics(&layer));
    m.push(("faults.frames_dropped".into(), dropped as f64));
    let t = Instant::now();
    m.extend(probe::all());
    OpOutput {
        digest: out,
        workers: cfg.workers,
        extra_s: extra_s + t.elapsed().as_secs_f64(),
        metrics: m,
        spans: spans.to_json(),
    }
}
