//! Chaos-campaign engine: generated fault schedules, recovery SLOs,
//! and failing-schedule shrinking.
//!
//! The scripted chaos tests only verify recovery against failures
//! someone thought to write down, and [`FaultPlan::stormy`] draws each
//! fault class independently per AP — it structurally cannot produce
//! the *compound* failures ("Why It Takes So Long to Connect to a WiFi
//! Access Point" finds the long tail of join failures there): an ICMP
//! blackhole opening mid-loss-burst, a blackout landing during a DHCP
//! REQUEST, a zombie window inside an exhaustion episode. This module
//! imagines those scenarios on purpose and at scale:
//!
//! 1. [`chaos_plan`] generates a randomized [`FaultPlan`] from a
//!    [`ChaosProfile`]: episodes of every [`FaultKind`] (including
//!    *windowed* ICMP blackholes, which the stormy generator never
//!    emits), deliberately overlapping, with explicit compound pairs
//!    layered on the same AP and window.
//! 2. An [`SloTable`] judges each run: declarative per-fault-class
//!    detect/recover budgets (the §3.2.2 3.0 s ping budget), DHCP
//!    timing budgets (§2.2.1/Table 3), and floor metrics (minimum
//!    connectivity, minimum payload).
//! 3. On a violation, [`shrink_schedule`] delta-debugs the failing
//!    schedule to a minimal reproducer — drop episode chunks
//!    (ddmin-style), then narrow the surviving windows — re-checking
//!    the violation after every candidate edit. The result serializes
//!    via [`MinimizedRepro::to_json`] into an artifact that replays
//!    bit-identically.
//!
//! [`run_campaign`] drives the whole loop over the fault-tolerant
//! sweep runner ([`spider_simcore::try_sweep_with`]): a trial that
//! panics the simulator is quarantined as a [`JobFailure`] in the
//! report instead of sinking the batch, which matters precisely
//! because campaigns run inputs nobody has run before.
//!
//! Everything is a pure function of the campaign seed: trial schedules
//! derive from per-trial RNG streams, the sweep merges results in
//! trial order, and shrinking walks candidates deterministically — the
//! same campaign config yields byte-identical reports and artifacts at
//! any worker count.

use crate::faults::{FaultEpisode, FaultKind, FaultPlan};
use crate::metrics::RunResult;
use crate::world::World;
use spider_mac80211::ClientSystem;
use spider_simcore::{
    try_sweep_with, JobFailure, Json, SimDuration, SimRng, SimTime, SweepOptions,
};

/// Which classes a chaos schedule draws from, and where in the drive
/// its episodes may start.
///
/// Unlike [`FaultPlan::stormy`] (per-class Poisson incidence, each
/// class drawn independently), this is an *adversity* model: every
/// trial draws 3–10 base episodes with 5–60 s windows, and about a
/// third of them gain an overlapping partner. The generator makes no
/// attempt at plausibility — its job is coverage of the
/// failure-combination space.
#[derive(Debug, Clone)]
pub struct ChaosProfile {
    /// Draw the adversarial tail of [`CHAOS_KINDS`] (ARP poison,
    /// captive portals, directional loss) alongside the original six.
    adversarial: bool,
    /// Fraction of the available start range before which no episode
    /// begins, in `[0, 1)`. `0.0` is the whole drive; `0.5` back-loads
    /// every episode into the second half, which is the regime where
    /// the checkpoint prefix-tree (DESIGN.md §13) pays most — long
    /// shared fault-free prefixes.
    start_frac: f64,
}

/// Inclusive bounds on the number of base episodes per trial.
const CHAOS_EPISODES: (usize, usize) = (3, 10);
/// Episode window length bounds in seconds (uniform), long enough to
/// straddle joins.
const CHAOS_WINDOW_SECS: (f64, f64) = (5.0, 60.0);
/// Probability that a base episode gains a *compound partner*: a second
/// episode of a different class on the same target with an overlapping
/// window.
const CHAOS_COMPOUND_PROB: f64 = 0.35;
/// Probability that an episode is area-wide (`ap: None`) rather than
/// pinned to one AP.
const CHAOS_GLOBAL_PROB: f64 = 0.1;
/// Extra-loss bounds for generated [`FaultKind::LossBurst`]s and each
/// leg of a [`FaultKind::AsymmetricLoss`].
const CHAOS_LOSS_EXTRA: (f64, f64) = (0.1, 0.6);

/// Class order of the generator's weighted draw.
pub const CHAOS_KINDS: [&str; 9] = [
    "blackout",
    "zombie",
    "dhcp-silence",
    "dhcp-exhausted",
    "icmp-blackhole",
    "loss-burst",
    "arp-poison",
    "captive-portal",
    "asymmetric-loss",
];

/// Draw weights per class, in [`CHAOS_KINDS`] order, without and with
/// the adversarial tail.
///
/// `pick_weighted` sums the slice and walks it against one uniform
/// draw, so *trailing zero* weights change neither the total nor the
/// draw sequence: the standard profile generates byte-identical plans
/// to the six-class generator, which is what keeps every recorded
/// corpus artifact valid.
const STANDARD_WEIGHTS: [f64; 9] = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0];
const ADVERSARIAL_WEIGHTS: [f64; 9] = [1.0; 9];

impl ChaosProfile {
    /// The standard campaign profile: the six original classes over the
    /// whole drive. Its plans (and so every recorded corpus artifact)
    /// predate the adversarial classes.
    pub fn standard() -> ChaosProfile {
        ChaosProfile {
            adversarial: false,
            start_frac: 0.0,
        }
    }

    /// [`ChaosProfile::standard`] with the adversarial classes armed:
    /// ARP poison, captive portals, and directional loss drawn at full
    /// weight alongside the original six. New artifacts and the
    /// campaign matrix use this.
    pub fn adversarial() -> ChaosProfile {
        ChaosProfile {
            adversarial: true,
            ..ChaosProfile::standard()
        }
    }

    /// [`ChaosProfile::standard`] with every episode back-loaded into
    /// the tail `1 - frac` of the drive: the long shared fault-free
    /// prefix makes this the showcase regime for cross-trial
    /// checkpoint sharing (the `prefix_tree` section of
    /// `BENCH_world.json` runs it).
    pub fn back_loaded(frac: f64) -> ChaosProfile {
        assert!(
            (0.0..1.0).contains(&frac),
            "back_loaded wants frac in [0, 1)"
        );
        ChaosProfile {
            start_frac: frac,
            ..ChaosProfile::standard()
        }
    }
}

/// Draw one fault kind according to the profile's weights.
fn draw_kind(rng: &mut SimRng, profile: &ChaosProfile) -> FaultKind {
    let weights = if profile.adversarial {
        &ADVERSARIAL_WEIGHTS
    } else {
        &STANDARD_WEIGHTS
    };
    let (lo, hi) = CHAOS_LOSS_EXTRA;
    match rng.pick_weighted(weights) {
        0 => FaultKind::Blackout,
        1 => FaultKind::Zombie,
        2 => FaultKind::DhcpSilence,
        3 => FaultKind::DhcpExhausted,
        4 => FaultKind::IcmpBlackhole,
        5 => FaultKind::LossBurst {
            extra: rng.uniform_in(lo, hi),
        },
        6 => FaultKind::ArpPoison,
        7 => FaultKind::CaptivePortal,
        // Directional loss reuses the burst's extra bounds per leg; the
        // two draws are ordered up-then-down.
        _ => FaultKind::AsymmetricLoss {
            up: rng.uniform_in(lo, hi),
            down: rng.uniform_in(lo, hi),
        },
    }
}

/// Generate a randomized chaos schedule: a pure function of
/// `(seed, num_aps, duration, profile)`.
///
/// Two deliberate differences from [`FaultPlan::stormy`]: episodes of
/// *different* classes freely overlap on the same AP (compound
/// failures), and [`FaultKind::IcmpBlackhole`] appears as a windowed
/// episode (a gateway that *starts* filtering mid-session) instead of
/// a whole-run property.
pub fn chaos_plan(
    seed: u64,
    num_aps: usize,
    duration: SimDuration,
    profile: &ChaosProfile,
) -> FaultPlan {
    assert!(num_aps > 0, "chaos plans need at least one AP to target");
    let mut rng = SimRng::new(seed).stream("chaos-plan");
    let horizon = duration.as_secs_f64();
    let (lo, hi) = CHAOS_EPISODES;
    let n = rng.uniform_u64(lo as u64, hi as u64 + 1) as usize;
    let mut episodes = Vec::with_capacity(n * 2);
    for _ in 0..n {
        let ap = if rng.chance(CHAOS_GLOBAL_PROB) {
            None
        } else {
            Some(rng.index(num_aps))
        };
        let kind = draw_kind(&mut rng, profile);
        let dur = rng.uniform_in(CHAOS_WINDOW_SECS.0, CHAOS_WINDOW_SECS.1);
        let avail = (horizon - dur).max(0.0);
        // With start_frac = 0 this is uniform_in(0, avail) exactly —
        // same arguments, same draw — so existing seeded plans stay
        // bit-identical.
        let start = rng.uniform_in(profile.start_frac * avail, avail);
        let end = (start + dur).min(horizon);
        let base = FaultEpisode {
            ap,
            kind,
            start: SimTime::ZERO + SimDuration::from_secs_f64(start),
            end: SimTime::ZERO + SimDuration::from_secs_f64(end),
        };
        episodes.push(base);
        if rng.chance(CHAOS_COMPOUND_PROB) {
            // A partner of a different class, overlapping the base
            // window on the same target: this is where the interesting
            // combinations come from (ICMP blackhole + loss burst,
            // blackout inside a DHCP-silence window, ...).
            let partner_kind = loop {
                let k = draw_kind(&mut rng, profile);
                if k.label() != kind.label() {
                    break k;
                }
            };
            let p_start = rng.uniform_in(start, end.max(start + 1e-6));
            let p_dur = rng.uniform_in(CHAOS_WINDOW_SECS.0, CHAOS_WINDOW_SECS.1);
            let p_end = (p_start + p_dur).min(horizon);
            episodes.push(FaultEpisode {
                ap,
                kind: partner_kind,
                start: SimTime::ZERO + SimDuration::from_secs_f64(p_start),
                end: SimTime::ZERO + SimDuration::from_secs_f64(p_end),
            });
        }
    }
    FaultPlan { episodes }
}

/// One judged quantity of a run. Budgets are `f64`s in the metric's
/// natural unit (seconds, fraction, bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloMetric {
    /// Worst ping-monitor detection latency for one data-fault class
    /// (`"blackout"`, `"zombie"`, `"arp-poison"`, `"captive-portal"`,
    /// `"asymmetric-loss"`), seconds. No detections of that class →
    /// nothing to judge.
    MaxDetectS(&'static str),
    /// Worst fault-coincident outage-to-recovery latency, seconds.
    MaxRecoverS,
    /// Floor on the run's connectivity fraction.
    MinConnectivity,
    /// Floor on total delivered payload bytes.
    MinBytes,
    /// Ceiling on the 90th-percentile DHCP acquisition time, seconds
    /// (nearest-rank; no successful acquisitions → nothing to judge).
    MaxDhcpP90S,
}

impl SloMetric {
    /// Stable row key for reports and artifacts.
    pub fn label(&self) -> String {
        match self {
            SloMetric::MaxDetectS(class) => format!("detect.{class}.max_s"),
            SloMetric::MaxRecoverS => "recover.max_s".into(),
            SloMetric::MinConnectivity => "connectivity.min".into(),
            SloMetric::MinBytes => "bytes.min".into(),
            SloMetric::MaxDhcpP90S => "dhcp.p90.max_s".into(),
        }
    }

    /// Parse a [`label`](SloMetric::label) back into the metric.
    /// Detection classes resolve against [`CHAOS_KINDS`], so an
    /// artifact can only name classes the generator can produce.
    pub fn from_label(label: &str) -> Option<SloMetric> {
        match label {
            "recover.max_s" => return Some(SloMetric::MaxRecoverS),
            "connectivity.min" => return Some(SloMetric::MinConnectivity),
            "bytes.min" => return Some(SloMetric::MinBytes),
            "dhcp.p90.max_s" => return Some(SloMetric::MaxDhcpP90S),
            _ => {}
        }
        let class = label.strip_prefix("detect.")?.strip_suffix(".max_s")?;
        CHAOS_KINDS
            .iter()
            .find(|k| **k == class)
            .map(|k| SloMetric::MaxDetectS(k))
    }

    /// Measure this metric on a run. `None` when the run produced no
    /// samples to judge (e.g. no detections of the class).
    pub fn measure(&self, r: &RunResult) -> Option<f64> {
        match self {
            SloMetric::MaxDetectS(class) => r.faults.detect_times_for(class).reduce(f64::max),
            SloMetric::MaxRecoverS => r.faults.max_recover_s(),
            SloMetric::MinConnectivity => Some(r.connectivity),
            SloMetric::MinBytes => Some(r.bytes as f64),
            SloMetric::MaxDhcpP90S => {
                if r.join_log.dhcp.is_empty() {
                    return None;
                }
                let mut times: Vec<f64> = r
                    .join_log
                    .dhcp
                    .iter()
                    .map(|s| s.took.as_secs_f64())
                    .collect();
                times.sort_by(|a, b| a.total_cmp(b));
                // Nearest-rank p90, consistent with `Cdf::quantile`.
                let rank = ((0.9 * times.len() as f64).ceil() as usize).max(1) - 1;
                Some(times[rank.min(times.len() - 1)])
            }
        }
    }

    /// Does `measured` break `budget` for this metric? (`Max*` rules
    /// violate above the budget, `Min*` rules below.)
    pub fn violates(&self, measured: f64, budget: f64) -> bool {
        match self {
            SloMetric::MinConnectivity | SloMetric::MinBytes => measured < budget,
            _ => measured > budget,
        }
    }
}

/// One row of the SLO table: a metric and its budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloRule {
    /// What is judged.
    pub metric: SloMetric,
    /// The budget in the metric's unit.
    pub budget: f64,
}

/// A broken rule, with what was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SloViolation {
    /// The rule that fired.
    pub rule: SloRule,
    /// The measured value that broke it.
    pub measured: f64,
}

impl std::fmt::Display for SloViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: measured {:.3} vs budget {:.3}",
            self.rule.metric.label(),
            self.measured,
            self.rule.budget
        )
    }
}

impl SloViolation {
    /// Artifact form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rule", Json::str(self.rule.metric.label())),
            ("budget", Json::Num(self.rule.budget)),
            ("measured", Json::Num(self.measured)),
        ])
    }

    /// Parse the artifact form back. The measured value round-trips
    /// exactly (the JSON layer prints floats losslessly), so a replay
    /// can assert bit-equal re-measurement.
    pub fn from_json(v: &Json) -> Option<SloViolation> {
        Some(SloViolation {
            rule: SloRule {
                metric: SloMetric::from_label(v.get("rule")?.as_str()?)?,
                budget: v.get("budget")?.as_f64()?,
            },
            measured: v.get("measured")?.as_f64()?,
        })
    }
}

/// The declarative recovery-SLO table a campaign judges every run
/// against.
#[derive(Debug, Clone, PartialEq)]
pub struct SloTable {
    /// All rules; order is report order.
    pub rules: Vec<SloRule>,
}

impl SloTable {
    /// The paper-derived budgets (DESIGN.md §12):
    ///
    /// * detect ≤ 3.05 s per data-fault class — §3.2.2's 30 consecutive
    ///   losses at 10 pings/s is a 3.0 s budget; +50 ms absorbs the
    ///   ping-tick phase,
    /// * recover ≤ 45 s — re-scan + backoff + re-join against a
    ///   *different* AP while driving,
    /// * DHCP p90 ≤ 10 s — the §2.2.1 client's retry ladder
    ///   (1/2/4 s timers) exhausts near 10 s; Table 3's failure tail
    ///   sits beyond it,
    /// * at least one delivered byte — a run that moves nothing through
    ///   a *survivable* storm is a recovery failure by definition.
    pub fn paper_default() -> SloTable {
        SloTable {
            rules: vec![
                SloRule {
                    metric: SloMetric::MaxDetectS("blackout"),
                    budget: 3.05,
                },
                SloRule {
                    metric: SloMetric::MaxDetectS("zombie"),
                    budget: 3.05,
                },
                SloRule {
                    metric: SloMetric::MaxRecoverS,
                    budget: 45.0,
                },
                SloRule {
                    metric: SloMetric::MaxDhcpP90S,
                    budget: 10.0,
                },
                SloRule {
                    metric: SloMetric::MinBytes,
                    budget: 1.0,
                },
            ],
        }
    }

    /// Judge one run: every broken rule, in table order.
    pub fn evaluate(&self, r: &RunResult) -> Vec<SloViolation> {
        self.rules
            .iter()
            .filter_map(|rule| {
                let measured = rule.metric.measure(r)?;
                rule.metric
                    .violates(measured, rule.budget)
                    .then_some(SloViolation {
                        rule: *rule,
                        measured,
                    })
            })
            .collect()
    }

    /// Artifact form of the whole table.
    pub fn to_json(&self) -> Json {
        Json::arr(self.rules.iter().map(|r| {
            Json::obj([
                ("rule", Json::str(r.metric.label())),
                ("budget", Json::Num(r.budget)),
            ])
        }))
    }
}

/// Minimum episode window the shrinker will narrow down to (µs). Below
/// half a second a window stops interacting with any protocol timer in
/// the stack, so further narrowing only burns evaluations.
const MIN_WINDOW_US: u64 = 500_000;

/// The result of shrinking one failing schedule.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized plan (still violating, by construction).
    pub plan: FaultPlan,
    /// Candidate evaluations spent. Each evaluation *judges* a full
    /// world run; the forked runner produces that run by resuming a
    /// shared checkpoint rather than simulating from `t = 0` (see
    /// [`CheckpointTrie`]), so an evaluation costs only its suffix.
    pub evals: usize,
}

/// Delta-debug a failing schedule down to a minimal reproducer.
///
/// `still_fails` must return `true` when a candidate plan still
/// violates the SLO under the *same* world config — the input plan is
/// required to fail (debug-asserted via the first phase's baseline).
/// Two phases, both greedy and deterministic:
///
/// 1. **Episode ddmin**: try dropping chunks at doubling granularity
///    (halves, quarters, ... single episodes); adopt any candidate
///    that still fails. Chunks are tried **latest-starting first**:
///    a candidate that only drops late episodes diverges from the
///    reference schedule late, so the checkpoint-forked runner
///    ([`CheckpointTrie`]) resumes a long shared prefix instead of
///    re-simulating it. Candidates remain order-preserving subsets of
///    the input plan — episodes are never reordered, so order-sensitive
///    fault compositions (overlapping loss bursts) are untouched.
/// 2. **Window narrowing**: for each surviving episode — again
///    latest-starting first — repeatedly halve the window from the
///    end, then from the start, adopting while the violation survives
///    (down to [`MIN_WINDOW_US`]).
///
/// `budget` caps total `still_fails` evaluations; the shrinker returns
/// its best-so-far when spent. The candidate walk is a pure function
/// of the input plan and the check outcomes, so a deterministic
/// `still_fails` yields a deterministic reproducer — and the cold and
/// forked campaign runners, which differ only in how `still_fails`
/// produces the run, walk the identical candidate sequence.
pub fn shrink_schedule(
    plan: &FaultPlan,
    budget: usize,
    mut still_fails: impl FnMut(&FaultPlan) -> bool,
) -> ShrinkOutcome {
    let mut current = plan.clone();
    let mut evals = 0usize;
    let mut check = |p: &FaultPlan, evals: &mut usize| {
        *evals += 1;
        still_fails(p)
    };

    // Phase 1: ddmin over episodes. Within a round the chunk windows
    // are fixed against the round-entry schedule and composed through
    // an `alive` mask, so they can be *tried* in any order; trying the
    // latest-starting chunks first means most candidates differ from
    // the reference only late in simulated time — exactly the shape
    // the checkpoint trie resumes cheaply.
    let mut granularity = 2usize;
    while current.episodes.len() >= 2 && evals < budget {
        let len = current.episodes.len();
        let granularity_now = granularity.min(len);
        let chunk = len.div_ceil(granularity_now);
        let mut windows: Vec<(usize, usize)> = (0..len)
            .step_by(chunk)
            .map(|s| (s, (s + chunk).min(len)))
            .collect();
        windows.sort_by_key(|&(s, e)| {
            let earliest = current.episodes[s..e]
                .iter()
                .map(|ep| ep.start)
                .min()
                .expect("chunk windows are non-empty");
            std::cmp::Reverse(earliest)
        });
        let mut progressed = false;
        let mut alive = vec![true; len];
        for (s, e) in windows {
            if evals >= budget {
                break;
            }
            let mut candidate_alive = alive.clone();
            candidate_alive[s..e].fill(false);
            let keep: Vec<FaultEpisode> = current
                .episodes
                .iter()
                .zip(&candidate_alive)
                .filter(|(_, a)| **a)
                .map(|(ep, _)| *ep)
                .collect();
            if keep.is_empty() {
                continue;
            }
            let candidate = FaultPlan::scripted(keep);
            if check(&candidate, &mut evals) {
                alive = candidate_alive;
                progressed = true;
            }
        }
        let mut it = alive.iter();
        current
            .episodes
            .retain(|_| *it.next().expect("mask covers every episode"));
        if progressed {
            granularity = 2;
        } else if granularity_now >= len {
            break;
        } else {
            granularity = (granularity * 2).min(len);
        }
    }

    // Phase 2: narrow each surviving episode's window, latest first so
    // successive references keep sharing their early prefix.
    let mut order: Vec<usize> = (0..current.episodes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(current.episodes[i].start));
    for i in order {
        // Halve from the end, then from the start.
        for from_end in [true, false] {
            loop {
                if evals >= budget {
                    return ShrinkOutcome {
                        plan: current,
                        evals,
                    };
                }
                let e = current.episodes[i];
                let width = e.end.as_micros().saturating_sub(e.start.as_micros());
                if width <= MIN_WINDOW_US {
                    break;
                }
                let mid = e.start.as_micros() + width / 2;
                let mut candidate = current.clone();
                if from_end {
                    candidate.episodes[i].end = SimTime::from_micros(mid);
                } else {
                    candidate.episodes[i].start = SimTime::from_micros(mid);
                }
                if check(&candidate, &mut evals) {
                    current = candidate;
                } else {
                    break;
                }
            }
        }
    }

    ShrinkOutcome {
        plan: current,
        evals,
    }
}

/// Configuration for one chaos campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of randomized trials.
    pub trials: usize,
    /// Campaign root seed; trial schedules derive from per-trial
    /// streams of it.
    pub seed: u64,
    /// AP count of the world the trials run in (schedule targets).
    pub num_aps: usize,
    /// Simulated duration of the world the trials run in.
    pub duration: SimDuration,
    /// Schedule-generation knobs.
    pub profile: ChaosProfile,
    /// The recovery SLOs every trial is judged against.
    pub slo: SloTable,
    /// Max candidate evaluations the shrinker may spend per failing
    /// trial. Each evaluation judges a full world run; the forked
    /// runner resumes it from a shared checkpoint instead of
    /// simulating from `t = 0`.
    pub shrink_budget: usize,
    /// Max failing trials to shrink (the rest are still reported).
    pub max_shrinks: usize,
    /// Sweep workers; `0` = [`spider_simcore::worker_count`].
    pub workers: usize,
    /// Optional per-trial wall-clock watchdog in milliseconds (hung
    /// trials get flagged in the report; see
    /// [`spider_simcore::SweepReport::hung`]).
    pub watchdog_ms: Option<u64>,
}

impl CampaignConfig {
    /// A small smoke campaign over a world with `num_aps` APs.
    pub fn smoke(seed: u64, num_aps: usize, duration: SimDuration) -> CampaignConfig {
        CampaignConfig {
            trials: 8,
            seed,
            num_aps,
            duration,
            profile: ChaosProfile::standard(),
            slo: SloTable::paper_default(),
            shrink_budget: 120,
            max_shrinks: 4,
            workers: 0,
            watchdog_ms: None,
        }
    }
}

/// One trial's schedule, as handed to the sweep runner.
#[derive(Debug, Clone)]
struct TrialJob {
    trial: usize,
    plan_seed: u64,
    plan: FaultPlan,
}

/// The judged outcome of one completed trial.
#[derive(Debug, Clone)]
pub struct TrialRecord {
    /// Trial index within the campaign.
    pub trial: usize,
    /// The derived seed its schedule was generated from.
    pub plan_seed: u64,
    /// Episodes in the generated schedule.
    pub episodes: usize,
    /// Broken SLO rules (empty = the trial passed).
    pub violations: Vec<SloViolation>,
    /// Payload bytes the run still delivered.
    pub bytes: u64,
    /// Connectivity fraction of the run.
    pub connectivity: f64,
}

impl TrialRecord {
    /// Report form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("trial", Json::UInt(self.trial as u64)),
            ("plan_seed", Json::UInt(self.plan_seed)),
            ("episodes", Json::UInt(self.episodes as u64)),
            (
                "violations",
                Json::arr(self.violations.iter().map(SloViolation::to_json)),
            ),
            ("bytes", Json::UInt(self.bytes)),
            ("connectivity", Json::Num(self.connectivity)),
        ])
    }
}

/// A minimized failing schedule, ready to serialize as a replayable
/// artifact.
#[derive(Debug, Clone)]
pub struct MinimizedRepro {
    /// Which trial produced it.
    pub trial: usize,
    /// The trial's schedule seed (provenance; the artifact's plan is
    /// what replays, not the seed).
    pub plan_seed: u64,
    /// Simulated drive length the schedule was shrunk under; a replay
    /// must run the same drive for the violations to re-measure.
    pub duration: SimDuration,
    /// Episode count of the original failing schedule.
    pub original_episodes: usize,
    /// The minimized schedule.
    pub plan: FaultPlan,
    /// Violations measured on the minimized schedule's replay.
    pub violations: Vec<SloViolation>,
    /// World runs the shrinker spent.
    pub evals: usize,
}

impl MinimizedRepro {
    /// Serialize the artifact. Contains everything a replay needs: the
    /// minimized plan (exact microsecond windows, exact float
    /// parameters), the drive length, provenance and the violations it
    /// reproduces.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("artifact", Json::str("spider-chaos-repro")),
            ("trial", Json::UInt(self.trial as u64)),
            ("plan_seed", Json::UInt(self.plan_seed)),
            ("duration_us", Json::UInt(self.duration.as_micros())),
            (
                "original_episodes",
                Json::UInt(self.original_episodes as u64),
            ),
            ("shrink_evals", Json::UInt(self.evals as u64)),
            (
                "violations",
                Json::arr(self.violations.iter().map(SloViolation::to_json)),
            ),
            ("plan", self.plan.to_json()),
        ])
    }

    /// Parse an artifact back, including the recorded violations —
    /// replay re-measures them and asserts exact agreement rather than
    /// trusting them (the corpus test in `tests/chaos_corpus.rs`).
    /// `None` when any field, the drive length included, is missing.
    pub fn from_json(v: &Json) -> Option<MinimizedRepro> {
        if v.get("artifact")?.as_str()? != "spider-chaos-repro" {
            return None;
        }
        Some(MinimizedRepro {
            trial: v.get("trial")?.as_u64()? as usize,
            plan_seed: v.get("plan_seed")?.as_u64()?,
            duration: SimDuration::from_micros(v.get("duration_us")?.as_u64()?),
            original_episodes: v.get("original_episodes")?.as_u64()? as usize,
            plan: FaultPlan::from_json(v.get("plan")?)?,
            violations: v
                .get("violations")?
                .as_arr()?
                .iter()
                .map(SloViolation::from_json)
                .collect::<Option<Vec<_>>>()?,
            evals: v.get("shrink_evals")?.as_u64()? as usize,
        })
    }
}

/// The complete outcome of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign seed (provenance).
    pub seed: u64,
    /// Trials attempted.
    pub trials: usize,
    /// Judged outcomes of completed trials, in trial order.
    pub outcomes: Vec<TrialRecord>,
    /// Trials whose simulator run panicked, quarantined by the sweep.
    pub job_failures: Vec<JobFailure>,
    /// Trial indices the watchdog flagged as hung (diagnostic).
    pub hung: Vec<usize>,
    /// Minimized reproducers for (up to `max_shrinks`) failing trials.
    pub minimized: Vec<MinimizedRepro>,
}

impl CampaignReport {
    /// Trials that completed and broke at least one SLO.
    pub fn violating_trials(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.violations.is_empty())
            .count()
    }

    /// A campaign is clean when every trial completed and passed.
    pub fn is_clean(&self) -> bool {
        self.violating_trials() == 0 && self.job_failures.is_empty()
    }

    /// Report form (sans the full minimized plans — those serialize as
    /// their own artifacts). Deterministic for a deterministic runner
    /// at any worker count; the watchdog's `hung` list is the one
    /// timing-dependent field and is reported separately by callers
    /// that care.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::UInt(self.seed)),
            ("trials", Json::UInt(self.trials as u64)),
            (
                "violating_trials",
                Json::UInt(self.violating_trials() as u64),
            ),
            (
                "outcomes",
                Json::arr(self.outcomes.iter().map(TrialRecord::to_json)),
            ),
            (
                "job_failures",
                Json::arr(self.job_failures.iter().map(|f| {
                    Json::obj([
                        ("trial", Json::UInt(f.index as u64)),
                        ("fingerprint", Json::str(f.fingerprint.clone())),
                        ("message", Json::str(f.message.clone())),
                    ])
                })),
            ),
            (
                "minimized",
                Json::arr(self.minimized.iter().map(|m| {
                    Json::obj([
                        ("trial", Json::UInt(m.trial as u64)),
                        ("original_episodes", Json::UInt(m.original_episodes as u64)),
                        (
                            "minimized_episodes",
                            Json::UInt(m.plan.episodes.len() as u64),
                        ),
                        ("shrink_evals", Json::UInt(m.evals as u64)),
                        (
                            "violations",
                            Json::arr(m.violations.iter().map(SloViolation::to_json)),
                        ),
                    ])
                })),
            ),
        ])
    }
}

/// Work ledger of the forked campaign path: how much simulation the
/// checkpoint engine actually executed versus what the cold path pays
/// for the same bit-identical results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ForkStats {
    /// Events actually executed: checkpoint building plus every
    /// resumed suffix.
    pub events_simulated: u64,
    /// Events the cold path would have executed for the same runs
    /// (each from `t = 0`).
    pub events_cold: u64,
    /// World snapshots materialized.
    pub checkpoints: usize,
    /// Runs resumed from a checkpoint.
    pub forks: usize,
    /// The shrink phase's share of `events_simulated`.
    pub shrink_events_simulated: u64,
    /// The shrink phase's share of `events_cold`.
    pub shrink_events_cold: u64,
}

impl ForkStats {
    /// Cold-to-forked work ratio over the whole campaign (>1 = saved).
    pub fn speedup(&self) -> f64 {
        self.events_cold as f64 / self.events_simulated.max(1) as f64
    }

    /// Cold-to-forked work ratio of the shrink phase alone.
    pub fn shrink_speedup(&self) -> f64 {
        self.shrink_events_cold as f64 / self.shrink_events_simulated.max(1) as f64
    }

    /// Report form (kept out of [`CampaignReport::to_json`] so forked
    /// and cold reports diff byte-identically).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("events_simulated", Json::UInt(self.events_simulated)),
            ("events_cold", Json::UInt(self.events_cold)),
            ("checkpoints", Json::UInt(self.checkpoints as u64)),
            ("forks", Json::UInt(self.forks as u64)),
            (
                "shrink_events_simulated",
                Json::UInt(self.shrink_events_simulated),
            ),
            ("shrink_events_cold", Json::UInt(self.shrink_events_cold)),
            ("speedup", Json::Num(self.speedup())),
            ("shrink_speedup", Json::Num(self.shrink_speedup())),
        ])
    }

    /// Account one finished run, of which `simulated` events were
    /// executed and the rest inherited from a checkpoint.
    fn count_run(&mut self, forked: bool, result: &RunResult, simulated: u64) {
        self.forks += usize::from(forked);
        self.events_simulated += simulated;
        self.events_cold += result.events;
    }
}

/// A world checkpoint held by a [`CheckpointTrie`]: advanced under
/// key `key` through every event at or before `limit`.
struct Checkpoint<C: ClientSystem> {
    key: usize,
    limit: SimTime,
    world: World<C>,
}

/// Prefix-sharing run engine for both campaign phases (DESIGN.md §13).
///
/// The trie holds *keys* — the fault-free plan, then every plan
/// [`insert`](CheckpointTrie::insert)ed — and the world checkpoints it
/// has built, each tagged with the key it was advanced under. Every
/// divergence it ranks is activation-aware: it builds the drive's
/// [`World::first_activations`] table once, from the fault-free world,
/// so a difference on an AP the client has not reached yet is shared.
/// To run a plan `q` it
///
/// 1. picks the key with the greatest [`FaultPlan::divergence_rank`]
///    against `q` (ties go to the key inserted first); call that rank
///    `d`, `q`'s [share point](CheckpointTrie::share_point),
/// 2. takes the deepest checkpoint valid for both that key and `q`
///    whose [`World::plan_horizon`] is before `d`,
/// 3. if advancing gains ground, advances it under the key to just
///    before `d` ([`World::advance_shared`]) and stores the result as a
///    new checkpoint. A checkpoint grown under another plan first grows
///    under that plan to where it leaves the key, then takes the key's
///    plan, so the branch point is stored too; a fresh world counts as
///    grown under the fault-free plan,
/// 4. forks `q` from that checkpoint and finishes the run.
///
/// Every run is bit-identical to `make(q).run()`. Nothing is ever
/// evicted. [`CheckpointTrie::cold`] stores nothing, so every run starts
/// at `t = 0`: the oracle runs this same code with sharing off.
pub struct CheckpointTrie<C: ClientSystem, F> {
    make: F,
    /// [`World::first_activations`] of the drive (empty on a cold trie,
    /// which ranks nothing).
    activations: Vec<SimTime>,
    keys: Vec<FaultPlan>,
    checkpoints: Vec<Checkpoint<C>>,
    /// Work ledger of every run served so far.
    pub stats: ForkStats,
}

impl<C, F> CheckpointTrie<C, F>
where
    C: ClientSystem + Clone,
    F: Fn(&FaultPlan) -> World<C>,
{
    /// A sharing trie over worlds built by `make` (a pure function of
    /// the plan); its first key is the fault-free plan.
    pub fn new(make: F) -> CheckpointTrie<C, F> {
        let activations = make(&FaultPlan::none()).first_activations();
        CheckpointTrie {
            activations,
            keys: vec![FaultPlan::none()],
            ..CheckpointTrie::cold(make)
        }
    }

    /// A trie with no keys: it builds nothing, neither a checkpoint nor
    /// the activation table, and every run is `make(plan).finish()`.
    pub fn cold(make: F) -> CheckpointTrie<C, F> {
        CheckpointTrie {
            make,
            activations: Vec::new(),
            keys: Vec::new(),
            checkpoints: Vec::new(),
            stats: ForkStats::default(),
        }
    }

    /// Make `plan` a key later runs may share a prefix with (a no-op on
    /// a cold trie).
    pub fn insert(&mut self, plan: FaultPlan) {
        if !self.keys.is_empty() {
            self.keys.push(plan);
        }
    }

    /// Run `plan` to completion from the deepest checkpoint it shares.
    pub fn run(&mut self, plan: &FaultPlan) -> RunResult {
        let base = self.base(plan);
        let (result, simulated) = self.resume(base, plan);
        self.stats.count_run(base.is_some(), &result, simulated);
        result
    }

    /// [`CheckpointTrie::run`] every plan, in ascending order of share
    /// point so that the chains the runs fork from only ever advance;
    /// results come back in the order of `plans`.
    pub fn run_all(&mut self, plans: &[FaultPlan]) -> Vec<RunResult> {
        let mut order: Vec<usize> = (0..plans.len()).collect();
        order.sort_by_cached_key(|&i| (self.share_point(&plans[i]), i));
        let mut results: Vec<Option<RunResult>> = vec![None; plans.len()];
        for i in order {
            results[i] = Some(self.run(&plans[i]));
        }
        results.into_iter().flatten().collect()
    }

    /// The end of the longest prefix `plan` shares with a key: the
    /// instant its run may fork at ([`SimTime::MAX`] when a key is
    /// behaviourally identical, zero on a cold trie).
    pub fn share_point(&self, plan: &FaultPlan) -> SimTime {
        self.nearest_key(plan).map_or(SimTime::ZERO, |(_, d)| d)
    }

    /// Step 1: the key with the greatest divergence rank against `plan`
    /// (ties to the key inserted first), and that rank.
    fn nearest_key(&self, plan: &FaultPlan) -> Option<(usize, SimTime)> {
        self.keys
            .iter()
            .map(|k| self.rank(k, plan))
            .enumerate()
            .fold(None, |best, (i, d)| match best {
                Some((_, best_d)) if best_d >= d => best,
                _ => Some((i, d)),
            })
    }

    /// [`FaultPlan::divergence_rank`] over this drive's activations.
    fn rank(&self, a: &FaultPlan, b: &FaultPlan) -> SimTime {
        a.divergence_rank(b, &self.activations)
    }

    /// [`shrink_schedule`] with every candidate run through this trie
    /// and judged by `slo`. A candidate that still fails becomes a key,
    /// as the shrinker's next reference; `plan` itself should already
    /// be one.
    pub fn shrink(&mut self, plan: &FaultPlan, budget: usize, slo: &SloTable) -> ShrinkOutcome {
        shrink_schedule(plan, budget, |p| {
            let fails = !slo.evaluate(&self.run(p)).is_empty();
            if fails {
                self.insert(p.clone());
            }
            fails
        })
    }

    /// Steps 1–3: the checkpoint `plan` forks from, or `None` when it
    /// shares no prefix and runs cold. A checkpoint is stored only once
    /// it is built, so a panicking prefix leaves the trie consistent.
    fn base(&mut self, plan: &FaultPlan) -> Option<usize> {
        let (key, d) = self.nearest_key(plan)?;
        if d == SimTime::ZERO {
            return None;
        }
        let key_plan = &self.keys[key];
        let valid = |cp: &Checkpoint<C>| {
            let horizon = cp.world.plan_horizon();
            let tag = &self.keys[cp.key];
            horizon < d
                && (cp.key == key
                    || self.rank(tag, key_plan) > horizon && self.rank(tag, plan) > horizon)
        };
        let found = self
            .checkpoints
            .iter()
            .enumerate()
            .filter(|(_, cp)| valid(cp))
            .max_by_key(|&(i, cp)| (cp.limit, std::cmp::Reverse(i)))
            .map(|(i, _)| i);

        // A behaviourally identical key has nothing past the checkpoint
        // worth keeping: the fork itself is the rest of the run.
        if d == SimTime::MAX {
            return found;
        }
        // A checkpoint grown under another plan first grows under that
        // plan to where it leaves the key, so the branch point becomes a
        // checkpoint of its own. A fresh world is the fault-free root.
        let tag = found.map_or(0, |i| self.checkpoints[i].key);
        let branch = self.rank(&self.keys[tag], key_plan).min(d);
        let found = if branch < d {
            self.grow(found, tag, branch)
        } else {
            found
        };
        self.grow(found, key, d)
    }

    /// Advance checkpoint `from` (a fresh world when `None`) under key
    /// `key` to just before `d`, swapping the key's plan in first when
    /// `from` was grown under another, and store the result if that
    /// gained ground. Returns the checkpoint to fork from.
    fn grow(&mut self, from: Option<usize>, key: usize, d: SimTime) -> Option<usize> {
        let floor = from.map_or(SimTime::ZERO, |i| self.checkpoints[i].limit);
        let target = SimTime::from_micros(d.as_micros().saturating_sub(1));
        if floor >= target {
            return from;
        }
        let plan = &self.keys[key];
        let (world, achieved, executed) = match from {
            Some(i) if self.checkpoints[i].key == key => {
                self.checkpoints[i].world.advance_shared(target, d)
            }
            Some(i) => self.checkpoints[i]
                .world
                .fork_with_plan(plan.clone())
                .advance_shared(target, d),
            None => (self.make)(plan).advance_shared(target, d),
        };
        self.stats.events_simulated += executed;
        if achieved <= floor {
            return from;
        }
        self.stats.checkpoints += 1;
        self.checkpoints.push(Checkpoint {
            key,
            limit: achieved,
            world,
        });
        Some(self.checkpoints.len() - 1)
    }

    /// Step 4: run `plan` from checkpoint `base` (cold when `None`).
    /// Returns the result and the events actually simulated.
    fn resume(&self, base: Option<usize>, plan: &FaultPlan) -> (RunResult, u64) {
        match base {
            Some(i) => {
                let fork = self.checkpoints[i].world.fork_with_plan(plan.clone());
                let from = fork.events_processed();
                let (result, _) = fork.finish();
                let simulated = result.events - from;
                (result, simulated)
            }
            None => {
                let (result, _) = (self.make)(plan).finish();
                let simulated = result.events;
                (result, simulated)
            }
        }
    }
}

/// Run a chaos campaign: generate one randomized schedule per trial,
/// run them through the fault-tolerant sweep, judge each against the
/// SLO table, and shrink the first `max_shrinks` failing schedules to
/// minimal reproducers.
///
/// `make` builds a world under a candidate fault plan and must be a
/// pure function of it (the world config and driver are baked into the
/// closure). Every world runs cold from `t = 0`
/// ([`CheckpointTrie::cold`]): this is the oracle
/// [`run_campaign_forked`] must match byte for byte.
pub fn run_campaign<C, F>(cfg: &CampaignConfig, make: F) -> CampaignReport
where
    C: ClientSystem + Clone + Send + Sync,
    F: Fn(&FaultPlan) -> World<C> + Sync,
{
    campaign(cfg, CheckpointTrie::cold(make)).0
}

/// [`run_campaign`] with prefix sharing: trials and shrink candidates
/// resume from the checkpoints of one [`CheckpointTrie`] instead of
/// simulating from `t = 0`. The [`CampaignReport`] is byte-for-byte
/// the cold one (CI diffs the two JSON forms); the [`ForkStats`] ledger
/// says how much simulation it saved.
pub fn run_campaign_forked<C, F>(cfg: &CampaignConfig, make: F) -> (CampaignReport, ForkStats)
where
    C: ClientSystem + Clone + Send + Sync,
    F: Fn(&FaultPlan) -> World<C> + Sync,
{
    campaign(cfg, CheckpointTrie::new(make))
}

/// The campaign body both entries share; `trie` serves every run.
///
/// * **Trial phase**: the only key is the fault-free plan. Each trial's
///   base is built serially in ascending order of its share point (the
///   first instant one of its episodes can be observed), so the
///   fault-free chain advances once. The trials then fork in parallel,
///   reading the trie immutably. Trials never fork off each other: no
///   two generated schedules share a faulty episode.
/// * **Shrink phase**: a failing trial's plan becomes a key, then every
///   candidate is a plain query; a candidate that still fails becomes a
///   key too, as the shrinker's next reference.
fn campaign<C, F>(
    cfg: &CampaignConfig,
    mut trie: CheckpointTrie<C, F>,
) -> (CampaignReport, ForkStats)
where
    C: ClientSystem + Clone + Send + Sync,
    F: Fn(&FaultPlan) -> World<C> + Sync,
{
    let root = SimRng::new(cfg.seed);
    let jobs: Vec<TrialJob> = (0..cfg.trials)
        .map(|t| {
            let plan_seed = root.stream_indexed("campaign-trial", t as u64).seed();
            TrialJob {
                trial: t,
                plan_seed,
                plan: chaos_plan(plan_seed, cfg.num_aps, cfg.duration, &cfg.profile),
            }
        })
        .collect();

    // A panicking prefix leaves its trial cold, where the sweep
    // quarantines the panic with the trial's fingerprint.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_cached_key(|&i| (trie.share_point(&jobs[i].plan), i));
    let mut bases: Vec<Option<usize>> = vec![None; jobs.len()];
    for &i in &order {
        bases[i] =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| trie.base(&jobs[i].plan)))
                .unwrap_or(None);
    }

    // The watchdog deadline is a real-time hang budget for the host,
    // never simulated time.
    let watchdog = cfg.watchdog_ms.map(core::time::Duration::from_millis);
    let shared = &trie;
    let sweep = try_sweep_with(
        &jobs,
        |j| shared.resume(bases[j.trial], &j.plan),
        |j| {
            format!(
                "trial={} plan_seed={:#018x} episodes={}",
                j.trial,
                j.plan_seed,
                j.plan.episodes.len()
            )
        },
        SweepOptions {
            workers: cfg.workers,
            watchdog,
        },
    );
    for (job, slot) in jobs.iter().zip(&sweep.results) {
        if let Some((result, simulated)) = slot {
            trie.stats
                .count_run(bases[job.trial].is_some(), result, *simulated);
        }
    }
    let trial_events = (trie.stats.events_simulated, trie.stats.events_cold);

    let mut outcomes = Vec::new();
    let mut minimized = Vec::new();
    for (job, slot) in jobs.iter().zip(&sweep.results) {
        let Some((result, _)) = slot else { continue };
        let violations = cfg.slo.evaluate(result);
        if !violations.is_empty() && minimized.len() < cfg.max_shrinks {
            trie.insert(job.plan.clone());
            let outcome = trie.shrink(&job.plan, cfg.shrink_budget, &cfg.slo);
            let final_violations = cfg.slo.evaluate(&trie.run(&outcome.plan));
            debug_assert!(
                !final_violations.is_empty(),
                "shrinker must preserve the violation"
            );
            minimized.push(MinimizedRepro {
                trial: job.trial,
                plan_seed: job.plan_seed,
                duration: cfg.duration,
                original_episodes: job.plan.episodes.len(),
                plan: outcome.plan,
                violations: final_violations,
                evals: outcome.evals,
            });
        }
        outcomes.push(TrialRecord {
            trial: job.trial,
            plan_seed: job.plan_seed,
            episodes: job.plan.episodes.len(),
            violations,
            bytes: result.bytes,
            connectivity: result.connectivity,
        });
    }
    let mut stats = trie.stats;
    stats.shrink_events_simulated = stats.events_simulated - trial_events.0;
    stats.shrink_events_cold = stats.events_cold - trial_events.1;

    (
        CampaignReport {
            seed: cfg.seed,
            trials: cfg.trials,
            outcomes,
            job_failures: sweep.failures,
            hung: sweep.hung,
            minimized,
        },
        stats,
    )
}

/// Fault-free performance envelope of one campaign-matrix cell — what
/// the (mode, driver) pairing achieves when nothing is attacking it.
/// Calibration input for [`calibrated_slo`]: budgets judge the faulted
/// runs *relative to what this cell can actually do*, so a
/// single-channel baseline is not held to a multi-AP Spider bar.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Payload bytes the fault-free run delivered.
    pub bytes: u64,
    /// Connectivity fraction of the fault-free run.
    pub connectivity: f64,
    /// Fault-free p90 DHCP acquisition, seconds (`None` when the run
    /// never completed an acquisition — nothing to calibrate against).
    pub dhcp_p90_s: Option<f64>,
}

impl Envelope {
    /// Measure the envelope off a fault-free run.
    pub fn measure(r: &RunResult) -> Envelope {
        Envelope {
            bytes: r.bytes,
            connectivity: r.connectivity,
            dhcp_p90_s: SloMetric::MaxDhcpP90S.measure(r),
        }
    }

    /// Report form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bytes", Json::UInt(self.bytes)),
            ("connectivity", Json::Num(self.connectivity)),
            (
                "dhcp_p90_s",
                match self.dhcp_p90_s {
                    Some(v) => Json::Num(v),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Paper-derived margins layered on a measured [`Envelope`] to produce
/// one matrix cell's calibrated [`SloTable`]. Detection and recovery
/// budgets are absolute (they come from the monitor's timers, not from
/// throughput); the byte floor and DHCP ceiling scale with the
/// envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct SloMargins {
    /// Per-class detection budgets, seconds. Classes absent here are
    /// not judged for detection in this cell.
    pub detect_s: Vec<(&'static str, f64)>,
    /// Recovery ceiling, seconds.
    pub recover_s: f64,
    /// The faulted run must still deliver at least this fraction of
    /// the envelope's bytes (floored at one byte, so a cell whose
    /// envelope is empty only demands *something* got through).
    pub bytes_frac: f64,
    /// DHCP p90 ceiling = envelope p90 × this headroom ...
    pub dhcp_headroom: f64,
    /// ... but never tighter than this floor, seconds — which is also
    /// the ceiling when the envelope had no acquisitions to calibrate
    /// against.
    pub dhcp_floor_s: f64,
}

impl SloMargins {
    /// Margins for Spider's §3.2.2 monitor (100 ms pings, 30 losses):
    ///
    /// * blackout / zombie / ARP-poison ≤ 3.15 s — 30 losses at
    ///   10 pings/s is 3.0 s, plus up to one full 100 ms ping tick of
    ///   onset phase. An ARP-poisoned gateway swallows the fallback
    ///   pings too, so the end-to-end clock runs undisturbed,
    /// * captive portal ≤ 16 s — the gateway fallback arms at ~1.0 s
    ///   and keeps the monitor *happy*; the zero-progress portal
    ///   classifier needs its full 10 s window on top, and the detect
    ///   clock starts at the first *hijacked* packet, which can land
    ///   seconds before the monitored session's pings even start
    ///   (town cells measure up to ~14.6 s),
    /// * asymmetric loss ≤ 45 s — directional loss only kills liveness
    ///   while it is deep, so the budget is the generator's episode-
    ///   window ceiling rather than a monitor constant.
    pub fn spider_paper() -> SloMargins {
        SloMargins {
            // 3.0 s monitor budget + one full 100 ms ping tick of
            // phase: the detect clock starts at the first swallowed
            // packet, which lands anywhere within the ping cadence.
            detect_s: vec![
                ("blackout", 3.15),
                ("zombie", 3.15),
                ("arp-poison", 3.15),
                ("captive-portal", 16.0),
                ("asymmetric-loss", 45.0),
            ],
            recover_s: 45.0,
            bytes_frac: 0.05,
            dhcp_headroom: 3.0,
            dhcp_floor_s: 10.0,
        }
    }

    /// Margins for the stock supplicant's 1 s × 12-failure monitor:
    /// every data-plane class collapses into one "pings stopped"
    /// signal at ~12 s (it never falls back to the gateway, so a
    /// captive portal is detected *sooner* than under Spider — by
    /// accident of having no fallback to trap). Recovery is slower
    /// (full rescans from channel 1) and the byte floor looser.
    pub fn stock_monitor() -> SloMargins {
        SloMargins {
            detect_s: vec![
                ("blackout", 13.0),
                ("zombie", 13.0),
                ("arp-poison", 13.0),
                ("captive-portal", 13.0),
                ("asymmetric-loss", 60.0),
            ],
            recover_s: 90.0,
            bytes_frac: 0.01,
            dhcp_headroom: 3.0,
            dhcp_floor_s: 15.0,
        }
    }
}

/// Build one matrix cell's SLO table from its measured fault-free
/// envelope plus paper margins (DESIGN.md §12).
pub fn calibrated_slo(envelope: &Envelope, margins: &SloMargins) -> SloTable {
    let mut rules: Vec<SloRule> = margins
        .detect_s
        .iter()
        .map(|&(class, budget)| SloRule {
            metric: SloMetric::MaxDetectS(class),
            budget,
        })
        .collect();
    rules.push(SloRule {
        metric: SloMetric::MaxRecoverS,
        budget: margins.recover_s,
    });
    rules.push(SloRule {
        metric: SloMetric::MaxDhcpP90S,
        budget: match envelope.dhcp_p90_s {
            Some(p90) => (p90 * margins.dhcp_headroom).max(margins.dhcp_floor_s),
            None => margins.dhcp_floor_s,
        },
    });
    rules.push(SloRule {
        metric: SloMetric::MinBytes,
        budget: (envelope.bytes as f64 * margins.bytes_frac).max(1.0),
    });
    SloTable { rules }
}

/// One judged cell of the campaign matrix: an operation-mode / driver
/// pairing with its calibration envelope, the SLO table derived from
/// it, and the full campaign outcome under that table.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Operation-mode label (rows of the matrix).
    pub mode: String,
    /// Driver label (columns of the matrix).
    pub driver: String,
    /// The measured fault-free envelope.
    pub envelope: Envelope,
    /// The calibrated table every trial in this cell was judged by.
    pub slo: SloTable,
    /// The campaign outcome.
    pub report: CampaignReport,
}

impl MatrixCell {
    /// Report form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("mode", Json::str(self.mode.clone())),
            ("driver", Json::str(self.driver.clone())),
            ("envelope", self.envelope.to_json()),
            ("slo", self.slo.to_json()),
            ("report", self.report.to_json()),
        ])
    }
}

/// The aggregated matrix: every cell's calibration and campaign
/// outcome in one artifact. Byte-deterministic for a deterministic
/// runner at any worker count — the timing-only fields (`hung`, fork
/// statistics) stay out of it.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Campaign seed shared by every cell (each cell judges the *same*
    /// generated schedules, so columns are comparable).
    pub seed: u64,
    /// Cells in caller-fixed (mode-major) order.
    pub cells: Vec<MatrixCell>,
}

impl MatrixReport {
    /// Cells whose campaign had at least one violating or failed trial.
    pub fn violating_cells(&self) -> usize {
        self.cells.iter().filter(|c| !c.report.is_clean()).count()
    }

    /// Whether every cell came back clean.
    pub fn is_clean(&self) -> bool {
        self.violating_cells() == 0
    }

    /// The byte-diffable artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("artifact", Json::str("spider-chaos-matrix")),
            ("seed", Json::UInt(self.seed)),
            ("cells", Json::UInt(self.cells.len() as u64)),
            ("violating_cells", Json::UInt(self.violating_cells() as u64)),
            (
                "matrix",
                Json::arr(self.cells.iter().map(MatrixCell::to_json)),
            ),
        ])
    }
}

/// Run one matrix cell: measure the fault-free envelope, calibrate the
/// cell's SLO table from it, then run the campaign under that table —
/// forked (checkpoint prefix-sharing) or cold. The caller supplies the
/// labels and the world factory; the same `cfg.seed` across cells
/// means every cell judges the same generated schedules.
pub fn run_matrix_cell<C, F>(
    mode: &str,
    driver: &str,
    cfg: &CampaignConfig,
    margins: &SloMargins,
    forked: bool,
    make: F,
) -> (MatrixCell, ForkStats)
where
    C: ClientSystem + Clone + Send + Sync,
    F: Fn(&FaultPlan) -> World<C> + Sync,
{
    // Calibration run: this cell, nothing attacking it.
    let (baseline, _) = make(&FaultPlan::none()).finish();
    let envelope = Envelope::measure(&baseline);
    let mut cell_cfg = cfg.clone();
    cell_cfg.slo = calibrated_slo(&envelope, margins);
    let (report, stats) = if forked {
        run_campaign_forked(&cell_cfg, &make)
    } else {
        (run_campaign(&cell_cfg, &make), ForkStats::default())
    };
    (
        MatrixCell {
            mode: mode.to_string(),
            driver: driver.to_string(),
            envelope,
            slo: cell_cfg.slo,
            report,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultIndex;
    use spider_simcore::check::check;

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    fn dur(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn chaos_plans_are_deterministic_and_in_bounds() {
        let profile = ChaosProfile::standard();
        let a = chaos_plan(42, 10, dur(300), &profile);
        let b = chaos_plan(42, 10, dur(300), &profile);
        assert_eq!(a, b);
        assert!(a.episodes.len() >= CHAOS_EPISODES.0);
        for e in &a.episodes {
            assert!(e.start < e.end, "{e:?}");
            assert!(e.end <= t(300.0), "{e:?}");
            if let Some(ap) = e.ap {
                assert!(ap < 10);
            }
        }
        assert_ne!(a, chaos_plan(43, 10, dur(300), &profile));
    }

    #[test]
    fn back_loaded_plans_leave_a_fault_free_prefix() {
        // start >= frac * (horizon - dur), and dur is capped by the
        // window bound, so every episode of every seed starts past
        // frac * (horizon - window_hi).
        let profile = ChaosProfile::back_loaded(0.5);
        let floor = t(0.5 * (300.0 - CHAOS_WINDOW_SECS.1));
        check("back_loaded_plans_leave_a_fault_free_prefix", 64, |g| {
            let seed = g.u64(0..u64::MAX);
            for e in &chaos_plan(seed, 10, dur(300), &profile).episodes {
                assert!(e.start >= floor, "plan seed {seed}: {e:?} starts too early");
            }
        });
        // The neutral window is a no-op: same draws as standard().
        assert_eq!(
            chaos_plan(42, 10, dur(300), &ChaosProfile::back_loaded(0.0)),
            chaos_plan(42, 10, dur(300), &ChaosProfile::standard())
        );
    }

    #[test]
    fn chaos_plans_produce_compound_overlaps() {
        // Across a handful of seeds, the generator must emit at least
        // one pair of distinct-class episodes overlapping on the same
        // target, and at least one *windowed* ICMP blackhole — the two
        // things FaultPlan::stormy never produces.
        let profile = ChaosProfile::standard();
        let mut compound = false;
        let mut windowed_icmp = false;
        for seed in 0..20 {
            let plan = chaos_plan(seed, 8, dur(600), &profile);
            for (i, a) in plan.episodes.iter().enumerate() {
                if a.kind == FaultKind::IcmpBlackhole && (a.start > t(0.0) || a.end < t(600.0)) {
                    windowed_icmp = true;
                }
                for b in &plan.episodes[i + 1..] {
                    if a.ap == b.ap
                        && a.kind.label() != b.kind.label()
                        && a.start < b.end
                        && b.start < a.end
                    {
                        compound = true;
                    }
                }
            }
        }
        assert!(compound, "no compound overlap in 20 seeds");
        assert!(windowed_icmp, "no windowed ICMP blackhole in 20 seeds");
    }

    fn run_with(detect: &[(FaultKind, f64)], recover: &[f64], bytes: u64) -> RunResult {
        use spider_simcore::{Cdf, IntervalTracker};
        let tracker = IntervalTracker::new(SimTime::ZERO, false);
        let mut faults = crate::faults::FaultStats::default();
        for &(kind, t) in detect {
            faults.record_detect(t, kind);
        }
        faults.recover_times_s = recover.to_vec();
        RunResult {
            label: "slo-test".into(),
            duration: dur(100),
            bytes,
            avg_throughput_bps: bytes as f64 / 100.0,
            connectivity: 0.5,
            instantaneous_bps: Cdf::from_samples(Vec::new()),
            intervals: tracker.finish(SimTime::from_secs(100)),
            join_log: spider_mac80211::JoinLog::new(),
            switches: 0,
            aps_encountered: 1,
            tcp_timeouts: 0,
            tcp_retransmits: 0,
            faults,
            events: 1,
        }
    }

    #[test]
    fn slo_table_judges_per_class_budgets() {
        let table = SloTable::paper_default();
        // Clean run: inside every budget.
        let ok = run_with(
            &[(FaultKind::Blackout, 2.0), (FaultKind::Zombie, 3.0)],
            &[10.0],
            1000,
        );
        assert!(table.evaluate(&ok).is_empty());
        // Zombie detection blows its class budget; blackout stays clean.
        let slow_zombie = run_with(
            &[(FaultKind::Blackout, 2.0), (FaultKind::Zombie, 4.0)],
            &[],
            1000,
        );
        let v = table.evaluate(&slow_zombie);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule.metric, SloMetric::MaxDetectS("zombie"));
        assert_eq!(v[0].measured, 4.0);
        // Starved run: floor metric fires.
        let starved = run_with(&[], &[], 0);
        let v = table.evaluate(&starved);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule.metric, SloMetric::MinBytes);
    }

    #[test]
    fn slo_rules_with_no_samples_do_not_fire() {
        let table = SloTable {
            rules: vec![
                SloRule {
                    metric: SloMetric::MaxDetectS("blackout"),
                    budget: 0.0,
                },
                SloRule {
                    metric: SloMetric::MaxRecoverS,
                    budget: 0.0,
                },
                SloRule {
                    metric: SloMetric::MaxDhcpP90S,
                    budget: 0.0,
                },
            ],
        };
        let quiet = run_with(&[], &[], 100);
        assert!(table.evaluate(&quiet).is_empty());
    }

    /// A synthetic failure oracle for the shrinker: the plan "fails"
    /// iff it still contains a blackout episode covering t=50 on AP 0.
    fn synthetic_fails(plan: &FaultPlan) -> bool {
        FaultIndex::build(plan, 5).blackout(t(50.0), 0)
    }

    fn noisy_plan() -> FaultPlan {
        let mut episodes = vec![FaultEpisode {
            ap: Some(0),
            kind: FaultKind::Blackout,
            start: t(10.0),
            end: t(90.0),
        }];
        // Noise: other APs, other classes, non-covering windows.
        for i in 0..12 {
            episodes.push(FaultEpisode {
                ap: Some(1 + (i % 4)),
                kind: if i % 2 == 0 {
                    FaultKind::Zombie
                } else {
                    FaultKind::LossBurst { extra: 0.3 }
                },
                start: t(i as f64 * 7.0),
                end: t(i as f64 * 7.0 + 5.0),
            });
        }
        FaultPlan { episodes }
    }

    #[test]
    fn shrinker_drops_noise_and_narrows_windows() {
        let plan = noisy_plan();
        assert!(synthetic_fails(&plan));
        let out = shrink_schedule(&plan, 500, synthetic_fails);
        // All 12 noise episodes gone, the culprit left.
        assert_eq!(out.plan.episodes.len(), 1, "{:?}", out.plan);
        let e = out.plan.episodes[0];
        assert_eq!(e.kind, FaultKind::Blackout);
        assert_eq!(e.ap, Some(0));
        // Window narrowed around the t=50 oracle point: strictly inside
        // the original 80 s, still covering 50.
        assert!(synthetic_fails(&out.plan));
        let width = e.end.saturating_since(e.start);
        assert!(
            width < SimDuration::from_secs(80),
            "window not narrowed: {width}"
        );
        assert!(e.start <= t(50.0) && t(50.0) < e.end);
        assert!(out.evals > 0);
    }

    #[test]
    fn shrinker_respects_budget() {
        let plan = noisy_plan();
        let out = shrink_schedule(&plan, 3, synthetic_fails);
        assert!(out.evals <= 3);
        // Whatever it returns must still fail.
        assert!(synthetic_fails(&out.plan));
    }

    #[test]
    fn shrinker_is_deterministic() {
        let plan = noisy_plan();
        let a = shrink_schedule(&plan, 500, synthetic_fails);
        let b = shrink_schedule(&plan, 500, synthetic_fails);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.evals, b.evals);
    }

    #[test]
    fn repro_artifact_round_trips() {
        let repro = MinimizedRepro {
            trial: 3,
            plan_seed: 0xdead_beef,
            duration: dur(60),
            original_episodes: 9,
            plan: noisy_plan(),
            violations: vec![SloViolation {
                rule: SloRule {
                    metric: SloMetric::MaxDetectS("blackout"),
                    budget: 3.05,
                },
                measured: 7.5,
            }],
            evals: 41,
        };
        let text = repro.to_json().pretty();
        let back = MinimizedRepro::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.trial, 3);
        assert_eq!(back.plan_seed, 0xdead_beef);
        assert_eq!(back.duration, dur(60));
        assert_eq!(back.original_episodes, 9);
        assert_eq!(back.plan, repro.plan, "plans must replay identically");
        assert_eq!(back.to_json().pretty(), text, "byte-stable round trip");
        // An artifact without its drive length cannot be replayed.
        let Json::Obj(mut pairs) = repro.to_json() else {
            unreachable!("artifacts are JSON objects")
        };
        pairs.retain(|(k, _)| k != "duration_us");
        assert!(MinimizedRepro::from_json(&Json::Obj(pairs)).is_none());
        // Wrong magic is rejected.
        assert!(
            MinimizedRepro::from_json(&Json::obj([("artifact", Json::str("something-else"))]))
                .is_none()
        );
    }
}
