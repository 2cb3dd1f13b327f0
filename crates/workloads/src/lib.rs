//! World assembly and evaluation workloads.
//!
//! * [`world`] — the discrete-event world: one mobile client (any
//!   [`ClientSystem`](spider_mac80211::ClientSystem)), a deployment of
//!   APs each with its own MAC, DHCP server, shaped backhaul and wired
//!   sink server, a shared per-channel medium, propagation and loss.
//! * [`metrics`] — per-run results: average throughput, connectivity
//!   fraction, connection/disruption CDFs, instantaneous bandwidth,
//!   join logs — the exact quantities the paper's tables and figures
//!   report.
//! * [`capture`] — the in-memory frame capture: every delivered frame,
//!   sim-time-stamped and bounded, read back with
//!   [`World::captured`](world::World::captured).
//! * [`faults`] — fault injection: scripted or seeded per-AP outage
//!   episodes (blackout/reboot, zombie forwarding, DHCP silence and
//!   pool exhaustion, ICMP-filtered gateways, loss bursts) that the
//!   world consults on every interaction, plus the attribution
//!   counters reported in [`RunResult`].
//! * [`campaign`] — the chaos-campaign engine: randomized compound
//!   fault schedules, a declarative recovery-SLO table judging every
//!   run, and delta-debugging shrinking of failing schedules into
//!   minimal replayable reproducers.
//! * [`scenarios`] — builders for the paper's experimental setups: town
//!   and Boston drives, the indoor static testbed of §2.2.2, and the
//!   controlled two-AP lab of Fig. 10.
//! * [`meshusers`] — the §4.7 usability study substrate: a synthetic
//!   trace of user TCP flow durations and inter-connection gaps
//!   matching the downtown-mesh measurements.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod capture;
pub mod faults;
pub mod meshusers;
pub mod metrics;
pub mod scenarios;
pub mod world;

pub use campaign::{
    calibrated_slo, chaos_plan, run_campaign, run_campaign_forked, run_matrix_cell,
    shrink_schedule, CampaignConfig, CampaignReport, ChaosProfile, CheckpointTrie, Envelope,
    ForkStats, MatrixCell, MatrixReport, MinimizedRepro, ShrinkOutcome, SloMargins, SloMetric,
    SloRule, SloTable, SloViolation, TrialRecord,
};
pub use capture::{CaptureRecord, Direction};
pub use faults::{FaultEpisode, FaultIndex, FaultKind, FaultPlan, FaultProfile, FaultStats};
pub use metrics::RunResult;
pub use scenarios::{lab_scenario, town_scenario, ScenarioParams};
pub use world::{World, WorldConfig};
