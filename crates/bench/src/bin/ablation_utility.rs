//! Ablation: Spider's join-history AP selection vs alternatives.
//!
//! * paper weights (va=0.3, vb=0.6, vc=1.0, α=0.5),
//! * no history (α=0: every AP keeps its optimistic bootstrap; selection
//!   degenerates to signal strength),
//! * harsh memory (α=0.9: one failure nearly disqualifies an AP),
//! * FatVAP-style bandwidth-estimate selection (the full FatVAP driver).
//!
//! Every Spider row keeps the utility table's failure cooldown and
//! backoff, which do not depend on α, so the rows isolate the ranking
//! alone.

use spider_baselines::{FatVapConfig, FatVapDriver};
use spider_bench::{print_table, town_params, write_csv};
use spider_core::utility::UtilityConfig;
use spider_core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_simcore::{sweep, OnlineStats};
use spider_wire::Channel;
use spider_workloads::scenarios::{town_scenario, RouteKind, ScenarioParams};
use spider_workloads::World;

/// An environment built for selection history to matter: the usual loop,
/// but 30 % of the open APs are broken (their DHCP never answers —
/// captive portals, filtered DHCP) and the working ones are slow. History
/// can only reorder APs that are in range together, and the backoff
/// already keeps a broken AP from being retried within one encounter, so
/// on this town the α rows end up close (EXPERIMENTS.md).
fn harsh(seed: u64) -> ScenarioParams {
    let mut p = town_params(seed);
    p.route = RouteKind::Loop;
    p.dead_dhcp_fraction = 0.30;
    p.dhcp_beta = (0.5, 6.0);
    p
}

/// The policies measured, in row order: three recency settings for
/// Spider's utility, then the FatVAP driver.
enum Policy {
    Spider { alpha: f64 },
    FatVap,
}

fn run_policy(policy: &Policy, seed: u64) -> (f64, f64) {
    let world = town_scenario(&harsh(seed));
    let result = match policy {
        Policy::Spider { alpha } => {
            // Single-AP mode: with one connection at a time, a join
            // wasted on a broken AP is connectivity lost — this is where
            // selection policy shows. (With 7 concurrent interfaces the
            // driver simply tries everything and selection errors are
            // masked; see EXPERIMENTS.md.)
            let mut cfg =
                SpiderConfig::for_mode(OperationMode::SingleChannelSingleAp(Channel::CH1), 1);
            cfg.utility = UtilityConfig {
                recency: *alpha,
                ..UtilityConfig::default()
            };
            World::new(world, SpiderDriver::new(cfg)).run()
        }
        Policy::FatVap => World::new(world, FatVapDriver::new(FatVapConfig::default())).run(),
    };
    (result.throughput_kbs(), result.connectivity_pct())
}

fn main() {
    let policies: Vec<(&str, Policy)> = vec![
        ("paper (alpha=0.5)", Policy::Spider { alpha: 0.5 }),
        ("no history (alpha=0)", Policy::Spider { alpha: 0.0 }),
        ("harsh (alpha=0.9)", Policy::Spider { alpha: 0.9 }),
        ("FatVAP (AP-sliced, bw-estimate)", Policy::FatVap),
    ];
    let seeds: Vec<u64> = (1..=3).collect();

    let mut jobs = Vec::new();
    for (p, _) in policies.iter().enumerate() {
        for &seed in &seeds {
            jobs.push((p, seed));
        }
    }
    let results = sweep(&jobs, |&(p, seed)| run_policy(&policies[p].1, seed));

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (p, (label, _)) in policies.iter().enumerate() {
        let mut thr = OnlineStats::new();
        let mut conn = OnlineStats::new();
        for &(kbs, pct) in &results[p * seeds.len()..(p + 1) * seeds.len()] {
            thr.push(kbs);
            conn.push(pct);
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", thr.mean()),
            format!("{:.1}", conn.mean()),
        ]);
        table.push(vec![
            label.to_string(),
            format!("{:.1} KB/s", thr.mean()),
            format!("{:.1}%", conn.mean()),
        ]);
    }
    print_table(
        "Ablation: AP-selection policy (town drive)",
        &["policy", "throughput", "connectivity"],
        &table,
    );
    let path = write_csv(
        "ablation_utility.csv",
        &["policy", "throughput_kbs", "connectivity_pct"],
        rows,
    );
    println!("\nwrote {}", path.display());
}
