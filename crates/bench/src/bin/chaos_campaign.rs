//! Chaos campaign: randomized compound-fault schedules against Spider
//! on the town drive, judged by the recovery-SLO table.
//!
//! Each trial generates a seeded chaos schedule (overlapping and
//! compound fault episodes — the combinations the scripted chaos tests
//! never cover), runs a full world under it, and checks the §3.2.2
//! detection budget, recovery budget, DHCP timing budget, and payload
//! floor. A trial that breaks an SLO is delta-debugged down to a
//! minimal reproducer and written to `target/experiments/` as a
//! replayable JSON artifact.
//!
//! Usage:
//!
//! ```text
//! chaos_campaign [--trials N] [--seed S] [--duration-secs D] [--tight]
//!                [--tight-class CLASS] [--adversarial] [--no-fork]
//!                [--forkstats PATH] [--replay PATH] [--matrix]
//! ```
//!
//! Any other argument, a value flag without its value, a number flag
//! with a non-number, or an unknown `--tight-class` exits 2 with the
//! list of valid flags. The sweep runs on `SPIDER_JOBS` workers
//! (default: every core).
//!
//! * default mode exits non-zero when any trial violates an SLO or
//!   panics the simulator (CI runs this); trials and shrink candidates
//!   run through the checkpoint prefix-tree (DESIGN.md §13) and the
//!   work saved is reported (events simulated versus cold,
//!   checkpoints built, forks),
//! * `--adversarial` arms the generator's adversarial tail (ARP
//!   poisoning, captive portals, asymmetric loss) alongside the
//!   standard classes,
//! * `--no-fork` runs every world cold from `t = 0` — the report must
//!   come out byte-identical either way, and `golden/check.sh` checks
//!   both against the same recorded files,
//! * `--forkstats PATH` writes the fork-stats sidecar JSON to an
//!   explicit path instead of `target/experiments/`,
//! * `--tight` swaps in a deliberately unmeetable SLO table to
//!   exercise the shrinking pipeline end to end,
//! * `--tight-class CLASS` narrows the tight table to one fault class
//!   (e.g. `arp-poison`), so the minimized reproducer is guaranteed to
//!   pin that class — how the corpus artifacts for the adversarial
//!   classes were harvested,
//! * `--replay PATH` re-runs a minimized artifact over the drive length
//!   it records, judged by the SLO rules it recorded, and exits zero
//!   only if its recorded violations re-measure exactly
//!   (`--duration-secs` is refused here),
//! * `--matrix` runs the full campaign matrix instead: all four
//!   operation modes × {spider, stock, fatvap}, each cell calibrated
//!   against its own fault-free envelope and hammered by the *same*
//!   adversarial schedules (DESIGN.md §12). Exits non-zero only on
//!   simulator panics — per-cell SLO violations are triage output, a
//!   comparative result rather than a gate.

use spider_baselines::{FatVapConfig, FatVapDriver, StockConfig, StockDriver};
use spider_bench::{write_json, OutDir};
use spider_core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_mac80211::ClientSystem;
use spider_simcore::{Json, SimDuration};
use spider_wire::Channel;
use spider_workloads::campaign::{
    run_campaign, run_campaign_forked, run_matrix_cell, CampaignConfig, ChaosProfile,
    CheckpointTrie, MatrixCell, MatrixReport, MinimizedRepro, SloMargins, SloMetric, SloRule,
    SloTable,
};
use spider_workloads::scenarios::{town_scenario, ScenarioParams};
use spider_workloads::{FaultPlan, RunResult, World};
use std::process::ExitCode;

/// World seed for the campaign's drive (fixed: the campaign explores
/// fault-schedule space, not world space).
const WORLD_SEED: u64 = 7;

/// Flags that take a value.
const VALUE_FLAGS: [&str; 6] = [
    "--trials",
    "--seed",
    "--duration-secs",
    "--tight-class",
    "--forkstats",
    "--replay",
];
/// Flags that stand alone.
const SWITCHES: [&str; 4] = ["--tight", "--adversarial", "--no-fork", "--matrix"];

/// Check every argument against the known flags, so a misspelt flag
/// or a missing value cannot silently fall back to a default.
fn check_args(args: &[String]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            if rest.next().is_none_or(|v| v.starts_with("--")) {
                return Err(format!("{arg} wants a value"));
            }
        } else if !SWITCHES.contains(&arg.as_str()) {
            return Err(format!("unknown flag {arg:?}"));
        }
    }
    Ok(())
}

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match parse_flag(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} wants a number, got {v:?}")),
        None => Ok(default),
    }
}

/// Build the per-trial world factory: a pure function of the fault
/// plan, as both [`run_campaign_forked`] and [`CheckpointTrie`] want.
fn make_factory(
    duration: SimDuration,
) -> (usize, impl Fn(&FaultPlan) -> World<SpiderDriver> + Sync) {
    let params = ScenarioParams {
        duration,
        seed: WORLD_SEED,
        ..Default::default()
    };
    let num_aps = town_scenario(&params).deployment.len();
    let make = move |plan: &FaultPlan| {
        let mut cfg = town_scenario(&params);
        cfg.faults = plan.clone();
        World::new(
            cfg,
            SpiderDriver::new(SpiderConfig::for_mode(
                OperationMode::SingleChannelMultiAp(Channel::CH6),
                1,
            )),
        )
    };
    (num_aps, make)
}

/// An intentionally unmeetable table: any detection at all violates.
/// Exercises the shrinking pipeline deterministically.
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

/// The tight table narrowed to one class: only detections of `class`
/// violate, so ddmin cannot trade the episode under study away for a
/// faster-detected blackout.
fn tight_class_table(class: &str) -> Result<SloTable, String> {
    let class = match class {
        "blackout" => "blackout",
        "zombie" => "zombie",
        "arp-poison" => "arp-poison",
        "captive-portal" => "captive-portal",
        "asymmetric-loss" => "asymmetric-loss",
        other => {
            return Err(format!(
                "--tight-class {other}: not a detectable fault class"
            ))
        }
    };
    Ok(SloTable {
        rules: vec![SloRule {
            metric: SloMetric::MaxDetectS(class),
            budget: 0.0,
        }],
    })
}

/// Read the minimized artifact at `path`. A file that cannot be read,
/// is not JSON, or is not a repro artifact is a usage error.
fn read_artifact(path: &str) -> Result<MinimizedRepro, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("--replay {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("--replay {path}: not JSON: {e}"))?;
    MinimizedRepro::from_json(&doc).ok_or_else(|| {
        format!("--replay {path}: not a spider-chaos-repro artifact (or lacks its duration_us)")
    })
}

fn replay(args: &[String], path: &str) -> Result<ExitCode, String> {
    if parse_flag(args, "--duration-secs").is_some() {
        return Err(
            "--replay runs the drive length the artifact records; drop --duration-secs".into(),
        );
    }
    let repro = read_artifact(path)?;
    let (_, make) = make_factory(repro.duration);
    // Both the replay and its no-fault baseline resume from the
    // fault-free prefix's checkpoint rather than running cold — same
    // results, one shared prefix, advanced in share-point order.
    let mut trie = CheckpointTrie::new(&make);
    let [result, baseline]: [RunResult; 2] = trie
        .run_all(&[repro.plan.clone(), FaultPlan::none()])
        .try_into()
        .expect("one result per plan");
    // Judge by the rules the artifact recorded: a reproducer found
    // under a tight table must not be re-judged by the default one.
    let table = SloTable {
        rules: repro.violations.iter().map(|v| v.rule).collect(),
    };
    let violations = table.evaluate(&result);
    println!(
        "replayed trial {} ({} episodes, {}s drive): {result}",
        repro.trial,
        repro.plan.episodes.len(),
        repro.duration.as_secs_f64()
    );
    for v in &violations {
        println!("  violation: {v}");
    }
    // Triage aid: the same drive with no faults at all. A "recovery"
    // time close to a natural disruption means the client was simply
    // out of coverage — a mobility bound, not a recovery defect.
    let natural_max = baseline
        .intervals
        .off_durations
        .iter()
        .map(|d| d.as_secs_f64())
        .fold(0.0f64, f64::max);
    println!(
        "  baseline (no faults): worst natural disruption {natural_max:.1}s, \
         {} bytes, {:.1}% connectivity",
        baseline.bytes,
        baseline.connectivity * 100.0
    );
    if !violations.is_empty() && violations == repro.violations {
        println!("reproduced: every recorded violation re-measured exactly");
        Ok(ExitCode::SUCCESS)
    } else {
        for v in &repro.violations {
            println!("  recorded: {v}");
        }
        println!("the recorded violations did NOT re-measure exactly");
        Ok(ExitCode::from(1))
    }
}

/// The four §4.1 configurations, as matrix rows.
fn matrix_modes() -> Vec<OperationMode> {
    let period = SimDuration::from_millis(600);
    vec![
        OperationMode::SingleChannelSingleAp(Channel::CH6),
        OperationMode::SingleChannelMultiAp(Channel::CH6),
        OperationMode::MultiChannelMultiAp { period },
        OperationMode::MultiChannelSingleAp { period },
    ]
}

/// Project an operation mode onto the stock driver's knobs: the only
/// mode dimension it has is which channels it sweeps (it is single-AP
/// by construction, so both single-AP and multi-AP rows get the same
/// client — the rows stay comparable column-wise).
fn stock_for_mode(mode: &OperationMode) -> StockConfig {
    let mut c = StockConfig::quickwifi(1);
    if let OperationMode::SingleChannelSingleAp(ch) | OperationMode::SingleChannelMultiAp(ch) = mode
    {
        c.scan_channels = vec![*ch];
    }
    c
}

/// Project an operation mode onto FatVAP's knobs: channel restriction
/// for the single-channel rows, connection fan-out for the multi-AP
/// rows.
fn fatvap_for_mode(mode: &OperationMode) -> FatVapConfig {
    let mut c = FatVapConfig::default();
    if let OperationMode::SingleChannelSingleAp(ch) | OperationMode::SingleChannelMultiAp(ch) = mode
    {
        c.scan_channels = vec![*ch];
    }
    if let OperationMode::SingleChannelSingleAp(_) | OperationMode::MultiChannelSingleAp { .. } =
        mode
    {
        c.num_conns = 1;
    }
    c
}

/// Per-cell triage line(s) for the matrix run.
fn triage_cell(cell: &MatrixCell) {
    let r = &cell.report;
    println!(
        "[{} / {}] envelope {} bytes, {:.1}% connectivity -> {} trials, {} violating, {} panicked",
        cell.mode,
        cell.driver,
        cell.envelope.bytes,
        cell.envelope.connectivity * 100.0,
        r.trials,
        r.violating_trials(),
        r.job_failures.len()
    );
    for o in &r.outcomes {
        for v in &o.violations {
            println!("    trial {:>3}: {v}", o.trial);
        }
    }
    for f in &r.job_failures {
        println!(
            "    trial {:>3}: PANIC {} [{}]",
            f.index, f.message, f.fingerprint
        );
    }
}

/// A matrix run: the drive and campaign settings every cell shares,
/// and the cells and their forkstats entries in run order.
struct Matrix {
    params: ScenarioParams,
    cfg: CampaignConfig,
    forked: bool,
    cells: Vec<MatrixCell>,
    stats: Vec<Json>,
}

impl Matrix {
    /// Run one cell, `client()` on the town drive under every schedule,
    /// and print its triage lines.
    fn cell<C: ClientSystem + Clone + Send + Sync>(
        &mut self,
        mode: &str,
        driver: &str,
        margins: &SloMargins,
        client: impl Fn() -> C + Sync,
    ) {
        let params = &self.params;
        let make = |plan: &FaultPlan| {
            let mut wc = town_scenario(params);
            wc.faults = plan.clone();
            World::new(wc, client())
        };
        let (cell, fs) = run_matrix_cell(mode, driver, &self.cfg, margins, self.forked, make);
        triage_cell(&cell);
        self.stats.push(Json::obj([
            ("mode", Json::str(mode)),
            ("driver", Json::str(driver)),
            ("forkstats", fs.to_json()),
        ]));
        self.cells.push(cell);
    }
}

/// The full campaign matrix: modes × drivers, every cell calibrated
/// then judged against the same generated schedules.
fn run_matrix(args: &[String]) -> Result<ExitCode, String> {
    let trials = parse_num(args, "--trials", 4usize)?;
    let seed = parse_num(args, "--seed", 1u64)?;
    let duration = SimDuration::from_secs(parse_num(args, "--duration-secs", 120u64)?);
    let no_fork = args.iter().any(|a| a == "--no-fork");

    let params = ScenarioParams {
        duration,
        seed: WORLD_SEED,
        ..Default::default()
    };
    let num_aps = town_scenario(&params).deployment.len();
    let cfg = CampaignConfig {
        trials,
        seed,
        num_aps,
        duration,
        // The adversarial tail is the matrix's reason to exist.
        profile: ChaosProfile::adversarial(),
        // Placeholder; every cell swaps in its calibrated table.
        slo: SloTable::paper_default(),
        shrink_budget: 40,
        max_shrinks: 1,
        workers: 0,
        watchdog_ms: Some(120_000),
    };

    let spider_margins = SloMargins::spider_paper();
    let stock_margins = SloMargins::stock_monitor();
    // FatVAP shares Spider's §3.2.2 monitor (same iface stack) but
    // recovers by re-estimation and rescans, without lease caches or a
    // blacklist ladder — looser recovery and byte floors.
    let fatvap_margins = SloMargins {
        recover_s: 60.0,
        bytes_frac: 0.01,
        ..SloMargins::spider_paper()
    };

    println!(
        "chaos matrix: {} modes x 3 drivers, {trials} trials/cell, seed {seed}, \
         {num_aps} APs, {}s drives{}",
        matrix_modes().len(),
        duration.as_secs_f64(),
        if no_fork { " (cold, no forking)" } else { "" }
    );

    let mut matrix = Matrix {
        params,
        cfg,
        forked: !no_fork,
        cells: Vec::new(),
        stats: Vec::new(),
    };
    for mode in matrix_modes() {
        let label = mode.label();
        let spider = SpiderConfig::for_mode(mode.clone(), 1);
        let stock = stock_for_mode(&mode);
        let fatvap = fatvap_for_mode(&mode);
        matrix.cell(&label, "spider", &spider_margins, || {
            SpiderDriver::new(spider.clone())
        });
        matrix.cell(&label, "stock", &stock_margins, || {
            StockDriver::new(stock.clone())
        });
        matrix.cell(&label, "fatvap", &fatvap_margins, || {
            FatVapDriver::new(fatvap.clone())
        });
    }
    let Matrix { cells, stats, .. } = matrix;
    let matrix = MatrixReport { seed, cells };
    let panicked: usize = matrix
        .cells
        .iter()
        .map(|c| c.report.job_failures.len())
        .sum();

    let _out = OutDir::open();
    let report_path = write_json("chaos_matrix_report.json", &matrix.to_json());
    println!("\nwrote {}", report_path.display());
    if !no_fork {
        // Sidecar, never part of the byte-diffed report (CI compares
        // the forked and cold matrix reports byte for byte).
        let stats_path = write_json("chaos_matrix_forkstats.json", &Json::Arr(stats));
        println!("wrote {}", stats_path.display());
    }

    println!(
        "\nmatrix: {} cells, {} with violations, {} simulator panics",
        matrix.cells.len(),
        matrix.violating_cells(),
        panicked
    );
    Ok(if panicked == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|e| {
        eprintln!(
            "chaos_campaign: {e}; valid: {} (each with a value), {}",
            VALUE_FLAGS.join(" "),
            SWITCHES.join(" ")
        );
        ExitCode::from(2)
    })
}

/// Run the mode `args` select. `Err` is a usage error, found before
/// anything is simulated.
fn run(args: &[String]) -> Result<ExitCode, String> {
    check_args(args)?;
    if let Some(path) = parse_flag(args, "--replay") {
        return replay(args, &path);
    }
    if args.iter().any(|a| a == "--matrix") {
        return run_matrix(args);
    }

    let trials = parse_num(args, "--trials", 8usize)?;
    let seed = parse_num(args, "--seed", 1u64)?;
    let duration = SimDuration::from_secs(parse_num(args, "--duration-secs", 300u64)?);
    let tight_class = parse_flag(args, "--tight-class");
    let tight = args.iter().any(|a| a == "--tight") || tight_class.is_some();
    let adversarial = args.iter().any(|a| a == "--adversarial");
    let no_fork = args.iter().any(|a| a == "--no-fork");
    let forkstats_path = parse_flag(args, "--forkstats");
    let slo = match &tight_class {
        Some(class) => tight_class_table(class)?,
        None if tight => tight_table(),
        None => SloTable::paper_default(),
    };

    let (num_aps, make) = make_factory(duration);
    let mut cfg = CampaignConfig {
        trials,
        seed,
        num_aps,
        duration,
        profile: if adversarial {
            ChaosProfile::adversarial()
        } else {
            ChaosProfile::standard()
        },
        slo,
        shrink_budget: 120,
        max_shrinks: 4,
        workers: 0,
        watchdog_ms: Some(120_000),
    };
    if tight {
        cfg.max_shrinks = 1;
    }

    println!(
        "chaos campaign: {trials} trials, seed {seed}, {num_aps} APs, {}s drives{}{}",
        duration.as_secs_f64(),
        if tight { " (tight SLO)" } else { "" },
        if no_fork { " (cold, no forking)" } else { "" }
    );
    let (report, fork_stats) = if no_fork {
        (run_campaign(&cfg, &make), None)
    } else {
        let (report, stats) = run_campaign_forked(&cfg, &make);
        (report, Some(stats))
    };

    for o in &report.outcomes {
        if o.violations.is_empty() {
            println!(
                "trial {:>3}: ok    ({} episodes, {} bytes, {:.1}% connectivity)",
                o.trial,
                o.episodes,
                o.bytes,
                o.connectivity * 100.0
            );
        } else {
            println!(
                "trial {:>3}: SLO VIOLATION ({} episodes)",
                o.trial, o.episodes
            );
            for v in &o.violations {
                println!("           {v}");
            }
        }
    }
    for f in &report.job_failures {
        println!(
            "trial {:>3}: PANIC {} [{}]",
            f.index, f.message, f.fingerprint
        );
    }
    for &h in &report.hung {
        println!("trial {h:>3}: flagged by the watchdog (still running past deadline)");
    }

    let out = OutDir::open();
    let report_path = write_json("chaos_campaign_report.json", &report.to_json());
    println!("\nwrote {}", report_path.display());
    if let Some(stats) = fork_stats {
        // Kept out of the report file on purpose: CI diffs the forked
        // and cold reports byte for byte, and the fork engine's own
        // accounting must not show up in that comparison.
        let stats_path = match &forkstats_path {
            Some(p) => {
                let doc = stats.to_json().pretty();
                std::fs::write(p, &doc).unwrap_or_else(|e| panic!("write {p}: {e}"));
                std::path::PathBuf::from(p)
            }
            None => write_json("chaos_campaign_forkstats.json", &stats.to_json()),
        };
        println!(
            "wrote {} (checkpoint prefix-tree: {:.2}x overall, {:.2}x in the shrink phase, \
             {} checkpoints, {} forks)",
            stats_path.display(),
            stats.speedup(),
            stats.shrink_speedup(),
            stats.checkpoints,
            stats.forks
        );
    }
    for m in &report.minimized {
        let name = format!("chaos_repro_trial{}.json", m.trial);
        let path = write_json(&name, &m.to_json());
        println!(
            "wrote {} ({} -> {} episodes, {} shrink evals)",
            path.display(),
            m.original_episodes,
            m.plan.episodes.len(),
            m.evals
        );
    }
    let _ = out;

    Ok(if report.is_clean() {
        println!("\ncampaign clean: {} trials, 0 violations", report.trials);
        ExitCode::SUCCESS
    } else {
        println!(
            "\ncampaign FAILED: {} violating trials, {} panicked trials (minimized artifacts above)",
            report.violating_trials(),
            report.job_failures.len()
        );
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::{check_args, parse_num, read_artifact, run, tight_class_table};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn known_flags_pass() {
        assert!(check_args(&args(&[])).is_ok());
        assert!(check_args(&args(&[
            "--tight",
            "--trials",
            "4",
            "--forkstats",
            "f.json"
        ]))
        .is_ok());
        assert!(check_args(&args(&["--matrix", "--no-fork", "--duration-secs", "60"])).is_ok());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(check_args(&args(&["--tirals", "4"])).is_err());
        assert!(check_args(&args(&["--workers", "2"])).is_err());
        assert!(check_args(&args(&["--shrink-budget", "40"])).is_err());
        assert!(check_args(&args(&["4"])).is_err());
    }

    #[test]
    fn value_flags_need_a_value() {
        assert!(check_args(&args(&["--trials"])).is_err());
        assert!(check_args(&args(&["--trials", "--tight"])).is_err());
        assert!(check_args(&args(&["--tight", "--replay"])).is_err());
    }

    #[test]
    fn bad_values_are_usage_errors() {
        assert_eq!(
            parse_num(&args(&["--trials", "3"]), "--trials", 8usize),
            Ok(3)
        );
        assert_eq!(parse_num(&args(&[]), "--trials", 8usize), Ok(8));
        assert!(parse_num(&args(&["--trials", "x"]), "--trials", 8usize).is_err());
        assert!(parse_num(&args(&["--seed", "-1"]), "--seed", 1u64).is_err());
        assert!(tight_class_table("arp-poison").is_ok());
        assert!(tight_class_table("foo").is_err());
        // Each is refused before anything is simulated.
        for bad in [
            &["--trials", "x"][..],
            &["--tight-class", "foo", "--trials", "1"],
            &["--matrix", "--duration-secs", "1.5"],
            &["--replay", "corpus/none.json", "--duration-secs", "60"],
        ] {
            assert!(run(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn unreadable_replay_artifacts_are_usage_errors() {
        let missing = read_artifact("/missing.json").unwrap_err();
        assert!(missing.contains("/missing.json"), "{missing}");
        let dir = std::env::temp_dir().join(format!("chaos_campaign_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let empty_obj = dir.join("empty.json");
        let not_json = dir.join("garbage.json");
        std::fs::write(&empty_obj, "{}").unwrap();
        std::fs::write(&not_json, "not json").unwrap();
        for path in [&empty_obj, &not_json] {
            let path = path.to_str().unwrap();
            assert!(read_artifact(path).is_err(), "{path}");
            // Refused before anything is simulated.
            assert!(run(&args(&["--replay", path])).is_err(), "{path}");
        }
        assert!(run(&args(&["--replay", "/missing.json"])).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
