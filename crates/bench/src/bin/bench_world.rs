//! `bench_world` — the engine's macro benchmark.
//!
//! Runs the four fixed-seed world workloads (sparse commute, dense
//! downtown, chaos storm, stock commute), prints events/sec and
//! wall-clock per scenario, then times the parallel sweep runner on a
//! batch of Table 2 drives (serial vs worker pool), the checkpoint/fork
//! engine and the campaign divergence trie, and writes
//! `BENCH_world.json` at the repository root.
//!
//! Flags:
//!
//! * `--fast`  — shorten simulated durations for CI smoke runs
//!   (identical deployments, so events/sec stays comparable).
//! * `--check` — compare fresh events/sec (each scenario's median of
//!   three runs) against the checked-in `BENCH_world.json` and exit
//!   non-zero if any scenario regressed by more than 2x. A check is a
//!   read-only gate: it writes no JSON unless `--out` is given.
//! * `--out PATH` — write the JSON to PATH instead of
//!   `BENCH_world.json`.
//!
//! Any other argument, or `--out` without its path, exits 2 with the
//! list of valid flags.

use spider_bench::worldbench::{
    check_regressions, document, median_run, run_checkpoint_bench, run_prefix_tree_bench,
    run_scenario, run_suite_bench, scenarios, CHECK_RUNS,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn default_out() -> PathBuf {
    // crates/bench -> repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_world.json")
}

/// The command line: `--fast`, `--check`, and where to write (`None`:
/// nowhere, for a check without `--out`).
#[derive(Debug, PartialEq)]
struct Args {
    fast: bool,
    check: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        fast: false,
        check: false,
        out: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => parsed.fast = true,
            "--check" => parsed.check = true,
            "--out" => match args.next().filter(|p| !p.starts_with("--")) {
                Some(p) => parsed.out = Some(PathBuf::from(p)),
                None => return Err("--out wants a path".into()),
            },
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    // A recording run writes the checked-in file; a check only reads it.
    if !parsed.check && parsed.out.is_none() {
        parsed.out = Some(default_out());
    }
    Ok(parsed)
}

#[allow(
    clippy::disallowed_methods,
    reason = "a binary: reads the checked-in baseline and writes the report"
)]
fn main() -> ExitCode {
    let Args { fast, check, out } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_world: {e}; valid: --fast --check --out PATH");
            return ExitCode::from(2);
        }
    };

    let mode = if fast { "fast" } else { "full" };
    let baseline = if check {
        std::fs::read_to_string(default_out()).ok()
    } else {
        None
    };
    if check && baseline.is_none() {
        eprintln!(
            "--check: no baseline at {}; gate skipped",
            default_out().display()
        );
    }

    println!("world benchmark ({mode} mode)");
    // The gate judges each scenario by the median of several fresh
    // runs, so one run slowed by host load cannot fail it alone.
    let runs = if check { CHECK_RUNS } else { 1 };
    let mut results = Vec::new();
    for spec in scenarios(fast) {
        let r = median_run((0..runs).map(|_| run_scenario(&spec)).collect());
        println!(
            "  {:<16} {:>5} sites  {:>4}s sim  {:>8.3}s wall  {:>9} events  {:>12.0} events/sec",
            r.name, r.sites, r.sim_secs, r.wall_secs, r.events, r.events_per_sec,
        );
        results.push(r);
    }

    // The engine scenarios above are deliberately single-threaded;
    // this second section times the sweep runner on a batch of real
    // Table 2 drives, serial vs the worker pool.
    let suite = run_suite_bench(fast);
    println!(
        "  suite sweep      {:>2} jobs  {:>2} workers  {:>8.3}s serial  {:>8.3}s parallel  {:.2}x  {} events ({})",
        suite.jobs,
        suite.workers,
        suite.serial_wall_secs,
        suite.parallel_wall_secs,
        suite.speedup(),
        suite.events_serial,
        if suite.identical { "bit-identical" } else { "DIVERGED" },
    );
    // The wall-clock speedup is machine dependent (1.00 on a 1-vCPU
    // runner); the deterministic gate is the event accounting and
    // byte-identity of the two legs.
    if !suite.identical || suite.events_serial != suite.events_parallel {
        eprintln!("suite bench: parallel leg diverged from the serial leg");
        return ExitCode::FAILURE;
    }

    // Third section: the checkpoint/fork engine — a fork-resumed
    // run vs its cold twin, and a shrink campaign evaluated cold
    // vs through the checkpoint trie (DESIGN.md §13).
    let cp = run_checkpoint_bench(fast);
    println!(
        "  checkpoint       resume {:>7.3}s vs cold {:>7.3}s ({})  shrink {:>7.3}s vs {:>7.3}s, {:.2}x fewer events ({})",
        cp.fork_wall_secs,
        cp.cold_wall_secs,
        if cp.identical { "bit-identical" } else { "DIVERGED" },
        cp.shrink_forked_wall_secs,
        cp.shrink_cold_wall_secs,
        cp.events_ratio(),
        if cp.minimized_identical { "same artifact" } else { "ARTIFACT DIVERGED" },
    );
    if !cp.identical || !cp.minimized_identical {
        eprintln!("checkpoint bench: forked results diverged from cold runs");
        return ExitCode::FAILURE;
    }
    // Event counts are deterministic, so the sharing ratio is a
    // machine-independent figure — gate it, not just report it.
    if cp.events_ratio() < 3.0 {
        eprintln!(
            "checkpoint bench: shrink phase simulated only {:.2}x fewer events (target >=3x)",
            cp.events_ratio()
        );
        return ExitCode::FAILURE;
    }

    // Fourth section: the checkpoint prefix-tree — a chaos campaign
    // whose trials share checkpoints through the divergence trie.
    let pt = run_prefix_tree_bench(fast);
    println!(
        "  prefix tree      campaign {:>2} trials: {:>7.3}s cold vs {:>7.3}s forked, {:.2}x fewer events, {} checkpoints ({})",
        pt.campaign_trials,
        pt.campaign_cold_wall_secs,
        pt.campaign_forked_wall_secs,
        pt.campaign_events_ratio(),
        pt.checkpoints,
        if pt.campaign_identical { "report identical" } else { "REPORT DIVERGED" },
    );
    if !pt.campaign_identical {
        eprintln!("prefix-tree bench: forked campaign report diverged from the cold report");
        return ExitCode::FAILURE;
    }
    // Deterministic event accounting: the trie must actually share
    // work across trials, forking each where its faults first become
    // observable (3.47x in both modes).
    if pt.campaign_events_ratio() < 3.4 {
        eprintln!(
            "prefix-tree bench: campaign trie simulated only {:.2}x fewer events (target >=3.4x)",
            pt.campaign_events_ratio()
        );
        return ExitCode::FAILURE;
    }

    if let Some(out) = out {
        let json = document(mode, &results, &suite, &cp, &pt).pretty();
        if let Err(e) = std::fs::write(&out, json) {
            eprintln!("failed to write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", out.display());
    }

    if let Some(baseline) = baseline {
        let failures = check_regressions(&baseline, &results);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("REGRESSION {f}");
            }
            return ExitCode::FAILURE;
        }
        println!("check passed: no scenario regressed more than 2x");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{default_out, parse_args, Args};
    use std::path::PathBuf;

    fn parse(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|a| a.to_string()))
    }

    #[test]
    fn known_flags_parse() {
        assert_eq!(
            parse(&[]),
            Ok(Args {
                fast: false,
                check: false,
                out: Some(default_out())
            })
        );
        assert_eq!(
            parse(&["--check", "--out", "b.json", "--fast"]),
            Ok(Args {
                fast: true,
                check: true,
                out: Some(PathBuf::from("b.json"))
            })
        );
    }

    #[test]
    fn a_check_without_out_writes_nothing() {
        // The gate reads the checked-in baseline; it must not replace
        // it with its own (fast-mode) results.
        assert_eq!(
            parse(&["--fast", "--check"]),
            Ok(Args {
                fast: true,
                check: true,
                out: None
            })
        );
    }

    #[test]
    fn usage_errors_are_reported() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["fast"]).is_err());
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--out", "--fast"]).is_err());
    }
}
