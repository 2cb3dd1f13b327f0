//! Shared plumbing for the experiment binaries.
//!
//! Every table and figure of the paper is written by a binary in
//! `src/bin/` that prints the same rows/series the paper reports and
//! drops a CSV under `target/experiments/`. Every view of the town
//! drives (Tables 2–4, Figs. 5–6 and 11–17, and the adaptive, utility
//! and PSM ablations) is written by one binary, `town`, from one
//! registry of [`TownDrive`]s run as one sweep in which each (drive,
//! seed) runs once. Run them with `--release`; a full experiment is a
//! 30-minute simulated drive and takes well under a second of wall
//! time per configuration.
//!
//! Performance tracking lives here too: [`harness`] is the hermetic
//! micro-bench runner behind `cargo bench`, and [`worldbench`] plus the
//! `bench_world` binary produce the repository's tracked
//! `BENCH_world.json` engine figures.

#![forbid(unsafe_code)]

pub mod harness;
pub mod output;
pub mod runs;
pub mod worldbench;

pub use harness::{cdf_quantiles, CdfFigure, CdfRow};
pub use output::{print_table, write_csv, write_json, OutDir};
pub use runs::{
    emit_runs_json, run_town_drives, town_params, StdConfigs, Town, TownClient, TownDrive,
};
