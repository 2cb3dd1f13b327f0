//! Shared plumbing for the experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! prints the same rows/series the paper reports and drops a CSV under
//! `target/experiments/`. Figures drawn from the same drives share one
//! binary (`table2`, `joins`), so no drive is simulated twice. Run them with `--release`; a full experiment
//! is a 30-minute simulated drive and takes well under a second of wall
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
pub use output::{print_table, write_csv, write_json, write_text, OutDir};
pub use runs::{emit_runs_json, run_driver, spider_run, town_params, StdConfigs};
