//! Benchmark of the Spider simulator, driven from outside: every number
//! comes from timing or counting calls into the repository's public API.
//!
//! `run.py` is the entry point; it runs the `perfbench` binary built
//! from this package once per operation and measures each process.

pub mod probe;
pub mod trace;
pub mod workload;

pub use workload::{Workload, INPUTS};
