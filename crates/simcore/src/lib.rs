//! Discrete-event simulation kernel for the Spider reproduction.
//!
//! This crate provides the substrate every other crate in the workspace
//! builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time,
//! * [`EventQueue`] — a deterministic priority queue of timestamped events
//!   with FIFO tie-breaking,
//! * [`SimRng`] — seeded, stream-splittable random number generation so a
//!   whole experiment is a pure function of one `u64` seed,
//! * statistics helpers ([`OnlineStats`], [`Cdf`], [`IntervalTracker`],
//!   [`RateMeter`]) used by the evaluation harness,
//! * [`check`] — seeded property checks over [`SimRng`] streams, the one
//!   mechanism every randomised test in the workspace runs on.
//!
//! The design follows the "sans-IO" idiom: nothing here performs real I/O
//! or reads wall-clock time, which keeps every simulation fully
//! deterministic and unit-testable.

#![forbid(unsafe_code)]
// Library code is sans-IO: results are returned, and binaries print them.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod check;
pub mod event;
pub mod hashing;
pub mod json;
pub mod rng;
pub mod stats;
pub mod sweep;
pub mod time;

pub use event::{EventQueue, ScheduledEvent};
pub use hashing::{FxBuildHasher, FxHashMap, FxHashSet};
pub use json::{Json, JsonError};
pub use rng::SimRng;
pub use stats::{Cdf, IntervalReport, IntervalTracker, OnlineStats, RateMeter};
pub use sweep::{
    sweep, sweep_with, try_sweep_with, worker_count, JobFailure, SweepOptions, SweepReport,
};
pub use time::{SimDuration, SimTime};
