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
//! * [`TokenBucket`] — a rate limiter in simulated time, used to model AP
//!   backhaul links.
//!
//! The design follows the "sans-IO" idiom: nothing here performs real I/O
//! or reads wall-clock time, which keeps every simulation fully
//! deterministic and unit-testable.

#![forbid(unsafe_code)]

pub mod bucket;
pub mod event;
pub mod hashing;
pub mod json;
pub mod rng;
pub mod stats;
pub mod sweep;
pub mod time;

pub use bucket::TokenBucket;
pub use event::{EventQueue, ScheduledEvent};
pub use hashing::{FxBuildHasher, FxHashMap, FxHashSet};
pub use json::{Json, JsonError};
pub use rng::SimRng;
pub use stats::{Cdf, IntervalReport, IntervalTracker, OnlineStats, RateMeter};
pub use sweep::{
    grow_tree_with, sweep, sweep_with, try_sweep, try_sweep_with, worker_count, JobFailure,
    SweepOptions, SweepReport,
};
pub use time::{SimDuration, SimTime};
