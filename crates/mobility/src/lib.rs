//! Vehicular mobility and access-point deployment.
//!
//! The paper's outdoor experiments drove five cars around a small town
//! and Boston/Cambridge, encountering open APs with a median connection
//! opportunity of ~8 s and a mean of ~22 s (§2.3). This crate provides
//! the synthetic equivalents:
//!
//! * [`geometry`] — 2-D positions and distances,
//! * [`path`] — mobility models (static, straight road, closed loop),
//! * [`deployment`] — roadside AP placement with the measured channel
//!   mix (28 % / 33 % / 34 % on channels 1/6/11, §4.1),
//! * [`encounter`] — when the client is within radio range of which AP,
//!   used by scenario calibration tests and the analytical model,
//! * [`grid`] — a uniform spatial index over deployments so dense
//!   worlds query *nearby* APs instead of scanning all of them.

#![forbid(unsafe_code)]
// Library code is sans-IO: results are returned, and binaries print them.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod deployment;
pub mod encounter;
pub mod geometry;
pub mod grid;
pub mod path;

pub use deployment::{ApSite, ChannelMix, Deployment};
pub use encounter::{encounters, Encounter};
pub use geometry::Position;
pub use grid::SpatialGrid;
pub use path::{CachedPath, MobilityModel};
