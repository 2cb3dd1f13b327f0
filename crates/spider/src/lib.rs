//! **Spider** — concurrent Wi-Fi connections for highly mobile clients.
//!
//! This crate is the paper's primary contribution, structured exactly
//! along its three design choices (§3.1):
//!
//! 1. **Channel-based switching** ([`schedule`]) — the radio is scheduled
//!    among *channels*, not APs. All interfaces on the scheduled channel
//!    are live simultaneously, so joining one AP never starves
//!    communication with another on the same channel, and same-channel
//!    aggregation pays zero switching overhead.
//! 2. **AP selection by join success** ([`utility`]) — optimal multi-AP
//!    subset selection is NP-hard (paper Appendix A; see
//!    `spider-model::selection` for the proof's construction and an exact
//!    solver), so Spider ranks APs by a recency-weighted history of how
//!    far past join attempts progressed (association < DHCP < verified
//!    connectivity), bootstrapping unseen APs optimistically and breaking
//!    ties by signal strength. The same per-AP record decides when a bad
//!    AP may be retried: a short cooldown after each failed attempt, and
//!    an exponential backoff over the AP's failures since its last
//!    verified join.
//! 3. **One interface per AP** ([`iface`]) — each concurrent connection
//!    is a self-contained stack: association state machine, DHCP client
//!    with per-BSSID lease cache, ping-based liveness (10/s, 30 misses =
//!    dead) and a TCP download endpoint.
//!
//! [`driver::SpiderDriver`] glues these into the `ClientSystem` driven by
//! the simulation world, and [`config::SpiderConfig`] exposes the four
//! evaluation configurations of §4.1 plus every timer the paper sweeps.
//! [`adaptive`] implements the §4.8 "future work" extension: switching
//! between single-channel and multi-channel operation based on observed
//! conditions.

#![forbid(unsafe_code)]
// Library code is sans-IO: results are returned, and binaries print them.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod adaptive;
pub mod config;
pub mod driver;
pub mod iface;
pub mod schedule;
pub mod utility;

pub use config::{OperationMode, SpiderConfig};
pub use driver::SpiderDriver;
pub use schedule::ChannelSchedule;
pub use utility::{JoinOutcome, UtilityConfig, UtilityTable};
