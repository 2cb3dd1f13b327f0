//! 802.11 MAC behaviour for the Spider reproduction.
//!
//! Three pieces live here:
//!
//! * [`client`] — the per-interface association state machine
//!   (authenticate → associate, with per-message retry timers whose value
//!   is the paper's tunable "link-layer timeout"),
//! * [`ap`] — the AP side: beaconing, probe/auth/assoc responses, and
//!   the power-save (PSM) buffering that makes concurrent connections
//!   possible at all (a virtualised client parks an AP by claiming to
//!   sleep; the AP buffers its downlink frames until it returns, §2),
//! * [`driver`] — the `ClientSystem` trait through which the simulation
//!   world drives any client implementation: Spider, the stock driver,
//!   FatVAP-style and Cabernet-style baselines all implement it.
//!
//! [`stats::JoinLog`] records association/DHCP/join timings in the form
//! the paper's Figures 5, 6, 14 and 15 report.

#![forbid(unsafe_code)]
// Library code is sans-IO: results are returned, and binaries print them.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod ap;
pub mod client;
pub mod driver;
pub mod stats;

pub use ap::{ApConfig, ApEvent, ApMac};
pub use client::{ApTarget, AssocState, ClientMacConfig, InterfaceMac, MacEvent};
pub use driver::{ClientObservation, ClientSystem, DriverAction, RxBuf, RxFrame};
pub use stats::JoinLog;
