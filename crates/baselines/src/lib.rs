//! Baseline client drivers the paper compares Spider against.
//!
//! * [`stock`] — a stock MadWiFi-like driver: full-band scan, join the
//!   strongest AP with default timers (1 s link-layer retries, 3 s DHCP
//!   attempts with a 60 s penalty box), hold the association until it
//!   dies. `StockDriver::quickwifi()` is the Cabernet variant with the
//!   reduced timers of Eriksson et al.
//! * [`fatvap`] — a FatVAP-style virtualised driver: time-slices the
//!   radio **per AP** (not per channel), choosing APs by estimated
//!   end-to-end bandwidth, assuming joins are already complete — the
//!   design the paper shows breaks down under real mobility (§2, §3.1
//!   Design Choice 1).

#![forbid(unsafe_code)]
// Library code is sans-IO: results are returned, and binaries print them.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod fatvap;
pub mod stock;

pub use fatvap::{FatVapConfig, FatVapDriver};
pub use stock::{StockConfig, StockDriver};
