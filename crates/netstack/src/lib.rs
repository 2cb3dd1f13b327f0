//! Network-layer substrate: DHCP, lease caching and ping liveness.
//!
//! The paper's core measurement (§2.2.1) is that the DHCP join — not the
//! link-layer handshake — dominates connection setup for mobile clients,
//! and that its default timers (3 s of attempts, then 60 s idle) are
//! hopeless at vehicular encounter durations. This crate implements:
//!
//! * [`dhcp_client`] — the DISCOVER/OFFER/REQUEST/ACK client state
//!   machine with the tunable per-message timeout swept by Table 3 and
//!   Figs. 6/14/15, including cached-lease fast paths (INIT-REBOOT),
//! * [`dhcp_server`] — the AP-side server with a configurable response
//!   delay distribution (the analytical model's β ∈ [βmin, βmax]),
//! * [`lease`] — per-BSSID lease cache (§3.1: "Spider uses dhcp caches
//!   ... to reduce the time to join"),
//! * [`arp`] — gateway-resolution state on the lease path, so
//!   ARP-poison chaos episodes (and the re-resolution that recovers
//!   from them) are first-class simulated events,
//! * [`ping`] — Spider's end-to-end liveness monitor: 10 pings/second,
//!   30 consecutive losses declare the connection dead (§3.2.2).

#![forbid(unsafe_code)]
// Library code is sans-IO: results are returned, and binaries print them.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod arp;
pub mod dhcp_client;
pub mod dhcp_server;
pub mod lease;
pub mod ping;

pub use arp::GatewayArp;
pub use dhcp_client::{DhcpClient, DhcpClientConfig, DhcpClientEvent, DhcpClientState};
pub use dhcp_server::{DhcpServer, DhcpServerConfig};
pub use lease::{Lease, LeaseCache};
pub use ping::{PingConfig, PingEngine, PingEvent};
