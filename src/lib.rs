//! **spider-repro** — a reproduction of *Spider: Improving Mobile
//! Networking with Concurrent Wi-Fi Connections* (2011).
//!
//! This facade crate re-exports the workspace so downstream users (and
//! the examples/integration tests) have a single dependency:
//!
//! * [`core`] — the Spider system itself (channel scheduling, AP
//!   selection, link management over concurrent connections),
//! * [`model`] — the paper's analytical join model and throughput
//!   optimiser,
//! * [`baselines`] — stock, Cabernet-style and FatVAP-style drivers,
//! * [`workloads`] — the vehicular Wi-Fi world and scenario builders,
//! * the substrates: [`simcore`], [`wire`], [`radio`], [`mobility`],
//!   [`mac80211`], [`netstack`], [`tcpsim`].
//!
//! Start with `examples/quickstart.rs`.

#![forbid(unsafe_code)]
// Library code is sans-IO: results are returned, and binaries print them.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub use spider_baselines as baselines;
pub use spider_core as core;
pub use spider_mac80211 as mac80211;
pub use spider_mobility as mobility;
pub use spider_model as model;
pub use spider_netstack as netstack;
pub use spider_radio as radio;
pub use spider_simcore as simcore;
pub use spider_tcpsim as tcpsim;
pub use spider_wire as wire;
pub use spider_workloads as workloads;
