//! 802.11 physical-layer simulation.
//!
//! The paper's measurements were taken with Atheros 802.11abg cards on
//! real RF. Everything its model and experiments depend on reduces to
//! four PHY properties, all reproduced here:
//!
//! 1. **timing** — how long a frame occupies the air
//!    ([`airtime`](phy::PhyParams::airtime)) and how long a hardware
//!    channel switch takes ([`radio::Radio`]; the paper measured 5–6 ms,
//!    Table 1),
//! 2. **reach** — whether a frame between two positions is physically
//!    receivable ([`propagation::Propagation`], disk model + log-distance
//!    RSSI),
//! 3. **loss** — the probability a receivable frame is corrupted
//!    ([`loss::LossModel`]; the analytical model uses a flat h = 10 %),
//! 4. **sharing** — serialisation of the half-duplex medium among all
//!    transmitters on a channel ([`medium::ChannelMedium`]), which is why
//!    aggregate throughput on one channel is capped by the channel rate.

#![forbid(unsafe_code)]
// Library code is sans-IO: results are returned, and binaries print them.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod loss;
pub mod medium;
pub mod phy;
pub mod propagation;
pub mod radio;

pub use loss::LossModel;
pub use medium::ChannelMedium;
pub use phy::PhyParams;
pub use propagation::{fast_log10, Propagation};
pub use radio::{Radio, RadioState};
