//! Protocol data units for the Spider reproduction.
//!
//! This crate defines every message that crosses the simulated air or the
//! simulated backhaul:
//!
//! * [`frame`] — 802.11 management/data frames (beacon, probe, auth,
//!   association, power-save signalling, data),
//! * [`dhcp`] — the four-message DHCP join handshake,
//! * [`icmp`] — echo request/reply used by Spider's link-liveness probing,
//! * [`tcp`] — TCP segments for the Reno model in `spider-tcpsim`,
//! * [`ip`] — a minimal IPv4 packet wrapper tying L4 payloads to
//!   addresses,
//! * [`addr`] / [`channel`] — MAC addresses, SSIDs and 2.4 GHz channels.
//!
//! Frames travel as typed values and are never serialised, but every
//! type has a faithful wire size so airtime and backhaul occupancy are
//! computed from realistic byte counts.

#![forbid(unsafe_code)]
// Library code is sans-IO: results are returned, and binaries print them.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod addr;
pub mod channel;
pub mod dhcp;
pub mod frame;
pub mod icmp;
pub mod ip;
pub mod tcp;

pub use addr::{Ipv4Addr, MacAddr, Ssid};
pub use channel::Channel;
pub use dhcp::{DhcpMessage, DhcpOp};
pub use frame::{AirFrame, Frame, FrameBody, FrameKind, SharedFrame};
pub use icmp::IcmpMessage;
pub use ip::{Ipv4Packet, L4};
pub use tcp::{TcpFlags, TcpSegment};
