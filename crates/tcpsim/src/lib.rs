//! Reno TCP over the simulated network.
//!
//! The paper's throughput results hinge on how TCP reacts to a client
//! that vanishes from a channel for scheduled intervals: the AP buffers
//! segments (PSM), ACKs stall, the retransmission timer fires, and slow
//! start begins anew — which is why "the throughput is very sensitive to
//! the amount of time spent by the driver on each channel" (Fig. 8) and
//! why a 400 ms total schedule (under two typical RTOs) keeps throughput
//! proportional to the schedule share (Fig. 7).
//!
//! The implementation is a classic Reno:
//!
//! * slow start / congestion avoidance / fast retransmit + recovery,
//! * RFC 6298 RTT estimation (SRTT/RTTVAR, Karn's rule) with exponential
//!   RTO backoff,
//! * cumulative ACKs with duplicate-ACK counting on the receiver,
//! * a three-way handshake so connection setup costs a real RTT.
//!
//! Segments carry byte *counts*, not bytes (see `spider-wire`).

#![forbid(unsafe_code)]
// Library code is sans-IO: results are returned, and binaries print them.
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod receiver;
pub mod rtt;
pub mod sender;

pub use receiver::TcpReceiver;
pub use rtt::RttEstimator;
pub use sender::{TcpConfig, TcpSender, TcpSenderState};
