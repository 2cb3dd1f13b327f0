//! The driver API between the simulation world and a client system.
//!
//! A *client system* is everything that runs on the mobile node: the
//! (virtualised or stock) Wi-Fi driver, the link-management logic, the
//! DHCP clients and the transport endpoints. The world owns the radio
//! and the medium; the client system reacts to received frames and timer
//! wakeups by emitting [`DriverAction`]s.
//!
//! The contract:
//!
//! * The world delivers a frame via [`ClientSystem::on_frame`] only when
//!   the radio is tuned to the frame's channel (and the frame survived
//!   propagation and loss).
//! * `SwitchChannel` starts a hardware switch; the radio is deaf until
//!   the world calls [`ClientSystem::on_switch_complete`].
//! * [`ClientSystem::poll`] is called whenever simulated time reaches
//!   [`ClientSystem::next_wakeup`].
//! * `Transmit` actions are honoured only while tuned; the world drops
//!   transmissions requested mid-switch (a real card's TX queue is held
//!   in reset).

use crate::stats::JoinLog;
use spider_simcore::SimTime;
use spider_wire::{Channel, Frame};

/// A frame as received by the client radio.
///
/// The frame is borrowed from the delivering air event: a broadcast
/// delivered to many stations hands each receiver a view of the same
/// `Arc`'d frame, and a unicast frame is read straight out of its boxed
/// event payload — neither path clones the payload or touches a
/// refcount at delivery time. Receivers only read the frame, which
/// shared access enforces.
#[derive(Debug, Clone)]
pub struct RxFrame<'a> {
    /// The frame.
    pub frame: &'a Frame,
    /// Channel it was received on.
    pub channel: Channel,
    /// Received signal strength, attached only to the frames that carry
    /// scanning value (beacons and probe responses). Data and control
    /// frames arrive with `None`: delivery already implies the sender
    /// was in range, no driver reads signal strength off them, and the
    /// log-distance RSSI computation is too expensive to run for every
    /// TCP segment in a dense cell.
    pub rssi_dbm: Option<f64>,
}

/// An owned frame + reception metadata that lends out [`RxFrame`] views.
///
/// Production delivery borrows frames straight out of air-event payloads;
/// tests and other callers that build frames on the spot park them here
/// and call [`RxBuf::rx`].
#[derive(Debug, Clone)]
pub struct RxBuf {
    /// The frame.
    pub frame: Frame,
    /// Channel it was received on.
    pub channel: Channel,
    /// Received signal strength (see [`RxFrame::rssi_dbm`]).
    pub rssi_dbm: Option<f64>,
}

impl RxBuf {
    /// Borrow this buffer as the [`RxFrame`] a client system receives.
    pub fn rx(&self) -> RxFrame<'_> {
        RxFrame {
            frame: &self.frame,
            channel: self.channel,
            rssi_dbm: self.rssi_dbm,
        }
    }
}

/// An action requested by the client system.
#[derive(Debug, Clone)]
pub enum DriverAction {
    /// Transmit a frame from virtual interface `iface`. The frame's
    /// `src` must be that interface's MAC address.
    Transmit {
        /// Index of the virtual interface transmitting.
        iface: usize,
        /// The frame to put on the air.
        frame: Frame,
    },
    /// Begin a hardware channel switch.
    SwitchChannel(Channel),
}

/// The client-state snapshot the world takes after every event it
/// delivers into the client system (see [`ClientSystem::observe`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientObservation {
    /// [`ClientSystem::delivered_bytes`] at this instant.
    pub delivered_bytes: u64,
    /// [`ClientSystem::is_connected`] at this instant.
    pub connected: bool,
    /// [`ClientSystem::next_wakeup`] at this instant.
    pub next_wakeup: SimTime,
}

/// A complete client-side system (driver + link management + network
/// stack), driven by the simulation world.
pub trait ClientSystem {
    /// Human-readable configuration name (appears in experiment output).
    fn label(&self) -> String;

    /// A frame arrived while tuned to `rx.channel`. Actions are appended
    /// to `out`, a caller-owned buffer: frame delivery is the hottest
    /// call in the simulation, and reusing one buffer across events
    /// avoids a vector allocation per received frame.
    ///
    /// Contract: a **broadcast beacon** that provokes no actions may only
    /// feed passive scanning state (signal tables, candidate lists) — it
    /// must not change anything the world observes between events
    /// ([`delivered_bytes`](Self::delivered_bytes),
    /// [`is_connected`](Self::is_connected),
    /// [`next_wakeup`](Self::next_wakeup)). Beacons dominate the event
    /// stream in dense deployments, and the world uses this guarantee to
    /// skip its per-event client inspection for them.
    fn on_frame_into(&mut self, now: SimTime, rx: &RxFrame<'_>, out: &mut Vec<DriverAction>);

    /// Allocating convenience wrapper around
    /// [`on_frame_into`](Self::on_frame_into) (tests and cold paths).
    fn on_frame(&mut self, now: SimTime, rx: &RxFrame<'_>) -> Vec<DriverAction> {
        let mut out = Vec::new();
        self.on_frame_into(now, rx, &mut out);
        out
    }

    /// A previously requested channel switch completed; the radio is now
    /// tuned to `ch`.
    fn on_switch_complete_into(&mut self, now: SimTime, ch: Channel, out: &mut Vec<DriverAction>);

    /// Allocating convenience wrapper around
    /// [`on_switch_complete_into`](Self::on_switch_complete_into).
    fn on_switch_complete(&mut self, now: SimTime, ch: Channel) -> Vec<DriverAction> {
        let mut out = Vec::new();
        self.on_switch_complete_into(now, ch, &mut out);
        out
    }

    /// Timer-driven processing. Called at least when `now` reaches the
    /// time previously returned by [`next_wakeup`](Self::next_wakeup),
    /// and at most once per armed wake: the world arms one wake for the
    /// earliest `next_wakeup` it has observed, and a wake superseded by
    /// an earlier one never polls.
    fn poll_into(&mut self, now: SimTime, out: &mut Vec<DriverAction>);

    /// Allocating convenience wrapper around
    /// [`poll_into`](Self::poll_into).
    fn poll(&mut self, now: SimTime) -> Vec<DriverAction> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    /// The next instant this system needs a `poll` call, or
    /// [`SimTime::MAX`] if it is fully idle.
    fn next_wakeup(&self, now: SimTime) -> SimTime;

    /// Join/association timing log for the evaluation harness.
    fn join_log(&self) -> &JoinLog;

    /// Whether the system currently believes it has end-to-end
    /// connectivity on any interface (used for connectivity accounting).
    fn is_connected(&self) -> bool;

    /// Cumulative application bytes delivered in order across all
    /// interfaces (the throughput every evaluation figure measures).
    fn delivered_bytes(&self) -> u64;

    /// The post-event snapshot the world records after every event that
    /// drove the client: delivered bytes, connectivity, and the next
    /// wakeup, taken together. Semantically identical to calling the
    /// three accessors separately — which is exactly what this default
    /// does — but systems whose accessors each walk per-interface state
    /// should override it with a single fused walk: the world calls this
    /// once per delivered event, making it one of the hottest reads in a
    /// dense simulation.
    fn observe(&self, now: SimTime) -> ClientObservation {
        ClientObservation {
            delivered_bytes: self.delivered_bytes(),
            connected: self.is_connected(),
            next_wakeup: self.next_wakeup(now),
        }
    }

    /// Number of interfaces currently associated at the link layer. The
    /// radio's channel-switch latency grows with this count (PSM frames
    /// around the hardware reset — Table 1).
    fn associated_interfaces(&self) -> usize {
        0
    }

    /// The channel this system assumes the radio is tuned to at t = 0.
    /// The world initialises the physical radio accordingly.
    fn initial_channel(&self) -> Channel;

    /// Whether this system could ever join an AP on `ch` under its
    /// current configuration. The world's fault-recovery clock uses
    /// this to decide which in-range APs count as recovery candidates:
    /// an AP on a channel the client never visits cannot end an
    /// outage, so time covered only by such APs is a mobility bound,
    /// not recovery latency. Defaults to every channel being usable.
    fn can_use_channel(&self, _ch: Channel) -> bool {
        true
    }

    /// Deep-clone this system into a boxed trait object — the snapshot
    /// hook behind `World::fork` (DESIGN.md §13). A checkpointed world
    /// clones its client system alongside the event queue and RNG
    /// streams; when the client is held as `dyn ClientSystem`, this is
    /// the only way to copy it. Implementations must produce a clone
    /// that resumes **bit-identically**: every timer, sequence number,
    /// RNG stream, cache and log the system owns is part of the
    /// snapshot. For `Clone` systems this is just
    /// `Box::new(self.clone())`.
    fn clone_boxed(&self) -> Box<dyn ClientSystem + Send>;
}

// A boxed client system is itself a client system, so worlds can hold
// `World<Box<dyn ClientSystem + Send>>` and still snapshot/fork: `Clone`
// for the box routes through `clone_boxed`.
impl ClientSystem for Box<dyn ClientSystem + Send> {
    fn label(&self) -> String {
        (**self).label()
    }
    fn on_frame_into(&mut self, now: SimTime, rx: &RxFrame<'_>, out: &mut Vec<DriverAction>) {
        (**self).on_frame_into(now, rx, out)
    }
    fn on_switch_complete_into(&mut self, now: SimTime, ch: Channel, out: &mut Vec<DriverAction>) {
        (**self).on_switch_complete_into(now, ch, out)
    }
    fn poll_into(&mut self, now: SimTime, out: &mut Vec<DriverAction>) {
        (**self).poll_into(now, out)
    }
    fn next_wakeup(&self, now: SimTime) -> SimTime {
        (**self).next_wakeup(now)
    }
    fn join_log(&self) -> &JoinLog {
        (**self).join_log()
    }
    fn is_connected(&self) -> bool {
        (**self).is_connected()
    }
    fn delivered_bytes(&self) -> u64 {
        (**self).delivered_bytes()
    }
    fn observe(&self, now: SimTime) -> ClientObservation {
        (**self).observe(now)
    }
    fn associated_interfaces(&self) -> usize {
        (**self).associated_interfaces()
    }
    fn initial_channel(&self) -> Channel {
        (**self).initial_channel()
    }
    fn can_use_channel(&self, ch: Channel) -> bool {
        (**self).can_use_channel(ch)
    }
    fn clone_boxed(&self) -> Box<dyn ClientSystem + Send> {
        (**self).clone_boxed()
    }
}

impl Clone for Box<dyn ClientSystem + Send> {
    fn clone(&self) -> Self {
        (**self).clone_boxed()
    }
}
