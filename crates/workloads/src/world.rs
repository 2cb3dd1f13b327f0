//! The discrete-event vehicular Wi-Fi world.
//!
//! One mobile client — any [`ClientSystem`] — drives along a
//! [`MobilityModel`] through a [`Deployment`] of APs. Each AP couples an
//! 802.11 MAC (with PSM buffering), a DHCP server with the paper's β
//! response-delay distribution, a rate-shaped backhaul, and a wired sink
//! server answering pings and serving bulk TCP downloads. The air is a
//! per-channel half-duplex medium with propagation-range and loss
//! models; the client's single radio pays the hardware-reset latency for
//! every channel switch.
//!
//! Every run is a pure function of the seed in [`WorldConfig`].

use crate::capture::{Capture, CaptureRecord, Direction};
use crate::faults::{FaultIndex, FaultPlan, FaultStats};
use crate::metrics::RunResult;
use spider_mac80211::{ApConfig, ApEvent, ApMac, ClientSystem, DriverAction, RxFrame};
use spider_mobility::{CachedPath, Deployment, MobilityModel, Position, SpatialGrid};
use spider_netstack::{DhcpServer, DhcpServerConfig};
use spider_radio::{ChannelMedium, LossModel, PhyParams, Propagation, Radio};
use spider_simcore::IntervalTracker;
use spider_simcore::{EventQueue, FxHashMap, FxHashSet, RateMeter, SimDuration, SimRng, SimTime};
use spider_tcpsim::{TcpConfig, TcpSender, TcpSenderState};
use spider_wire::ip::L4;
use spider_wire::{
    AirFrame, Channel, DhcpMessage, DhcpOp, Frame, FrameBody, FrameKind, Ipv4Addr, Ipv4Packet,
    MacAddr, SharedFrame, TcpSegment,
};

use std::sync::Arc;

/// The well-known wired sink (re-exported from the Spider interface
/// definitions so baselines and world agree).
pub use spider_core::iface::{SERVER_IP, SERVER_PORT};

/// The paper's card: 802.11b at 11 Mb/s with its measured switch cost.
const PHY: PhyParams = PhyParams::b11();
/// Outdoor suburban propagation with the 100 m practical range (§2.1.3).
const PROPAGATION: Propagation = Propagation::outdoor();
/// Radius around the client within which APs are actively simulated
/// (beaconing), in metres: radio range plus a 30 m margin.
const ACTIVATION_HORIZON_M: f64 = PROPAGATION.range_m + 30.0;
/// Period of the mobility / AP-activation sweep ([`Ev::MobilityCheck`]),
/// which runs at every multiple of it from `t = 0` through the end.
const MOBILITY_TICK: SimDuration = SimDuration::from_millis(250);
/// Maximum backhaul queueing delay before drop-tail (bufferbloat guard
/// that keeps TCP honest).
const BACKHAUL_QUEUE_CAP: SimDuration = SimDuration::from_millis(200);

/// World configuration.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Frame loss model.
    pub loss: LossModel,
    /// Client mobility.
    pub mobility: MobilityModel,
    /// AP deployment.
    pub deployment: Deployment,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Root seed — the run is a pure function of it.
    pub seed: u64,
    /// Unicast MAC-layer transmission attempts (1 = no link-layer ARQ).
    /// Real 802.11 retries unicast frames several times, so the residual
    /// loss seen by upper layers mid-cell is far below the raw per-
    /// transmission loss; broadcasts (beacons) are never retried.
    pub mac_retries: u32,
    /// Record every delivered frame in memory (see [`crate::capture`]),
    /// keeping at most this many; read back with [`World::captured`].
    pub capture: Option<u64>,
    /// Counterfactual knob: let APs PSM-buffer DHCP responses for
    /// sleeping clients. Real 802.11 does **not** behave this way — the
    /// paper's whole multi-channel join penalty rests on join traffic
    /// being unbufferable (§1). The PSM ablation of the `town`
    /// experiment binary flips this to show how much of the penalty
    /// that one mechanism explains.
    pub psm_buffers_join_traffic: bool,
    /// Fault-injection schedule (see [`crate::faults`]); empty by
    /// default. Like the seed, part of the run's pure-function inputs.
    pub faults: FaultPlan,
}

impl WorldConfig {
    /// Sensible defaults around a deployment + mobility pair.
    pub fn new(
        mobility: MobilityModel,
        deployment: Deployment,
        duration: SimDuration,
        seed: u64,
    ) -> WorldConfig {
        WorldConfig {
            loss: LossModel::paper_default(),
            mobility,
            deployment,
            duration,
            seed,
            mac_retries: 4,
            capture: None,
            psm_buffers_join_traffic: false,
            faults: FaultPlan::none(),
        }
    }
}

/// World events.
#[derive(Debug, Clone)]
enum Ev {
    /// Poll the client system.
    ClientWake,
    /// Poll AP `usize` (beacons + TCP sender timers).
    ApWake(usize),
    /// The client radio finished switching to the channel.
    SwitchDone(Channel),
    /// A frame arrives at the client antenna.
    AirToClient {
        /// The frame. A broadcast fan-out enqueues N refcount bumps of
        /// one shared copy, a unicast frame rides inline in its own box
        /// ([`AirFrame`]); the event payload stays pointer-sized on the
        /// heap either way.
        frame: AirFrame,
        /// Channel it was sent on.
        channel: Channel,
        /// Transmitting AP (for RSSI computation).
        ap: usize,
    },
    /// A frame arrives at AP `ap`.
    AirToAp {
        /// Receiving AP index.
        ap: usize,
        /// The frame (shared or inline, see [`Ev::AirToClient`]).
        frame: AirFrame,
    },
    /// An uplink packet reached AP `ap`'s wired server.
    ServerRx {
        /// The AP whose backhaul carried it.
        ap: usize,
        /// The packet, boxed so every event stays small: the calendar
        /// queue copies elements on push and `swap_remove`. Packet
        /// events are no minority (`ServerRx` and `Downlink` are 38–44%
        /// of the events of a data-heavy drive), but inline they would
        /// grow every event of every kind.
        packet: Box<Ipv4Packet>,
    },
    /// A downlink packet is ready at AP `ap` for wireless delivery.
    Downlink {
        /// The AP.
        ap: usize,
        /// Destination client MAC.
        dst: MacAddr,
        /// The packet (boxed, see [`Ev::ServerRx`]).
        packet: Box<Ipv4Packet>,
        /// Whether the AP may PSM-buffer it (join traffic may not be).
        bufferable: bool,
    },
    /// Periodic mobility / AP-activation sweep.
    MobilityCheck,
}

/// The armed time of one timer owner's wake event: the client system's
/// `ClientWake`, or one AP's `ApWake`.
///
/// Invariant: at most one wake per owner is live, the one whose
/// timestamp equals the armed time. Re-arming earlier cannot pull the
/// later event out of the queue, so that event stays behind,
/// superseded; [`WakeSlot::fire`] rejects it when it pops, before the
/// world does any work for it (DESIGN.md §9).
// Clone: part of the world snapshot — a fork must reject the same
// superseded wakes its parent would have.
#[derive(Debug, Clone, Copy)]
struct WakeSlot(SimTime);

impl WakeSlot {
    /// Nothing armed.
    const IDLE: WakeSlot = WakeSlot(SimTime::MAX);

    /// Arm the slot for `at` if that is earlier than the pending wake.
    /// Returns whether the caller must schedule a wake event at `at`.
    fn arm(&mut self, at: SimTime) -> bool {
        let earlier = at < self.0;
        if earlier {
            self.0 = at;
        }
        earlier
    }

    /// Whether a wake popped at `now` is the live one. Firing the live
    /// wake disarms the slot; a superseded wake leaves it untouched.
    fn fire(&mut self, now: SimTime) -> bool {
        let live = now == self.0;
        if live {
            self.0 = SimTime::MAX;
        }
        live
    }
}

/// One access point with everything behind it.
// Clone: part of the world snapshot — the MAC association table, DHCP
// pool, live TCP senders, ARP bindings, backhaul horizon and the ISS
// RNG all travel with a fork (DESIGN.md §13).
#[derive(Clone)]
struct ApNode {
    /// Cumulative TCP timeout/retransmit counts from retired senders.
    tcp_timeouts: u64,
    tcp_retransmits: u64,
    /// Whether the DHCP server answers (broken APs ignore DHCP).
    dhcp_responsive: bool,
    position: Position,
    channel: Channel,
    mac: ApMac,
    dhcp: DhcpServer,
    /// TCP senders keyed by the client's source port, with the client
    /// IP recorded at SYN time.
    senders: FxHashMap<u16, (Ipv4Addr, TcpSender)>,
    /// IP → client MAC bindings learned from DHCP and uplink traffic.
    arp: FxHashMap<Ipv4Addr, MacAddr>,
    /// Backhaul serialisation horizon (downlink FIFO).
    backhaul_free_at: SimTime,
    /// Backhaul rate in bytes/second.
    backhaul_bps: f64,
    /// One-way backhaul latency.
    backhaul_latency: SimDuration,
    /// Whether the AP is inside the client's activation horizon.
    active: bool,
    /// Airtime of the AP's beacon, set when it enters the horizon (only
    /// an active AP beacons), so the beacon path never recomputes it.
    beacon_airtime: SimDuration,
    /// This AP's live `ApWake`.
    wake: WakeSlot,
    /// Deterministic ISS source for new TCP connections.
    iss_rng: SimRng,
}

/// Air-frame conservation ledger (debug builds only, DESIGN.md §11).
///
/// Every frame that wins its loss draw is *created*, and normally
/// scheduled as an `Air*` delivery event. Each such event, once popped,
/// is either *delivered* into a MAC/driver or *dropped* (mistuned radio,
/// blackout); events still pending when the run ends are *in flight*.
/// A frame to the client that the radio provably cannot hear
/// ([`Radio::may_hear`]) is dropped on creation, never scheduled. The
/// run-end audit asserts `created = delivered + dropped + in_flight` —
/// any gap means a dispatch arm gained an exit path that loses frames
/// silently.
// Clone: the ledger is part of the world snapshot, so a forked run's
// audit spans the checkpoint boundary — frames created before the fork
// must still balance against deliveries after it (DESIGN.md §13).
#[cfg(debug_assertions)]
#[derive(Debug, Default, Clone)]
struct AirLedger {
    created: u64,
    delivered: u64,
    dropped: u64,
    in_flight: u64,
    /// The share of `dropped` that was never scheduled.
    elided: u64,
}

/// The world. `Clone` is the checkpoint: a clone resumes
/// bit-identically (see [`World::snapshot`]).
#[derive(Clone)]
pub struct World<C: ClientSystem> {
    cfg: WorldConfig,
    queue: EventQueue<Ev>,
    client: C,
    radio: Radio,
    medium: ChannelMedium,
    aps: Vec<ApNode>,
    bssid_index: FxHashMap<MacAddr, usize>,
    /// Spatial index over AP sites: mobility sweeps and broadcast
    /// fan-out query *nearby* APs instead of scanning all of them.
    grid: SpatialGrid,
    /// Client route with precomputed geometry (bit-identical positions
    /// to `cfg.mobility`, minus the per-call segment arithmetic).
    path: CachedPath,
    /// Per-AP fault-episode index (accelerates every plan query).
    findex: FaultIndex,
    /// AP ids inside the activation horizon as of the last mobility
    /// sweep, ascending — lets deactivation walk the active set instead
    /// of the whole deployment.
    active_ids: Vec<usize>,
    /// Scratch for grid queries in the mobility sweep.
    nearby_scratch: Vec<usize>,
    /// Scratch for grid queries in the broadcast fan-out.
    targets_scratch: Vec<usize>,
    /// Scratch for AP MAC event batches (rx / downlink).
    ap_ev_scratch: Vec<ApEvent>,
    /// Scratch for the TCP-sender port walk in `ap_wake`.
    ports_scratch: Vec<u16>,
    /// Scratch for TCP sender output (`on_segment_into` / `poll_into`),
    /// reused so the wired hot path never allocates a return vector.
    segs_scratch: Vec<TcpSegment>,
    /// Scratch for client driver actions (`on_frame_into` & friends).
    actions_scratch: Vec<DriverAction>,
    /// Events processed so far (reported in [`RunResult::events`]).
    events: u64,
    rng_loss: SimRng,
    // Metrics.
    rate: RateMeter,
    conn: IntervalTracker,
    delivered_prev: u64,
    encountered: FxHashSet<usize>,
    /// The client system's live `ClientWake`.
    client_wake: WakeSlot,
    /// Delivered-frame capture, when [`WorldConfig::capture`] arms it.
    /// Observability only: it never feeds back into the event stream.
    capture: Option<Capture>,
    // Fault-injection state.
    fstats: FaultStats,
    #[cfg(debug_assertions)]
    air: AirLedger,
    /// APs with an armed time-to-detect measurement:
    /// ap → (episode start, detection clock start, fault class). A
    /// `None` clock is lazy: it starts at the first packet the fault
    /// actually swallows (see [`World::note_fault_bite`]).
    pending_detect: FxHashMap<usize, (SimTime, Option<SimTime>, crate::faults::FaultKind)>,
    /// Episodes whose detection has already been recorded.
    detect_done: FxHashSet<(usize, SimTime)>,
    /// Open fault-coincident connectivity outage, if any: recovery time
    /// accrued so far while a candidate AP was in range, plus the start
    /// of the currently-running covered span (`None` while the client
    /// is out of coverage — driving through open country is mobility,
    /// not recovery latency).
    fault_outage: Option<(SimDuration, Option<SimTime>)>,
    /// Was any AP within actual radio range at the last mobility sweep?
    client_covered: bool,
    prev_connected: bool,
    /// Whether the t=0 bootstrap events have been scheduled (set by the
    /// first [`World::run_until`]/[`World::finish`] call; cloned into
    /// forks so a resumed world never re-bootstraps).
    started: bool,
}

impl<C: ClientSystem + Clone> World<C> {
    /// Deep-clone the entire live simulation state — calendar queue
    /// (with `(at, seq)` ordering and the seq counter intact), RNG
    /// streams, every AP stack, the client system, fault engine state,
    /// metrics accumulators, the frame capture, and (in debug builds)
    /// the air-frame ledger, so the audit spans the snapshot boundary.
    ///
    /// The returned world resumes **bit-identically**: advancing the
    /// original and the snapshot produces the same events, metrics,
    /// capture and `RunResult`. `World` derives `Clone`, so the
    /// compiler proves no field is left behind.
    pub fn snapshot(&self) -> World<C> {
        self.clone()
    }

    /// Fork this world: a snapshot intended to be resumed (the name is
    /// the intent; the mechanics are [`World::snapshot`]). Typical use:
    /// `run_until(t)` once, then fork per variant and `finish()` each.
    pub fn fork(&self) -> World<C> {
        self.clone()
    }

    /// Fork under a different fault plan: the prefix-sharing primitive
    /// (DESIGN.md §13). Valid only when `faults` agrees with this
    /// world's plan strictly beyond [`World::plan_horizon`] —
    /// everything simulated so far must be plan-independent, which
    /// [`FaultPlan::first_divergence`] over this drive's
    /// [`World::first_activations`] bounds conservatively. Before the
    /// first divergence the fault engine performs no state changes and
    /// draws no RNG, and it keeps no state derived from the plan, so
    /// swapping the plan and rebuilding the episode index yields
    /// exactly the world a cold run under `faults` would have reached.
    pub fn fork_with_plan(&self, faults: FaultPlan) -> World<C> {
        let mut w = self.clone();
        w.rebase_plan(faults);
        w
    }

    /// Swap this world's fault plan in place — [`World::fork_with_plan`]
    /// without the snapshot. Same contract: the new plan must agree
    /// with the current one strictly beyond [`World::plan_horizon`].
    pub fn rebase_plan(&mut self, faults: FaultPlan) {
        debug_assert!(
            self.cfg
                .faults
                .first_divergence(&faults, &self.first_activations())
                .is_none_or(|d| d > self.plan_horizon()),
            "rebase_plan: candidate plan diverges at or before the plan horizon ({})",
            self.plan_horizon(),
        );
        self.findex = FaultIndex::build(&faults, self.aps.len());
        self.cfg.faults = faults;
    }

    /// Fork this world and advance the fork as close to `target` as
    /// possible while keeping its [`World::plan_horizon`] strictly
    /// before `divergence` — the safe base for a
    /// [`World::rebase_plan`] swap of any plan agreeing up to that
    /// point. Two stages so overshoot retries stay cheap: first to a
    /// margin before the target (the medium's look-ahead is a few
    /// frames of airtime, far less than the margin), then the final
    /// stretch, backed off past the observed look-ahead and redone
    /// from the margin snapshot on an overshoot. Returns the fork, the
    /// limit it actually consumed events up to, and the events
    /// executed including discarded attempts.
    ///
    /// Requires `self.plan_horizon() < divergence`.
    pub fn advance_shared(&self, target: SimTime, divergence: SimTime) -> (World<C>, SimTime, u64) {
        debug_assert!(
            self.plan_horizon() < divergence,
            "advance_shared: this world has already peeked past the divergence point"
        );
        /// How far short of the target stage 1 stops. Generously above
        /// any realistic channel backlog, and still a rounding error
        /// against the seconds-scale prefixes being shared.
        const MARGIN: SimDuration = SimDuration::from_millis(100);

        let mut executed = 0u64;
        let floor = self.now();
        let target = target.max(floor);
        let advance_to = |from: &World<C>, limit: SimTime, executed: &mut u64| {
            let mut w = from.fork();
            let before = w.events_processed();
            w.run_until(limit);
            *executed += w.events_processed() - before;
            w
        };

        // Stage 1: to `target - MARGIN`. An overshoot here means a
        // pathological backlog; retry a few times, then give up on
        // advancing at all (a plain fork is always safe).
        let mut stage1 =
            SimTime::from_micros(target.as_micros().saturating_sub(MARGIN.as_micros())).max(floor);
        let mut tries = 0;
        let base = loop {
            let w = advance_to(self, stage1, &mut executed);
            if w.plan_horizon() < divergence {
                break w;
            }
            let back = w.plan_horizon().saturating_since(divergence) + SimDuration::from_micros(1);
            tries += 1;
            if stage1 <= floor || tries >= 3 {
                return (self.fork(), floor, executed);
            }
            stage1 = SimTime::from_micros(stage1.as_micros().saturating_sub(back.as_micros()))
                .max(floor);
        };
        if stage1 >= target {
            return (base, stage1, executed);
        }

        // Stage 2: the last stretch. Each retry redoes at most the
        // margin's worth of events from the stage-1 snapshot.
        let mut t = target;
        let mut tries = 0;
        loop {
            let w = advance_to(&base, t, &mut executed);
            if w.plan_horizon() < divergence {
                return (w, t, executed);
            }
            let back = w.plan_horizon().saturating_since(divergence) + SimDuration::from_micros(1);
            tries += 1;
            if t <= stage1 || tries >= 8 {
                return (base, stage1, executed);
            }
            t = SimTime::from_micros(t.as_micros().saturating_sub(back.as_micros())).max(stage1);
        }
    }

    /// The latest simulated instant whose fault-plan state has already
    /// been consulted. Frame fates are decided at *reservation* time,
    /// and a reservation starts in the future whenever the channel is
    /// busy ([`ChannelMedium::reserve`]) — so a plan swap is only safe
    /// strictly beyond this point, not merely beyond [`World::now`].
    pub fn plan_horizon(&self) -> SimTime {
        self.now().max(self.medium.horizon())
    }
}

/// The BSSID of the AP at deployment site `id`.
pub fn ap_bssid(id: usize) -> MacAddr {
    MacAddr::from_id(0x00AA_0000 + id as u64)
}

impl<C: ClientSystem> World<C> {
    /// Build a world around a client system.
    pub fn new(cfg: WorldConfig, client: C) -> World<C> {
        let root = SimRng::new(cfg.seed);
        let mut aps = Vec::with_capacity(cfg.deployment.len());
        let mut bssid_index = FxHashMap::default();
        for site in &cfg.deployment.sites {
            let bssid = ap_bssid(site.id);
            let ssid = spider_wire::Ssid::new(format!("open-{}", site.id));
            // Offset each AP's beacon phase so beacons do not collide in
            // lockstep.
            let mut phase_rng = root.stream_indexed("beacon-phase", site.id as u64);
            let first_beacon = SimTime::from_micros(phase_rng.uniform_u64(0, 102_400));
            let mac = ApMac::new(ApConfig::open(bssid, ssid, site.channel), first_beacon);
            let dhcp = DhcpServer::new(
                DhcpServerConfig::for_ap(site.id, site.dhcp_beta),
                root.stream_indexed("dhcp", site.id as u64),
            );
            bssid_index.insert(bssid, site.id);
            aps.push(ApNode {
                tcp_timeouts: 0,
                tcp_retransmits: 0,
                dhcp_responsive: site.dhcp_responsive,
                position: site.position,
                channel: site.channel,
                mac,
                dhcp,
                senders: FxHashMap::default(),
                arp: FxHashMap::default(),
                backhaul_free_at: SimTime::ZERO,
                backhaul_bps: site.backhaul_bps,
                backhaul_latency: SimDuration::from_secs_f64(site.backhaul_latency_s),
                active: false,
                beacon_airtime: SimDuration::ZERO,
                wake: WakeSlot::IDLE,
                iss_rng: root.stream_indexed("iss", site.id as u64),
            });
        }
        // The radio starts wherever the driver believes it is.
        let radio = Radio::new(client.initial_channel());
        let capture = cfg.capture.map(Capture::new);
        let num_aps = aps.len();
        // Cell size near the query radius keeps lookups to a 3×3 cell
        // neighbourhood; both sweep (horizon) and fan-out (range) radii
        // are within one cell of it.
        let grid = cfg.deployment.grid(ACTIVATION_HORIZON_M.max(1.0));
        let path = CachedPath::new(cfg.mobility.clone());
        let findex = FaultIndex::build(&cfg.faults, num_aps);
        World {
            // Steady state holds beacons and data frames in flight for
            // every nearby AP plus timers; 1024 slots covers dense
            // deployments without ever regrowing mid-run.
            queue: EventQueue::with_capacity(1024),
            client,
            radio,
            medium: ChannelMedium::new(),
            aps,
            bssid_index,
            grid,
            path,
            findex,
            active_ids: Vec::new(),
            nearby_scratch: Vec::new(),
            targets_scratch: Vec::new(),
            ap_ev_scratch: Vec::new(),
            ports_scratch: Vec::new(),
            segs_scratch: Vec::with_capacity(64),
            actions_scratch: Vec::with_capacity(16),
            events: 0,
            rng_loss: root.stream("loss"),
            rate: RateMeter::new(SimTime::ZERO, SimDuration::from_secs(1)),
            conn: IntervalTracker::new(SimTime::ZERO, false),
            delivered_prev: 0,
            encountered: FxHashSet::default(),
            client_wake: WakeSlot::IDLE,
            capture,
            fstats: FaultStats::default(),
            #[cfg(debug_assertions)]
            air: AirLedger::default(),
            pending_detect: FxHashMap::default(),
            detect_done: FxHashSet::default(),
            fault_outage: None,
            client_covered: false,
            prev_connected: false,
            started: false,
            cfg,
        }
    }

    /// Immutable access to the client system.
    pub fn client(&self) -> &C {
        &self.client
    }

    /// The number of hardware channel switches so far.
    pub fn switch_count(&self) -> u64 {
        self.radio.switch_count()
    }

    /// Simulated time of the last processed event (t=0 before any).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events processed so far (continues into [`RunResult::events`], so
    /// a forked run reports the same total as a cold one; prefix-sharing
    /// schedulers measure *actual* work as deltas of this counter).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// The frames captured so far, in delivery order (empty unless
    /// [`WorldConfig::capture`] is set). A fork carries its parent's
    /// records, so a forked run captures exactly what the cold run does.
    pub fn captured(&self) -> &[CaptureRecord] {
        self.capture.as_ref().map_or(&[], Capture::records)
    }

    fn client_pos(&self, now: SimTime) -> Position {
        self.path.position(now)
    }

    fn distance_to_ap(&self, now: SimTime, ap: usize) -> f64 {
        self.client_pos(now).distance_to(self.aps[ap].position)
    }

    fn distance_sq_to_ap(&self, now: SimTime, ap: usize) -> f64 {
        self.client_pos(now).distance_sq_to(self.aps[ap].position)
    }

    /// Run the simulation to completion and produce the result.
    pub fn run(self) -> RunResult {
        self.finish().0
    }

    /// Schedule the t=0 bootstrap events exactly once.
    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.queue.schedule(SimTime::ZERO, Ev::MobilityCheck);
        self.client_wake.arm(SimTime::ZERO);
        self.queue.schedule(SimTime::ZERO, Ev::ClientWake);
    }

    /// Advance the simulation through every event firing at or before
    /// `limit` (clamped to the configured duration), then stop with the
    /// world live — ready for [`World::snapshot`]/[`World::fork`],
    /// further `run_until` calls, or [`World::finish`].
    ///
    /// Checkpointing hinges on this being a pure reordering of the cold
    /// run's work: the bounded pop drains the exact `(at, seq)` prefix
    /// an uninterrupted run would have popped, so `run_until(t)` +
    /// `finish()` is bit-identical to a straight `run()`.
    pub fn run_until(&mut self, limit: SimTime) {
        self.start();
        let limit = limit.min(SimTime::ZERO + self.cfg.duration);
        while let Some(ev) = self.queue.pop_before(limit) {
            let now = ev.at;
            self.events += 1;
            // Only events actually delivered into the client system can
            // change what after_event observes (delivered bytes,
            // connectivity, the driver's next wakeup): every quantity it
            // reads is client state, and the interval tracker ignores
            // same-value sets. Skipping the call for AP-side events,
            // housekeeping, and frames the radio never heard leaves
            // every recorded metric and the event schedule bit-identical.
            if self.dispatch(now, ev.event) {
                self.after_event(now);
            }
        }
    }

    /// Run from the current point (t=0 for a fresh world, the snapshot
    /// point for a fork) to completion, returning the result *and* the
    /// client system for post-run introspection (utility tables, lease
    /// caches, ...). Events past the end stay queued; the debug audit
    /// counts their frames as in flight.
    pub fn finish(mut self) -> (RunResult, C) {
        let end = SimTime::ZERO + self.cfg.duration;
        self.run_until(end);
        self.fstats.ap_reboots = self.findex.reboot_count(end, MOBILITY_TICK);
        let duration = self.cfg.duration;
        let bytes = self.client.delivered_bytes();
        let mut tcp_timeouts = 0;
        let mut tcp_retransmits = 0;
        for ap in &self.aps {
            tcp_timeouts += ap.tcp_timeouts;
            tcp_retransmits += ap.tcp_retransmits;
            #[allow(
                clippy::iter_over_hash_type,
                reason = "commutative sums: visit order cannot change them"
            )]
            for (_, s) in ap.senders.values() {
                tcp_timeouts += s.timeouts;
                tcp_retransmits += s.retransmits;
            }
        }
        #[cfg(debug_assertions)]
        self.audit_invariants();
        let result = RunResult {
            label: self.client.label(),
            duration,
            bytes,
            avg_throughput_bps: self.rate.average_throughput(end),
            connectivity: self.rate.connectivity_fraction(end),
            instantaneous_bps: spider_simcore::Cdf::from_samples(self.rate.instantaneous_rates()),
            intervals: self.conn.finish(end),
            join_log: self.client.join_log().clone(),
            switches: self.radio.switch_count(),
            aps_encountered: self.encountered.len(),
            tcp_timeouts,
            tcp_retransmits,
            faults: self.fstats,
            events: self.events,
        };
        (result, self.client)
    }

    /// Count an undispatched event against the air ledger's in-flight
    /// column (debug builds only).
    #[cfg(debug_assertions)]
    fn air_note_in_flight(&mut self, ev: &Ev) {
        if matches!(ev, Ev::AirToClient { .. } | Ev::AirToAp { .. }) {
            self.air.in_flight += 1;
        }
    }

    /// Run-end invariant audit (debug builds only, DESIGN.md §11):
    /// frame conservation and fault-counter consistency.
    ///
    /// # Panics
    ///
    /// Panics if any invariant fails — a debug-build failure here is
    /// a simulator bug, never a workload property.
    #[cfg(debug_assertions)]
    fn audit_invariants(&mut self) {
        // Frame conservation. Everything still queued is in flight.
        while let Some(ev) = self.queue.pop() {
            self.air_note_in_flight(&ev.event);
        }
        assert_eq!(
            self.air.created,
            self.air.delivered + self.air.dropped + self.air.in_flight,
            "air-frame conservation violated: {:?}",
            self.air
        );
        // Fault counters can only move when a fault plan is armed.
        if self.findex.is_empty() {
            assert_eq!(
                self.fstats.total_drops(),
                0,
                "fault drop counters moved without a fault plan: {:?}",
                self.fstats
            );
            assert_eq!(
                self.fstats.ap_reboots, 0,
                "AP reboots recorded without a fault plan"
            );
            assert!(
                self.fstats.detect_times_s.is_empty() && self.fstats.recover_times_s.is_empty(),
                "fault timing samples recorded without a fault plan"
            );
        }
        // Per-class attribution stays parallel to the timing samples.
        assert_eq!(
            self.fstats.detect_times_s.len(),
            self.fstats.detect_kinds.len(),
            "detect-kind attribution out of sync with detect timings"
        );
        // Timing samples are durations: finite and non-negative always.
        for &t in self
            .fstats
            .detect_times_s
            .iter()
            .chain(&self.fstats.recover_times_s)
        {
            assert!(
                t.is_finite() && t >= 0.0,
                "fault timing sample out of range: {t}"
            );
        }
    }

    fn after_event(&mut self, now: SimTime) {
        // One fused snapshot instead of three separate client walks;
        // drivers with per-interface state answer it from a cache.
        let obs = self.client.observe(now);
        // Throughput accounting.
        let delivered = obs.delivered_bytes;
        if delivered > self.delivered_prev {
            self.rate.record(now, delivered - self.delivered_prev);
            self.delivered_prev = delivered;
        }
        // Connectivity signal.
        let connected = obs.connected;
        self.conn.set(now, connected);
        // Time-to-recover: a connectivity drop that coincides with an
        // active data-plane fault *within radio range* opens an outage;
        // the next restored connectivity closes it. Two rules keep the
        // sample honest on a drive: a blackout on an AP the client
        // cannot even hear does not turn a natural coverage gap into a
        // "recovery" measurement, and the clock only accrues while a
        // candidate AP is in range — time spent driving through open
        // country is mobility, not recovery latency.
        if !self.findex.is_empty() {
            if self.prev_connected
                && !connected
                && self.fault_outage.is_none()
                && self.data_fault_in_range(now)
            {
                self.fault_outage = Some((SimDuration::ZERO, self.client_covered.then_some(now)));
            } else if connected {
                if let Some((mut accrued, span)) = self.fault_outage.take() {
                    if let Some(since) = span {
                        accrued += now.saturating_since(since);
                    }
                    self.fstats.recover_times_s.push(accrued.as_secs_f64());
                }
            }
        }
        self.prev_connected = connected;
        // Client wakeup maintenance.
        let nw = obs.next_wakeup.max(now);
        if self.client_wake.arm(nw) {
            self.queue.schedule(nw, Ev::ClientWake);
        }
    }

    /// Deliver one event. Returns whether the client system was driven
    /// (and so [`World::after_event`] must re-inspect its state).
    fn dispatch(&mut self, now: SimTime, ev: Ev) -> bool {
        match ev {
            Ev::ClientWake => {
                if !self.client_wake.fire(now) {
                    return false;
                }
                let mut actions = std::mem::take(&mut self.actions_scratch);
                actions.clear();
                self.client.poll_into(now, &mut actions);
                self.process_actions(now, &mut actions);
                self.actions_scratch = actions;
                true
            }
            Ev::SwitchDone(ch) => {
                if self.radio.listening_on(now) == Some(ch) {
                    let mut actions = std::mem::take(&mut self.actions_scratch);
                    actions.clear();
                    self.client.on_switch_complete_into(now, ch, &mut actions);
                    self.process_actions(now, &mut actions);
                    self.actions_scratch = actions;
                }
                true
            }
            Ev::ApWake(i) => {
                if self.aps[i].wake.fire(now) {
                    self.ap_wake(now, i);
                }
                false
            }
            Ev::AirToClient { frame, channel, ap } => {
                // A frame on a channel the radio isn't tuned to never
                // reaches the driver, so it cannot have changed any
                // client state for after_event to observe.
                if self.radio.listening_on(now) != Some(channel) {
                    #[cfg(debug_assertions)]
                    {
                        self.air.dropped += 1;
                    }
                    return false;
                }
                #[cfg(debug_assertions)]
                {
                    self.air.delivered += 1;
                }
                if let Some(cap) = &mut self.capture {
                    cap.record(now, Direction::ToClient, &frame);
                }
                // RSSI only rides on scanning frames (see `RxFrame`);
                // computing the log-distance model per TCP segment would
                // be pure waste.
                let rssi = matches!(
                    frame.body,
                    FrameBody::Beacon { .. } | FrameBody::ProbeResponse { .. }
                )
                .then(|| PROPAGATION.rssi_dbm(self.distance_to_ap(now, ap)));
                let rx = RxFrame {
                    frame: &frame,
                    channel,
                    rssi_dbm: rssi,
                };
                let passive_beacon = rx.frame.dst == MacAddr::BROADCAST
                    && matches!(rx.frame.body, FrameBody::Beacon { .. });
                let mut actions = std::mem::take(&mut self.actions_scratch);
                actions.clear();
                self.client.on_frame_into(now, &rx, &mut actions);
                if passive_beacon && actions.is_empty() {
                    // An overheard broadcast beacon that provoked no
                    // actions only fed the client's passive scan table
                    // (see the `ClientSystem::on_frame` contract) — none
                    // of the quantities after_event reads moved.
                    self.actions_scratch = actions;
                    return false;
                }
                self.process_actions(now, &mut actions);
                self.actions_scratch = actions;
                true
            }
            Ev::AirToAp { ap, frame } => {
                if self.findex.blackout(now, ap) {
                    // A powered-off AP hears nothing.
                    self.fstats.frames_dropped_blackout += 1;
                    self.note_fault_bite(now, ap);
                    #[cfg(debug_assertions)]
                    {
                        self.air.dropped += 1;
                    }
                    return false;
                }
                #[cfg(debug_assertions)]
                {
                    self.air.delivered += 1;
                }
                if let Some(cap) = &mut self.capture {
                    cap.record(now, Direction::ToAp, &frame);
                }
                let mut evs = std::mem::take(&mut self.ap_ev_scratch);
                evs.clear();
                self.aps[ap].mac.on_frame_into(now, &frame, &mut evs);
                self.process_ap_events_drain(now, ap, &mut evs);
                self.ap_ev_scratch = evs;
                false
            }
            Ev::ServerRx { ap, packet } => {
                self.server_rx(now, ap, *packet);
                false
            }
            Ev::Downlink {
                ap,
                dst,
                packet,
                bufferable,
            } => {
                let mut evs = std::mem::take(&mut self.ap_ev_scratch);
                evs.clear();
                self.aps[ap]
                    .mac
                    .enqueue_downlink_into(now, dst, *packet, bufferable, &mut evs);
                self.process_ap_events_drain(now, ap, &mut evs);
                self.ap_ev_scratch = evs;
                false
            }
            Ev::MobilityCheck => {
                self.mobility_check(now);
                let next = now + MOBILITY_TICK;
                if next <= SimTime::ZERO + self.cfg.duration {
                    self.queue.schedule(next, Ev::MobilityCheck);
                }
                false
            }
        }
    }

    /// The APs inside the activation horizon at `now`, ascending, into
    /// `out`; returns the client's position. The one query behind both
    /// the mobility sweep and [`World::first_activations`].
    fn activation_query(&self, now: SimTime, out: &mut Vec<usize>) -> Position {
        // Grid query instead of a scan over every site: cost scales with
        // the APs near the client, not the deployment size. The query
        // returns ascending ids — the same order the old linear scan
        // visited them — so activation-driven scheduling (and therefore
        // event sequence numbers) is unchanged.
        let pos = self.client_pos(now);
        self.grid.within_into(pos, ACTIVATION_HORIZON_M, out);
        pos
    }

    /// For each AP, the first mobility-sweep tick at which the sweep
    /// activates it, or [`SimTime::MAX`] if the drive never comes within
    /// the activation horizon. The client's path is a pure function of
    /// the configuration, so no fault plan can move these instants, and
    /// before its activation nothing can observe an AP's fault state
    /// (DESIGN.md §13.2): [`FaultPlan::first_divergence`] clips every
    /// AP-pinned difference to this table. Computed on demand by
    /// walking the sweep's ticks; `World::new` never pays for it.
    pub fn first_activations(&self) -> Vec<SimTime> {
        let mut first = vec![SimTime::MAX; self.aps.len()];
        let mut nearby = Vec::new();
        let end = SimTime::ZERO + self.cfg.duration;
        let mut now = SimTime::ZERO;
        while now <= end {
            self.activation_query(now, &mut nearby);
            for &i in &nearby {
                first[i] = first[i].min(now);
            }
            now += MOBILITY_TICK;
        }
        first
    }

    fn mobility_check(&mut self, now: SimTime) {
        let mut nearby = std::mem::take(&mut self.nearby_scratch);
        let pos = self.activation_query(now, &mut nearby);
        // Deactivate APs that left the horizon: only the previously
        // active set needs checking, and membership in the new nearby
        // set is a merge of two ascending lists.
        let mut prev = std::mem::take(&mut self.active_ids);
        let mut n = nearby.iter().peekable();
        for &i in &prev {
            while n.next_if(|&&x| x < i).is_some() {}
            if n.peek() != Some(&&i) {
                self.aps[i].active = false;
            }
        }
        let mut covered = false;
        for &i in &nearby {
            if !self.aps[i].active {
                self.aps[i].active = true;
                self.aps[i].beacon_airtime = self.airtime(self.aps[i].mac.beacon());
                self.aps[i].mac.resync_beacons(now);
                self.schedule_ap_wake(now, i, now);
            }
            if PROPAGATION.in_range_sq(pos.distance_sq_to(self.aps[i].position)) {
                self.encountered.insert(i);
                // Coverage for the recovery clock means a *usable*
                // candidate: an in-range AP on a channel this client
                // never visits cannot end an outage.
                if self.client.can_use_channel(self.aps[i].channel) {
                    covered = true;
                }
            }
        }
        // The nearby list *is* the new active set; recycle the old one
        // as next sweep's query scratch.
        prev.clear();
        self.nearby_scratch = prev;
        self.active_ids = nearby;
        self.set_coverage(now, covered);
        if !self.findex.is_empty() {
            self.fault_sweep(now);
        }
    }

    /// Track radio-coverage transitions for the recovery clock: an open
    /// fault outage accrues recovery time only across covered spans.
    fn set_coverage(&mut self, now: SimTime, covered: bool) {
        if covered == self.client_covered {
            return;
        }
        self.client_covered = covered;
        if let Some((accrued, span)) = &mut self.fault_outage {
            if covered {
                *span = Some(now);
            } else if let Some(since) = span.take() {
                *accrued += now.saturating_since(since);
            }
        }
    }

    /// Is a data-plane fault active on any AP currently within radio
    /// range of the client — on a channel the client actually uses?
    /// Only such a fault can plausibly cause (or prolong) a
    /// connectivity outage the client is experiencing.
    fn data_fault_in_range(&self, now: SimTime) -> bool {
        self.active_ids.iter().any(|&i| {
            self.findex.data_fault_at(now, i).is_some()
                && self.client.can_use_channel(self.aps[i].channel)
        })
    }

    /// Periodic fault bookkeeping: AP reboots at blackout end, and
    /// arming of time-to-detect measurements while a data-plane fault
    /// covers an AP with associated clients.
    ///
    /// Both read the plan only, never state of their own, so an AP the
    /// client has not reached yet is left untouched: it has no
    /// association to reset, is not active, and has no client to arm a
    /// measurement for. The reboot count is a function of the plan too,
    /// taken when the run finishes.
    fn fault_sweep(&mut self, now: SimTime) {
        // Only APs with scheduled episodes can change fault state; the
        // index lists them in ascending order, so the sweep's scheduling
        // side effects happen in the same order a full scan would
        // produce (episode-free APs schedule nothing).
        for idx in 0..self.findex.faulty_aps().len() {
            let i = self.findex.faulty_aps()[idx];
            if self.findex.reboots_at(now, MOBILITY_TICK, i) {
                // Power restored: the AP reboots with empty association
                // state, so lingering clients must re-join from scratch.
                self.aps[i].mac.reset_associations();
                if self.aps[i].active {
                    self.aps[i].mac.resync_beacons(now);
                    self.schedule_ap_wake(now, i, now);
                }
            }
            match self.findex.data_fault_at(now, i) {
                Some((start, kind)) => {
                    if self.aps[i].mac.client_count() > 0
                        && !self.pending_detect.contains_key(&i)
                        && !self.detect_done.contains(&(i, start))
                    {
                        // If the client was already associated when the
                        // episode began (first sweep after `start`), its
                        // probes were flowing and the detection clock
                        // starts at the true onset. A client that joins
                        // mid-episode (zombies accept joins) cannot
                        // observe the fault until its data plane is up
                        // and a probe actually dies, so the clock starts
                        // lazily at the first swallowed packet —
                        // otherwise association and DHCP time would be
                        // charged against the ping monitor's budget.
                        let onset = if now.saturating_since(start) <= SimDuration::from_millis(500)
                        {
                            Some(start)
                        } else {
                            None
                        };
                        self.pending_detect.insert(i, (start, onset, kind));
                    }
                }
                None => {
                    self.pending_detect.remove(&i);
                }
            }
        }
    }

    /// The fault on `ap` just swallowed a client packet: if an armed
    /// detection measurement is still waiting for its clock to start,
    /// this is the moment the fault became observable.
    fn note_fault_bite(&mut self, now: SimTime, ap: usize) {
        if let Some((_, onset @ None, _)) = self.pending_detect.get_mut(&ap) {
            *onset = Some(now);
        }
    }

    /// The client tore down its link to `ap` (deauth) while a
    /// detection measurement was armed: record the latency.
    fn note_fault_detect(&mut self, now: SimTime, ap: usize) {
        if let Some((start, onset, kind)) = self.pending_detect.remove(&ap) {
            self.detect_done.insert((ap, start));
            // An armed clock that never started means nothing was
            // swallowed before the deauth — the fault was torn down
            // the instant it became observable.
            let onset = onset.unwrap_or(now);
            self.fstats
                .record_detect(now.saturating_since(onset).as_secs_f64(), kind);
        }
    }

    fn schedule_ap_wake(&mut self, now: SimTime, i: usize, at: SimTime) {
        let at = at.max(now);
        if at <= SimTime::ZERO + self.cfg.duration && self.aps[i].wake.arm(at) {
            self.queue.schedule(at, Ev::ApWake(i));
        }
    }

    fn ap_wake(&mut self, now: SimTime, i: usize) {
        // Beacons (only while active — an AP beyond the horizon still
        // beacons physically, but nothing can hear it). They skip the
        // `ApEvent` batch, and the shared frame is only cloned for a
        // beacon that becomes an event.
        if self.aps[i].active {
            let airtime = self.aps[i].beacon_airtime;
            while self.aps[i].mac.take_due_beacon(now) {
                if let Some(end) = self.air_to_client(now, i, airtime, true) {
                    let frame = AirFrame::Shared(Arc::clone(self.aps[i].mac.beacon()));
                    self.schedule_air_to_client(end, i, frame);
                }
            }
        }
        // TCP sender timers (run regardless of radio range: the wired
        // side keeps its own clock). Most APs never carry a flow, so the
        // port walk is gated on having any senders at all.
        if !self.aps[i].senders.is_empty() {
            self.poll_ap_senders(now, i);
        }
        // Re-arm.
        let mut next = if self.aps[i].active {
            self.aps[i].mac.next_wakeup()
        } else {
            SimTime::MAX
        };
        #[allow(
            clippy::iter_over_hash_type,
            reason = "commutative min: visit order cannot change it"
        )]
        for (_, s) in self.aps[i].senders.values() {
            next = next.min(s.next_wakeup());
        }
        if next < SimTime::MAX {
            self.schedule_ap_wake(now, i, next);
        }
    }

    /// Run the per-flow TCP sender timers of AP `i` and sweep dead flows.
    fn poll_ap_senders(&mut self, now: SimTime, i: usize) {
        let mut ports = std::mem::take(&mut self.ports_scratch);
        ports.clear();
        ports.extend(self.aps[i].senders.keys().copied());
        // Canonical walk order: sender polls can schedule events, so the
        // sequence must come from the ports themselves, never from the
        // map's iteration order.
        ports.sort_unstable();
        let mut segs = std::mem::take(&mut self.segs_scratch);
        for &port in &ports {
            segs.clear();
            let (ip, sender) = self.aps[i].senders.get_mut(&port).unwrap();
            let client_ip = *ip;
            sender.poll_into(now, &mut segs);
            for &seg in &segs {
                self.backhaul_down_to(now, i, client_ip, seg);
            }
        }
        self.segs_scratch = segs;
        self.ports_scratch = ports;
        let (mut dead_to, mut dead_rx) = (0, 0);
        self.aps[i].senders.retain(|_, (_, s)| {
            if s.state() == TcpSenderState::Dead {
                dead_to += s.timeouts;
                dead_rx += s.retransmits;
                false
            } else {
                true
            }
        });
        self.aps[i].tcp_timeouts += dead_to;
        self.aps[i].tcp_retransmits += dead_rx;
    }

    fn process_actions(&mut self, now: SimTime, actions: &mut Vec<DriverAction>) {
        for action in actions.drain(..) {
            match action {
                DriverAction::Transmit { frame, .. } => {
                    if let Some(ch) = self.radio.listening_on(now) {
                        self.transmit_from_client(now, ch, frame);
                    }
                    // A transmit requested mid-switch is silently dropped:
                    // the hardware queue is held in reset.
                }
                DriverAction::SwitchChannel(ch) => {
                    let done =
                        self.radio
                            .start_switch(now, ch, &PHY, self.client.associated_interfaces());
                    self.queue.schedule(done.max(now), Ev::SwitchDone(ch));
                }
            }
        }
    }

    /// Decide delivery of a unicast frame over a link with raw loss
    /// probability `p`, modelling MAC-layer ARQ: the frame is lost only
    /// if all attempts fail, and the medium pays for the expected number
    /// of transmissions.
    fn unicast_outcome(&mut self, p: f64) -> (bool, f64) {
        let k = self.cfg.mac_retries.max(1);
        let residual = p.powi(k as i32);
        let delivered = !self.rng_loss.chance(residual);
        // Expected transmissions (capped at k): (1 - p^k) / (1 - p).
        let expected_tx = if p >= 1.0 {
            k as f64
        } else {
            ((1.0 - residual) / (1.0 - p)).min(k as f64)
        };
        (delivered, expected_tx)
    }

    fn airtime(&self, frame: &Frame) -> SimDuration {
        match frame.kind() {
            FrameKind::Management | FrameKind::Control => PHY.mgmt_airtime(frame.wire_size()),
            FrameKind::Data => PHY.airtime(frame.wire_size()),
        }
    }

    fn transmit_from_client(&mut self, now: SimTime, ch: Channel, frame: Frame) {
        // A client deauth is the driver declaring the link dead — the
        // moment a fault-detection measurement (if armed) completes.
        if matches!(frame.body, FrameBody::Deauth { .. }) {
            if let Some(&i) = self.bssid_index.get(&frame.dst) {
                self.note_fault_detect(now, i);
            }
        }
        let airtime = self.airtime(&frame);
        let (start, end) = self.medium.reserve(now, ch, airtime);
        let pos = self.client_pos(start);
        let broadcast = frame.dst.is_broadcast();
        // Broadcast candidates come from the spatial grid: anything
        // beyond radio range can neither receive nor consume a loss
        // draw, so querying at `range_m` visits exactly the APs the old
        // full scan would have delivered to, in the same ascending
        // order (the RNG draw sequence is unchanged). One behavioural
        // delta, deliberate: active-but-out-of-range blacked-out APs no
        // longer bump `frames_dropped_blackout` — they could never have
        // received the frame anyway.
        let mut targets = std::mem::take(&mut self.targets_scratch);
        if broadcast {
            self.grid
                .within_into(pos, PROPAGATION.range_m, &mut targets);
            targets.retain(|&i| self.aps[i].active && self.aps[i].channel == ch);
        } else {
            targets.clear();
            if let Some(&i) = self.bssid_index.get(&frame.dst) {
                if self.aps[i].channel == ch {
                    targets.push(i);
                }
            }
        }
        // Broadcast wraps the frame once and each recipient shares it;
        // unicast has exactly one recipient, so the frame rides inline
        // (and a lost frame never touches the heap at all).
        let mut frame = Some(frame);
        let shared: Option<SharedFrame> = if broadcast {
            Some(Arc::new(frame.take().expect("frame unmoved")))
        } else {
            None
        };
        let mut extra_airtime = 0.0f64;
        for &i in &targets {
            if self.findex.blackout(start, i) {
                // A powered-off AP cannot receive.
                self.fstats.frames_dropped_blackout += 1;
                self.note_fault_bite(start, i);
                continue;
            }
            // Squared distance everywhere: the disk test and the flat
            // region of the loss model never need the root.
            let d2 = pos.distance_sq_to(self.aps[i].position);
            if !PROPAGATION.in_range_sq(d2) {
                continue;
            }
            let mut p = self.cfg.loss.loss_probability_sq(d2, PROPAGATION.range_m);
            // Client → AP frames ride the *up* leg: symmetric bursts
            // plus the `up` side of any directional-loss episode.
            let burst = self.findex.extra_loss_up(start, i);
            if burst > 0.0 {
                p = 1.0 - (1.0 - p) * (1.0 - burst);
            }
            let delivered = if broadcast {
                !self.rng_loss.chance(p)
            } else {
                let (ok, expected_tx) = self.unicast_outcome(p);
                extra_airtime += (expected_tx - 1.0).max(0.0);
                ok
            };
            if !delivered {
                if self.findex.asym_active(start, i) {
                    self.fstats.uplink_dropped_asym += 1;
                    self.note_fault_bite(start, i);
                }
                continue;
            }
            let payload = match &shared {
                Some(s) => AirFrame::Shared(Arc::clone(s)),
                None => AirFrame::owned(frame.take().expect("unicast delivers at most once")),
            };
            #[cfg(debug_assertions)]
            {
                self.air.created += 1;
            }
            self.queue.schedule(
                end,
                Ev::AirToAp {
                    ap: i,
                    frame: payload,
                },
            );
        }
        self.targets_scratch = targets;
        if extra_airtime > 0.0 {
            // Retries occupy the medium after the primary transmission.
            self.medium.reserve(end, ch, airtime.mul_f64(extra_airtime));
        }
    }

    fn transmit_from_ap(&mut self, now: SimTime, ap: usize, frame: AirFrame) {
        let airtime = self.airtime(&frame);
        if let Some(end) = self.air_to_client(now, ap, airtime, frame.dst.is_broadcast()) {
            self.schedule_air_to_client(end, ap, frame);
        }
    }

    /// Send one frame of `airtime` from AP `ap` toward the client:
    /// reserve the medium, draw its loss and pay for its retries.
    /// Returns the arrival instant if the frame needs an
    /// [`Ev::AirToClient`]. A frame the radio cannot be listening for
    /// at that instant ([`Radio::may_hear`]) never becomes an event: its
    /// dispatch would drop it without a side effect.
    fn air_to_client(
        &mut self,
        now: SimTime,
        ap: usize,
        airtime: SimDuration,
        broadcast: bool,
    ) -> Option<SimTime> {
        if self.findex.blackout(now, ap) {
            // A powered-off AP transmits nothing (beacons included).
            self.fstats.frames_dropped_blackout += 1;
            return None;
        }
        let ch = self.aps[ap].channel;
        let (start, end) = self.medium.reserve(now, ch, airtime);
        let d2 = self.distance_sq_to_ap(start, ap);
        if !PROPAGATION.in_range_sq(d2) {
            return None;
        }
        let mut p = self.cfg.loss.loss_probability_sq(d2, PROPAGATION.range_m);
        // AP → client frames ride the *down* leg.
        let burst = self.findex.extra_loss_down(start, ap);
        if burst > 0.0 {
            p = 1.0 - (1.0 - p) * (1.0 - burst);
        }
        let (delivered, expected_tx) = if broadcast {
            (!self.rng_loss.chance(p), 1.0)
        } else {
            self.unicast_outcome(p)
        };
        if expected_tx > 1.0 {
            self.medium
                .reserve(end, ch, airtime.mul_f64(expected_tx - 1.0));
        }
        if !delivered {
            if self.findex.asym_active(start, ap) {
                self.fstats.downlink_dropped_asym += 1;
                self.note_fault_bite(start, ap);
            }
            return None;
        }
        #[cfg(debug_assertions)]
        {
            self.air.created += 1;
        }
        if !self.radio.may_hear(now, ch, end, &PHY) {
            #[cfg(debug_assertions)]
            {
                self.air.dropped += 1;
                self.air.elided += 1;
            }
            return None;
        }
        Some(end)
    }

    fn schedule_air_to_client(&mut self, end: SimTime, ap: usize, frame: AirFrame) {
        let channel = self.aps[ap].channel;
        self.queue
            .schedule(end, Ev::AirToClient { frame, channel, ap });
    }

    /// Drain a batch of AP MAC events. Takes the buffer by `&mut` so
    /// hot callers can reuse one scratch `Vec` across batches.
    fn process_ap_events_drain(&mut self, now: SimTime, ap: usize, evs: &mut Vec<ApEvent>) {
        for ev in evs.drain(..) {
            match ev {
                ApEvent::Send(frame) => self.transmit_from_ap(now, ap, frame),
                ApEvent::DeliverUp { from, packet } => self.uplink(now, ap, from, packet),
                ApEvent::ClientAssociated(_) | ApEvent::ClientGone(_) => {}
            }
        }
    }

    /// An uplink packet from an associated client reached the AP's
    /// network side.
    fn uplink(&mut self, now: SimTime, ap: usize, from: MacAddr, packet: Ipv4Packet) {
        if !packet.src.is_unspecified() {
            self.aps[ap].arp.insert(packet.src, from);
        }
        match &packet.payload {
            L4::Dhcp(msg) => {
                if !self.aps[ap].dhcp_responsive {
                    return; // broken AP: DHCP silence
                }
                if self.findex.dhcp_silent(now, ap) {
                    self.fstats.dhcp_dropped_silent += 1;
                    return;
                }
                if self.findex.dhcp_exhausted(now, ap) {
                    // An exhausted pool ignores DISCOVER (nothing to
                    // offer) and NAKs REQUEST/INIT-REBOOT, telling the
                    // client its cached address is no good.
                    match msg.op {
                        DhcpOp::Request => {
                            self.fstats.dhcp_naks_exhausted += 1;
                            let gateway = self.aps[ap].dhcp.config().gateway;
                            let nak = DhcpMessage {
                                op: DhcpOp::Nak,
                                xid: msg.xid,
                                chaddr: msg.chaddr,
                                yiaddr: Ipv4Addr::UNSPECIFIED,
                                server_id: gateway,
                                lease: SimDuration::ZERO,
                            };
                            let dst_mac = msg.chaddr;
                            let reply = Ipv4Packet {
                                src: gateway,
                                dst: packet.src,
                                payload: L4::Dhcp(nak),
                            };
                            self.queue.schedule(
                                now + SimDuration::from_millis(1),
                                Ev::Downlink {
                                    ap,
                                    dst: dst_mac,
                                    packet: Box::new(reply),
                                    bufferable: self.cfg.psm_buffers_join_traffic,
                                },
                            );
                        }
                        _ => self.fstats.dhcp_dropped_silent += 1,
                    }
                    return;
                }
                let responses = self.aps[ap].dhcp.on_message(now, msg);
                for ds in responses {
                    if ds.msg.op == DhcpOp::Ack {
                        self.aps[ap].arp.insert(ds.msg.yiaddr, ds.msg.chaddr);
                    }
                    let gateway = self.aps[ap].dhcp.config().gateway;
                    let dst_mac = ds.msg.chaddr;
                    let reply = Ipv4Packet {
                        src: gateway,
                        dst: ds.msg.yiaddr,
                        payload: L4::Dhcp(ds.msg),
                    };
                    self.queue.schedule(
                        ds.at.max(now),
                        Ev::Downlink {
                            ap,
                            dst: dst_mac,
                            packet: Box::new(reply),
                            // Join traffic is not PSM-buffered (§2,
                            // DESIGN.md) — unless the counterfactual
                            // ablation knob says otherwise.
                            bufferable: self.cfg.psm_buffers_join_traffic,
                        },
                    );
                }
            }
            L4::Icmp(msg) => {
                if self.findex.zombie(now, ap) {
                    // A zombie AP forwards nothing, and its local
                    // gateway stops answering too: every liveness
                    // signal must die so the ping monitor fires.
                    self.fstats.packets_dropped_zombie += 1;
                    self.note_fault_bite(now, ap);
                    return;
                }
                if self.findex.arp_poisoned(now, ap) {
                    // Poisoned gateway mapping: every upstream unicast
                    // rides to the attacker's MAC and dies — including
                    // "gateway" pings, because the poisoned mapping IS
                    // the gateway. Association and DHCP stay green, so
                    // only the end-to-end monitor can notice.
                    self.fstats.frames_blackholed_arp += 1;
                    self.note_fault_bite(now, ap);
                    return;
                }
                if packet.dst == SERVER_IP {
                    if self.findex.captive_portal(now, ap) {
                        // The portal intercepts end-to-end ICMP (the
                        // walled garden answers nothing outside itself)
                        // while the gateway arm below keeps replying —
                        // exactly the trap that defeats the
                        // gateway-ping fallback.
                        self.fstats.packets_hijacked_portal += 1;
                        self.note_fault_bite(now, ap);
                        return;
                    }
                    if self.findex.icmp_filtered(now, ap) {
                        // Filtered gateway: end-to-end pings black-hole,
                        // the gateway itself (below) still answers.
                        self.fstats.icmp_dropped_filtered += 1;
                        return;
                    }
                    if let Some(reply) = msg.reply_to() {
                        let rtt = self.aps[ap].backhaul_latency * 2;
                        let pkt = Ipv4Packet {
                            src: SERVER_IP,
                            dst: packet.src,
                            payload: L4::Icmp(reply),
                        };
                        let dst_mac = from;
                        self.queue.schedule(
                            now + rtt,
                            Ev::Downlink {
                                ap,
                                dst: dst_mac,
                                packet: Box::new(pkt),
                                bufferable: true,
                            },
                        );
                    }
                } else if packet.dst == self.aps[ap].dhcp.config().gateway {
                    // Gateway answers pings locally (Spider falls back to
                    // pinging the gateway when end-to-end ICMP is
                    // filtered, §3.2.2).
                    if let Some(reply) = msg.reply_to() {
                        let pkt = Ipv4Packet {
                            src: packet.dst,
                            dst: packet.src,
                            payload: L4::Icmp(reply),
                        };
                        self.queue.schedule(
                            now + SimDuration::from_micros(500),
                            Ev::Downlink {
                                ap,
                                dst: from,
                                packet: Box::new(pkt),
                                bufferable: true,
                            },
                        );
                    }
                }
            }
            L4::Tcp(_) => {
                if self.findex.zombie(now, ap) {
                    self.fstats.packets_dropped_zombie += 1;
                    self.note_fault_bite(now, ap);
                    return;
                }
                if self.findex.arp_poisoned(now, ap) {
                    self.fstats.frames_blackholed_arp += 1;
                    self.note_fault_bite(now, ap);
                    return;
                }
                if self.findex.captive_portal(now, ap) {
                    // TCP to the outside world lands on the portal's
                    // redirect page: no payload ever comes back.
                    self.fstats.packets_hijacked_portal += 1;
                    self.note_fault_bite(now, ap);
                    return;
                }
                if packet.dst == SERVER_IP {
                    let latency = self.aps[ap].backhaul_latency;
                    self.queue.schedule(
                        now + latency,
                        Ev::ServerRx {
                            ap,
                            packet: Box::new(packet),
                        },
                    );
                }
            }
        }
    }

    /// An uplink TCP segment arrives at the wired server.
    fn server_rx(&mut self, now: SimTime, ap: usize, packet: Ipv4Packet) {
        let L4::Tcp(seg) = &packet.payload else {
            return;
        };
        let client_port = seg.src_port;
        // A fresh SYN replaces any stale sender for this port (a new
        // connection after the client reconnected).
        if seg.flags.syn && !seg.flags.ack {
            let needs_new = self.aps[ap]
                .senders
                .get(&client_port)
                .map(|(_, s)| {
                    s.state() != TcpSenderState::Listen && s.state() != TcpSenderState::SynReceived
                })
                .unwrap_or(true);
            if needs_new {
                let iss = self.aps[ap].iss_rng.next_u64() as u32;
                let sender = TcpSender::new(TcpConfig::default(), SERVER_PORT, client_port, iss);
                self.aps[ap]
                    .senders
                    .insert(client_port, (packet.src, sender));
            }
        }
        let Some((client_ip, sender)) = self.aps[ap].senders.get_mut(&client_port) else {
            return;
        };
        let client_ip = *client_ip;
        let mut out = std::mem::take(&mut self.segs_scratch);
        out.clear();
        sender.on_segment_into(now, seg, &mut out);
        let wake = sender.next_wakeup();
        for &seg_out in &out {
            self.backhaul_down_to(now, ap, client_ip, seg_out);
        }
        self.segs_scratch = out;
        if wake < SimTime::MAX {
            self.schedule_ap_wake(now, ap, wake);
        }
    }

    fn backhaul_down_to(
        &mut self,
        now: SimTime,
        ap: usize,
        client_ip: Ipv4Addr,
        seg: spider_wire::TcpSegment,
    ) {
        let bytes = (seg.wire_size() + Ipv4Packet::HEADER_SIZE) as f64;
        let node = &mut self.aps[ap];
        let free = node.backhaul_free_at.max(now);
        // Drop-tail if the backhaul queue is too deep.
        if free.saturating_since(now) > BACKHAUL_QUEUE_CAP {
            return;
        }
        let tx_done = free + SimDuration::from_secs_f64(bytes / node.backhaul_bps);
        node.backhaul_free_at = tx_done;
        let deliver_at = tx_done + node.backhaul_latency;
        let dst_mac = node.arp.get(&client_ip).copied();
        let Some(dst) = dst_mac else { return };
        let packet = Ipv4Packet {
            src: SERVER_IP,
            dst: client_ip,
            payload: L4::Tcp(seg),
        };
        self.queue.schedule(
            deliver_at,
            Ev::Downlink {
                ap,
                dst,
                packet: Box::new(packet),
                bufferable: true,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{lab_scenario, town_scenario, ScenarioParams};
    use spider_baselines::{StockConfig, StockDriver};
    use spider_core::{OperationMode, SpiderConfig, SpiderDriver};

    fn spider(mode: OperationMode) -> SpiderDriver {
        SpiderDriver::new(SpiderConfig::for_mode(mode, 1))
    }

    #[test]
    fn static_spider_connects_and_downloads() {
        let cfg = lab_scenario(&[Channel::CH1], 250_000.0, SimDuration::from_secs(30), 42);
        let world = World::new(
            cfg,
            spider(OperationMode::SingleChannelMultiAp(Channel::CH1)),
        );
        let result = world.run();
        assert!(!result.join_log.join.is_empty(), "{result}");
        assert!(
            result.bytes > 500_000,
            "expected a real download, got {} bytes",
            result.bytes
        );
        // Backhaul-limited: cannot beat 250 KB/s by much.
        assert!(result.avg_throughput_bps < 300_000.0, "{result}");
        assert!(result.connectivity > 0.5, "{result}");
        assert_eq!(result.aps_encountered, 1);
    }

    #[test]
    fn two_aps_on_one_channel_double_throughput() {
        // Fig. 10's core claim: Spider on two same-channel APs matches
        // two radios, i.e. ~2x the single-AP backhaul-limited rate.
        let backhaul = 125_000.0; // 1 Mb/s each
        let one = World::new(
            lab_scenario(&[Channel::CH1], backhaul, SimDuration::from_secs(30), 7),
            spider(OperationMode::SingleChannelMultiAp(Channel::CH1)),
        )
        .run();
        let two = World::new(
            lab_scenario(
                &[Channel::CH1, Channel::CH1],
                backhaul,
                SimDuration::from_secs(30),
                7,
            ),
            spider(OperationMode::SingleChannelMultiAp(Channel::CH1)),
        )
        .run();
        assert!(
            two.avg_throughput_bps > 1.6 * one.avg_throughput_bps,
            "one: {one}, two: {two}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let mk = || {
            World::new(
                lab_scenario(&[Channel::CH1], 250_000.0, SimDuration::from_secs(20), 5),
                spider(OperationMode::SingleChannelMultiAp(Channel::CH1)),
            )
            .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.switches, b.switches);
        assert_eq!(a.join_log.join.len(), b.join_log.join.len());
    }

    #[test]
    fn stock_driver_connects_in_lab() {
        let cfg = lab_scenario(&[Channel::CH6], 250_000.0, SimDuration::from_secs(40), 9);
        let result = World::new(cfg, StockDriver::new(StockConfig::quickwifi(1))).run();
        assert!(!result.join_log.join.is_empty(), "{result}");
        assert!(result.bytes > 100_000, "{result}");
    }

    #[test]
    fn multichannel_spider_survives_switching() {
        // APs on two channels; the 3-channel rotation must still join
        // and move data on both.
        let cfg = lab_scenario(
            &[Channel::CH1, Channel::CH11],
            250_000.0,
            SimDuration::from_secs(40),
            11,
        );
        let result = World::new(
            cfg,
            spider(OperationMode::MultiChannelMultiAp {
                period: SimDuration::from_millis(600),
            }),
        )
        .run();
        assert!(result.switches > 50, "rotation must switch: {result}");
        assert!(!result.join_log.join.is_empty(), "{result}");
        assert!(result.bytes > 50_000, "{result}");
    }

    #[test]
    fn town_drive_produces_encounters_and_joins() {
        let params = ScenarioParams {
            duration: SimDuration::from_secs(300),
            seed: 3,
            ..Default::default()
        };
        let cfg = town_scenario(&params);
        let result = World::new(
            cfg,
            spider(OperationMode::SingleChannelMultiAp(Channel::CH6)),
        )
        .run();
        assert!(result.aps_encountered > 5, "{result}");
        assert!(!result.join_log.join.is_empty(), "{result}");
        assert!(result.bytes > 0, "{result}");
    }

    /// A client that wakes every 100 ms, except that its first poll
    /// asks for a channel switch whose completion pulls the next wake
    /// in to "now": the wake armed at 100 ms is superseded in the queue.
    #[derive(Clone, Default)]
    struct RearmingClient {
        next: SimTime,
        switched: bool,
        /// `(instant, whether that instant was the armed wake)` per poll.
        polls: Vec<(SimTime, bool)>,
        log: spider_mac80211::JoinLog,
    }

    impl ClientSystem for RearmingClient {
        fn label(&self) -> String {
            "rearming".into()
        }
        fn on_frame_into(&mut self, _: SimTime, _: &RxFrame<'_>, _: &mut Vec<DriverAction>) {}
        fn on_switch_complete_into(&mut self, now: SimTime, _: Channel, _: &mut Vec<DriverAction>) {
            self.next = now;
        }
        fn poll_into(&mut self, now: SimTime, out: &mut Vec<DriverAction>) {
            self.polls.push((now, now == self.next));
            if !self.switched {
                self.switched = true;
                out.push(DriverAction::SwitchChannel(Channel::CH6));
            }
            self.next = now + SimDuration::from_millis(100);
        }
        fn next_wakeup(&self, _: SimTime) -> SimTime {
            self.next
        }
        fn join_log(&self) -> &spider_mac80211::JoinLog {
            &self.log
        }
        fn is_connected(&self) -> bool {
            false
        }
        fn delivered_bytes(&self) -> u64 {
            0
        }
        fn initial_channel(&self) -> Channel {
            Channel::CH1
        }
        fn clone_boxed(&self) -> Box<dyn ClientSystem + Send> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn superseded_wakes_are_dropped_undispatched() {
        let cfg = WorldConfig::new(
            MobilityModel::Static(Position::ORIGIN),
            Deployment::lab(Vec::new(), 250_000.0),
            SimDuration::from_secs(2),
            1,
        );
        let (result, client) = World::new(cfg, RearmingClient::default()).finish();
        assert_eq!(result.switches, 1);
        // Every poll came at the instant the client armed, once each:
        // the superseded 100 ms wake neither polled early nor started a
        // second wake chain.
        let polls = &client.polls;
        assert!(polls.iter().all(|&(_, armed)| armed), "{polls:?}");
        // t = 0, the switch completion, then every 100 ms to the end.
        let switch_at = polls[1].0;
        assert!(switch_at > SimTime::ZERO && switch_at < SimTime::from_millis(100));
        let periodic = SimTime::from_secs(2)
            .saturating_since(switch_at)
            .as_micros()
            / 100_000;
        assert_eq!(polls.len() as u64, 2 + periodic, "{polls:?}");
    }

    /// Spider's 1/6/11 rotation in a lab with APs on channels 1 and 11:
    /// frames sent while the radio is provably elsewhere are elided at
    /// creation, and the run-end audit in `finish` still balances the
    /// ledger.
    #[cfg(debug_assertions)]
    #[test]
    fn off_channel_deliveries_are_elided_and_the_ledger_balances() {
        let cfg = lab_scenario(
            &[Channel::CH1, Channel::CH11],
            250_000.0,
            SimDuration::from_secs(40),
            11,
        );
        let mut world = World::new(
            cfg,
            spider(OperationMode::MultiChannelMultiAp {
                period: SimDuration::from_millis(600),
            }),
        );
        world.run_until(SimTime::from_secs(40));
        let air = world.air.clone();
        assert!(air.elided > 100, "{air:?}");
        // Frames that may be heard are still scheduled, and some of them
        // meet a radio that switched away in the meantime.
        assert!(air.delivered > 1_000 && air.dropped > air.elided, "{air:?}");
        let result = world.run();
        assert!(
            !result.join_log.join.is_empty() && result.bytes > 50_000,
            "{result}"
        );
    }
}

#[cfg(test)]
mod capture_tests {
    use super::*;
    use crate::capture::Direction;
    use crate::scenarios::lab_scenario;
    use spider_core::{OperationMode, SpiderConfig, SpiderDriver};
    use spider_wire::FrameBody;

    fn lab(capture: Option<u64>) -> World<SpiderDriver> {
        let mut cfg = lab_scenario(&[Channel::CH1], 250_000.0, SimDuration::from_secs(5), 3);
        cfg.capture = capture;
        let driver = SpiderDriver::new(SpiderConfig::for_mode(
            OperationMode::SingleChannelMultiAp(Channel::CH1),
            1,
        ));
        World::new(cfg, driver)
    }

    #[test]
    fn world_capture_records_a_join_in_order() {
        let mut world = lab(Some(5_000));
        world.run_until(SimTime::from_secs(5));
        let records = world.captured().to_vec();
        assert!(world.run().bytes > 0);

        assert!(records.len() > 20, "{} records", records.len());
        // Timestamps are non-decreasing.
        assert!(records.windows(2).all(|w| w[0].at <= w[1].at));
        // The join handshake appears, in protocol order, before data.
        let pos =
            |pred: &dyn Fn(&FrameBody) -> bool| records.iter().position(|r| pred(&r.frame.body));
        let auth_req = pos(&|b| matches!(b, FrameBody::AuthRequest)).expect("auth req");
        let auth_resp = pos(&|b| matches!(b, FrameBody::AuthResponse { .. })).expect("auth resp");
        let assoc_resp =
            pos(&|b| matches!(b, FrameBody::AssocResponse { .. })).expect("assoc resp");
        let data = pos(&|b| matches!(b, FrameBody::Data { .. })).expect("data");
        assert!(auth_req < auth_resp && auth_resp < assoc_resp && assoc_resp < data);
        // Both directions occur.
        assert!(records.iter().any(|r| r.direction == Direction::ToClient));
        assert!(records.iter().any(|r| r.direction == Direction::ToAp));
    }

    #[test]
    fn forked_capture_equals_the_cold_capture() {
        let end = SimTime::from_secs(5);
        let mut cold = lab(Some(u64::MAX));
        cold.run_until(end);

        let mut parent = lab(Some(u64::MAX));
        parent.run_until(SimTime::from_millis(2_500));
        let mid = parent.captured().len();
        assert!(mid > 0, "the fork point is past the first frames");
        let mut fork = parent.fork();
        fork.run_until(end);

        assert!(fork.captured().len() > mid, "the fork kept capturing");
        assert_eq!(fork.captured(), cold.captured());
    }

    #[test]
    fn capture_honours_the_frame_cap() {
        let mut full = lab(Some(u64::MAX));
        full.run_until(SimTime::from_secs(5));
        assert!(full.captured().len() > 40);

        let mut capped = lab(Some(40));
        capped.run_until(SimTime::from_secs(5));
        assert_eq!(capped.captured(), &full.captured()[..40]);

        let mut off = lab(None);
        off.run_until(SimTime::from_secs(5));
        assert!(off.captured().is_empty());
    }
}

#[cfg(test)]
mod fault_injection_tests {
    use super::*;
    use crate::scenarios::{lab_scenario, town_scenario, ScenarioParams};
    use spider_core::{OperationMode, SpiderConfig, SpiderDriver};
    use spider_radio::LossModel;

    fn spider_ch1() -> SpiderDriver {
        SpiderDriver::new(SpiderConfig::for_mode(
            OperationMode::SingleChannelMultiAp(Channel::CH1),
            1,
        ))
    }

    #[test]
    fn total_loss_means_no_joins_and_no_data() {
        let mut cfg = lab_scenario(&[Channel::CH1], 250_000.0, SimDuration::from_secs(20), 4);
        cfg.loss = LossModel::Bernoulli { h: 1.0 };
        let result = World::new(cfg, spider_ch1()).run();
        assert_eq!(result.join_log.assoc.len(), 0);
        assert_eq!(result.bytes, 0);
        assert_eq!(result.connectivity, 0.0);
    }

    #[test]
    fn heavy_loss_still_makes_some_progress_with_mac_arq() {
        let mut cfg = lab_scenario(&[Channel::CH1], 250_000.0, SimDuration::from_secs(30), 4);
        cfg.loss = LossModel::Bernoulli { h: 0.30 };
        let result = World::new(cfg, spider_ch1()).run();
        // 30% raw loss with 4 ARQ attempts = 0.8% residual: joins and
        // data must still flow.
        assert!(!result.join_log.join.is_empty(), "{result}");
        assert!(result.bytes > 100_000, "{result}");
    }

    #[test]
    fn single_arq_attempt_restores_raw_loss_pain() {
        let mk = |retries: u32| {
            let mut cfg = lab_scenario(&[Channel::CH1], 500_000.0, SimDuration::from_secs(30), 4);
            cfg.loss = LossModel::Bernoulli { h: 0.10 };
            cfg.mac_retries = retries;
            World::new(cfg, spider_ch1()).run()
        };
        let with_arq = mk(4);
        let without = mk(1);
        assert!(
            with_arq.avg_throughput_bps > 1.5 * without.avg_throughput_bps,
            "ARQ {with_arq}; raw {without}"
        );
    }

    #[test]
    fn empty_deployment_is_silence_not_panic() {
        let mut params = ScenarioParams {
            duration: SimDuration::from_secs(60),
            seed: 5,
            density_per_km: 15.0,
            ..Default::default()
        };
        params.density_per_km = 0.0001; // effectively no APs
        let cfg = town_scenario(&params);
        let result = World::new(cfg, spider_ch1()).run();
        assert_eq!(result.bytes, 0);
        assert_eq!(result.aps_encountered, 0);
    }

    #[test]
    fn out_of_range_aps_are_never_heard() {
        // One AP 500m from a static client.
        let deployment = spider_mobility::Deployment::lab(
            vec![(Position::new(500.0, 0.0), Channel::CH1)],
            250_000.0,
        );
        let cfg = WorldConfig::new(
            MobilityModel::Static(Position::ORIGIN),
            deployment,
            SimDuration::from_secs(20),
            6,
        );
        let result = World::new(cfg, spider_ch1()).run();
        assert_eq!(result.aps_encountered, 0);
        assert_eq!(result.join_log.assoc.len(), 0);
    }
}
