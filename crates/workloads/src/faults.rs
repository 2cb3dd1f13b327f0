//! Fault injection for the vehicular world.
//!
//! Real open-AP deployments fail in ways distance-based loss cannot
//! model: APs power-cycle, forward nothing while still beaconing, run
//! out of DHCP addresses, or filter end-to-end ICMP. Spider's recovery
//! machinery (the §3.2.2 ping monitor, the gateway-ping fallback, lease
//! caching and re-scan) exists for exactly these conditions, so the
//! world needs a way to produce them on demand.
//!
//! A [`FaultPlan`] is a set of [`FaultEpisode`]s — per-AP (or global)
//! time windows during which one [`FaultKind`] is active. Plans are
//! either scripted (tests, examples) or generated stochastically from a
//! seed ([`FaultPlan::stormy`]), so a faulty run
//! remains a pure function of `(WorldConfig, FaultPlan)` like everything
//! else in the simulator. The world consults the plan, through a
//! per-AP [`FaultIndex`], on every AP, DHCP, and medium interaction and
//! attributes the damage in [`FaultStats`].

use spider_simcore::{Json, SimDuration, SimRng, SimTime};

/// One class of injected failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Full AP power loss: no beacons, no responses, no reception.
    /// When the episode ends the AP reboots with empty association
    /// state (clients must re-join from scratch).
    Blackout,
    /// "Zombie" AP: beacons, association and DHCP all work, but the AP
    /// forwards nothing — the exact failure the end-to-end ping monitor
    /// (§3.2.2) exists to catch. The local gateway stops answering
    /// pings too, so even the gateway fallback sees a dead link.
    Zombie,
    /// The DHCP server stops answering (common "AP up, DHCP wedged"
    /// failure; joins stall in the DHCP phase and time out).
    DhcpSilence,
    /// DHCP address-pool exhaustion: DISCOVER is ignored, REQUEST is
    /// answered with a NAK — exercising lease-cache invalidation.
    DhcpExhausted,
    /// The gateway filters end-to-end ICMP: pings to the wired sink are
    /// black-holed while the gateway itself still answers, forcing the
    /// client onto the gateway-ping fallback (§3.2.2).
    IcmpBlackhole,
    /// A burst of extra channel loss (interference episode) layered on
    /// top of the distance-based [`spider_radio::LossModel`].
    LossBurst {
        /// Additional independent loss probability in `[0, 1]`.
        extra: f64,
    },
    /// The gateway's ARP mapping is hijacked for the episode:
    /// association and DHCP still succeed (the attacker leaves the
    /// control plane alone), but the client's upstream unicast frames
    /// are delivered to a black-hole MAC. Link state looks perfect —
    /// only the end-to-end ping monitor (§3.2.2) sees the dead data
    /// plane, and recovery requires re-resolving the gateway.
    ArpPoison,
    /// A captive portal: DHCP answers normally and the portal
    /// impersonates the gateway (gateway pings are answered), but
    /// end-to-end traffic is hijacked until the client "authenticates"
    /// — which scripted clients never do. This defeats the gateway-ping
    /// fallback exactly where it lies: the link looks alive while zero
    /// payload gets through.
    CaptivePortal,
    /// Directional extra loss on the medium. Uplink loss starves the
    /// AP of ACKs and pings; downlink loss fades replies and payload —
    /// different recovery problems that the symmetric [`LossBurst`]
    /// cannot distinguish.
    ///
    /// [`LossBurst`]: FaultKind::LossBurst
    AsymmetricLoss {
        /// Extra independent loss probability on client → AP frames.
        up: f64,
        /// Extra independent loss probability on AP → client frames.
        down: f64,
    },
}

/// One fault episode: a kind, a target, and a time window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEpisode {
    /// Target AP index, or `None` for every AP (area-wide event).
    pub ap: Option<usize>,
    /// What fails.
    pub kind: FaultKind,
    /// Episode start (inclusive).
    pub start: SimTime,
    /// Episode end (exclusive).
    pub end: SimTime,
}

impl FaultKind {
    /// Stable artifact label for this class (the JSON `kind` field and
    /// the SLO table's row key).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Blackout => "blackout",
            FaultKind::Zombie => "zombie",
            FaultKind::DhcpSilence => "dhcp-silence",
            FaultKind::DhcpExhausted => "dhcp-exhausted",
            FaultKind::IcmpBlackhole => "icmp-blackhole",
            FaultKind::LossBurst { .. } => "loss-burst",
            FaultKind::ArpPoison => "arp-poison",
            FaultKind::CaptivePortal => "captive-portal",
            FaultKind::AsymmetricLoss { .. } => "asymmetric-loss",
        }
    }

    /// Serialize to the artifact JSON form.
    pub fn to_json(&self) -> Json {
        match self {
            FaultKind::LossBurst { extra } => Json::obj([
                ("kind", Json::str(self.label())),
                ("extra", Json::Num(*extra)),
            ]),
            FaultKind::AsymmetricLoss { up, down } => Json::obj([
                ("kind", Json::str(self.label())),
                ("up", Json::Num(*up)),
                ("down", Json::Num(*down)),
            ]),
            _ => Json::obj([("kind", Json::str(self.label()))]),
        }
    }

    /// Parse the artifact JSON form back. `None` on unknown labels or
    /// missing fields — replay must fail loudly, not guess.
    pub fn from_json(v: &Json) -> Option<FaultKind> {
        match v.get("kind")?.as_str()? {
            "blackout" => Some(FaultKind::Blackout),
            "zombie" => Some(FaultKind::Zombie),
            "dhcp-silence" => Some(FaultKind::DhcpSilence),
            "dhcp-exhausted" => Some(FaultKind::DhcpExhausted),
            "icmp-blackhole" => Some(FaultKind::IcmpBlackhole),
            "loss-burst" => Some(FaultKind::LossBurst {
                extra: v.get("extra")?.as_f64()?,
            }),
            "arp-poison" => Some(FaultKind::ArpPoison),
            "captive-portal" => Some(FaultKind::CaptivePortal),
            "asymmetric-loss" => Some(FaultKind::AsymmetricLoss {
                up: v.get("up")?.as_f64()?,
                down: v.get("down")?.as_f64()?,
            }),
            _ => None,
        }
    }
}

impl FaultEpisode {
    /// Does this episode cover `(now, ap)`?
    fn applies(&self, now: SimTime, ap: usize) -> bool {
        self.ap.map(|a| a == ap).unwrap_or(true) && self.start <= now && now < self.end
    }

    /// Serialize to the artifact JSON form. Times are integer
    /// microseconds, so replay is exact by construction.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![(
            "ap".to_string(),
            match self.ap {
                Some(i) => Json::UInt(i as u64),
                None => Json::Null,
            },
        )];
        if let Json::Obj(kind_pairs) = self.kind.to_json() {
            pairs.extend(kind_pairs);
        }
        pairs.push(("start_us".to_string(), Json::UInt(self.start.as_micros())));
        pairs.push(("end_us".to_string(), Json::UInt(self.end.as_micros())));
        Json::Obj(pairs)
    }

    /// Parse the artifact JSON form back.
    pub fn from_json(v: &Json) -> Option<FaultEpisode> {
        let ap = match v.get("ap")? {
            Json::Null => None,
            j => Some(j.as_u64()? as usize),
        };
        Some(FaultEpisode {
            ap,
            kind: FaultKind::from_json(v)?,
            start: SimTime::from_micros(v.get("start_us")?.as_u64()?),
            end: SimTime::from_micros(v.get("end_us")?.as_u64()?),
        })
    }
}

/// A complete fault schedule for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// All episodes, in no particular order.
    pub episodes: Vec<FaultEpisode>,
}

impl FaultPlan {
    /// No faults (the default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A scripted plan (tests and examples).
    ///
    /// Zero-length windows are dropped at construction: `applies` treats
    /// `start == end` as empty, but an episode kept in the list would
    /// still count toward `episodes` accounting (and the shrinker's
    /// window-narrowing phase can emit such husks). Replay paths parse
    /// with [`FaultPlan::from_json`], which is exact and does not
    /// normalize.
    pub fn scripted(mut episodes: Vec<FaultEpisode>) -> FaultPlan {
        episodes.retain(|e| e.start < e.end);
        FaultPlan { episodes }
    }

    /// Generate a hostile plan for chaos testing: frequent long
    /// outages, widespread ICMP filtering, heavy interference bursts.
    /// For each AP and each fault class, episodes arrive as a Poisson
    /// process (exponential inter-arrivals) at the class's rate, with
    /// uniform durations. Pure function of `(seed, num_aps, duration)`;
    /// the seed is streamed per class and AP, so each class draws
    /// independently of the others.
    pub fn stormy(seed: u64, num_aps: usize, duration: SimDuration) -> FaultPlan {
        let root = SimRng::new(seed);
        let horizon = duration.as_secs_f64();
        let mut episodes = Vec::new();
        // (stream label, episodes per AP-hour, duration bounds in seconds)
        let classes: [(&str, f64, (f64, f64)); 5] = [
            ("blackout", 6.0, (20.0, 180.0)),
            ("zombie", 6.0, (30.0, 300.0)),
            ("dhcp-silence", 4.0, (20.0, 120.0)),
            ("dhcp-exhausted", 3.0, (30.0, 180.0)),
            ("loss-burst", 10.0, (2.0, 20.0)),
        ];
        for ap in 0..num_aps {
            for (label, per_hour, (lo, hi)) in classes {
                // The label is interpolated from a fixed literal table
                // directly above, so the full set ("fault-assoc-flap",
                // "fault-dhcp-outage", ...) is still auditable; rewriting
                // this as per-class literal calls would change nothing
                // semantically but re-deriving the streams differently
                // would break byte-identity of every recorded corpus.
                // lint:allow(stream-label)
                let mut rng = root
                    .stream(&format!("fault-{label}"))
                    .stream_indexed("ap", ap as u64);
                let mean_gap = 3600.0 / per_hour;
                let mut t = rng.exponential(mean_gap);
                while t < horizon {
                    let dur = rng.uniform_in(lo, hi);
                    let kind = match label {
                        "blackout" => FaultKind::Blackout,
                        "zombie" => FaultKind::Zombie,
                        "dhcp-silence" => FaultKind::DhcpSilence,
                        "dhcp-exhausted" => FaultKind::DhcpExhausted,
                        _ => FaultKind::LossBurst {
                            extra: rng.uniform_in(0.2, 0.6),
                        },
                    };
                    episodes.push(FaultEpisode {
                        ap: Some(ap),
                        kind,
                        start: SimTime::ZERO + SimDuration::from_secs_f64(t),
                        end: SimTime::ZERO + SimDuration::from_secs_f64((t + dur).min(horizon)),
                    });
                    t += dur + rng.exponential(mean_gap);
                }
            }
            // ICMP filtering is a property of the gateway, not an
            // episode: a quarter of the gateways filter for the whole run.
            let mut rng = root.stream("fault-icmp").stream_indexed("ap", ap as u64);
            if rng.chance(0.25) {
                episodes.push(FaultEpisode {
                    ap: Some(ap),
                    kind: FaultKind::IcmpBlackhole,
                    start: SimTime::ZERO,
                    end: SimTime::ZERO + duration,
                });
            }
        }
        FaultPlan { episodes }
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// Earliest instant at which this plan's observable behaviour can
    /// differ from `other`'s, or `None` if the plans are identical.
    ///
    /// This is the checkpoint boundary for prefix-sharing (DESIGN.md
    /// §13): a world advanced under one plan to any time strictly
    /// before the divergence point is bit-identical to the same world
    /// advanced under the other, so a shrink candidate can fork from a
    /// reference checkpoint instead of re-simulating t=0..divergence.
    ///
    /// The bound is conservative (never later than the true divergence,
    /// sometimes earlier). Episodes common to both plans are matched
    /// greedily *in order* — detect-time attribution breaks onset ties
    /// in plan order, so a reordered pair of equal-start episodes must
    /// count as divergent even though the drop pattern is identical.
    /// Of the unmatched leftovers, a pair differing only in `end`
    /// diverges at the earlier `end` (behaviour agrees while both are
    /// active — the window-narrowing shrink phase leans on this) unless
    /// another episode shares the pair's `start` (a reorder among
    /// equal-start episodes can masquerade as an end trim, so the pair
    /// falls back to `start`); any other leftover diverges at its
    /// `start`.
    pub fn first_divergence(&self, other: &FaultPlan) -> Option<SimTime> {
        // Order-preserving greedy match of exactly-equal episodes; the
        // matched pairs form a common subsequence of both plans, so any
        // reordering lands in the leftovers.
        let mut consumed = vec![false; other.episodes.len()];
        let mut ptr = 0usize;
        let mut mine: Vec<&FaultEpisode> = Vec::new();
        for e in &self.episodes {
            match other.episodes[ptr..].iter().position(|o| o == e) {
                Some(off) => {
                    consumed[ptr + off] = true;
                    ptr += off + 1;
                }
                None => mine.push(e),
            }
        }
        let mut theirs: Vec<&FaultEpisode> = other
            .episodes
            .iter()
            .zip(&consumed)
            .filter(|(_, c)| !**c)
            .map(|(o, _)| o)
            .collect();
        let mut div: Option<SimTime> = None;
        let mut note = |t: SimTime| div = Some(div.map_or(t, |d: SimTime| d.min(t)));
        let start_shared = |s: SimTime| {
            self.episodes.iter().filter(|x| x.start == s).count() > 1
                || other.episodes.iter().filter(|x| x.start == s).count() > 1
        };
        for e in mine {
            match theirs
                .iter()
                .position(|o| o.ap == e.ap && o.kind == e.kind && o.start == e.start)
            {
                Some(i) => {
                    if start_shared(e.start) {
                        note(e.start);
                    } else {
                        note(e.end.min(theirs[i].end));
                    }
                    theirs.remove(i);
                }
                None => note(e.start),
            }
        }
        for o in theirs {
            note(o.start);
        }
        div
    }

    /// Divergence instant for prefix-sharing schedulers: like
    /// [`FaultPlan::first_divergence`], but with "behaviorally
    /// identical" (`None`) collapsed to [`SimTime::MAX`], so candidate
    /// checkpoints can be ranked on one total order — a later
    /// divergence means a deeper shareable prefix (DESIGN.md §13).
    pub fn divergence_rank(&self, other: &FaultPlan) -> SimTime {
        self.first_divergence(other).unwrap_or(SimTime::MAX)
    }

    /// Serialize to the artifact JSON form (replays exactly:
    /// microsecond times, shortest-round-trip floats).
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "episodes",
            Json::arr(self.episodes.iter().map(FaultEpisode::to_json)),
        )])
    }

    /// Parse the artifact JSON form back. `None` if any episode is
    /// malformed.
    pub fn from_json(v: &Json) -> Option<FaultPlan> {
        let episodes = v
            .get("episodes")?
            .as_arr()?
            .iter()
            .map(FaultEpisode::from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(FaultPlan { episodes })
    }
}

/// Which leg of the link a directional-loss query asks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Up,
    Down,
}

/// A per-AP query index over a [`FaultPlan`].
///
/// The plan keeps every episode in one flat list, so each
/// `blackout(now, ap)`-style query costs O(all episodes across all
/// APs) — a stormy dense deployment carries tens of thousands, and the
/// world asks on every frame. The index buckets episodes by target AP
/// once at world construction so a query touches only that AP's own
/// handful; global (`ap: None`) episodes are replicated into every
/// bucket, preserving the flat list's relative episode order so
/// floating-point loss compositions and onset tie-breaks are the same
/// as a scan of the flat list. This is the only fault query path.
#[derive(Debug, Clone, Default)]
pub struct FaultIndex {
    per_ap: Vec<Vec<FaultEpisode>>,
    /// Ascending AP indices with at least one episode — the only APs a
    /// periodic fault sweep needs to visit.
    faulty: Vec<usize>,
    empty: bool,
}

impl FaultIndex {
    /// Bucket `plan`'s episodes for a world with `num_aps` APs.
    pub fn build(plan: &FaultPlan, num_aps: usize) -> FaultIndex {
        let mut per_ap: Vec<Vec<FaultEpisode>> = vec![Vec::new(); num_aps];
        for e in &plan.episodes {
            match e.ap {
                Some(i) => {
                    if i < num_aps {
                        per_ap[i].push(*e);
                    }
                }
                None => {
                    for bucket in per_ap.iter_mut() {
                        bucket.push(*e);
                    }
                }
            }
        }
        let faulty = (0..num_aps).filter(|&i| !per_ap[i].is_empty()).collect();
        FaultIndex {
            per_ap,
            faulty,
            empty: plan.is_empty(),
        }
    }

    /// True if the underlying plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// Ascending indices of APs with at least one episode.
    pub fn faulty_aps(&self) -> &[usize] {
        &self.faulty
    }

    fn episodes_for(&self, ap: usize) -> &[FaultEpisode] {
        self.per_ap.get(ap).map(Vec::as_slice).unwrap_or(&[])
    }

    fn active(&self, now: SimTime, ap: usize, pred: impl Fn(FaultKind) -> bool) -> bool {
        self.episodes_for(ap)
            .iter()
            .any(|e| pred(e.kind) && e.applies(now, ap))
    }

    /// Is `ap` fully blacked out at `now`?
    pub fn blackout(&self, now: SimTime, ap: usize) -> bool {
        self.active(now, ap, |k| k == FaultKind::Blackout)
    }

    /// Is `ap` a zombie (associates but forwards nothing) at `now`?
    pub fn zombie(&self, now: SimTime, ap: usize) -> bool {
        self.active(now, ap, |k| k == FaultKind::Zombie)
    }

    /// Is `ap`'s DHCP server silent at `now`?
    pub fn dhcp_silent(&self, now: SimTime, ap: usize) -> bool {
        self.active(now, ap, |k| k == FaultKind::DhcpSilence)
    }

    /// Is `ap`'s DHCP pool exhausted at `now`?
    pub fn dhcp_exhausted(&self, now: SimTime, ap: usize) -> bool {
        self.active(now, ap, |k| k == FaultKind::DhcpExhausted)
    }

    /// Does `ap`'s gateway filter end-to-end ICMP at `now`?
    pub fn icmp_filtered(&self, now: SimTime, ap: usize) -> bool {
        self.active(now, ap, |k| k == FaultKind::IcmpBlackhole)
    }

    /// Is `ap`'s gateway ARP mapping hijacked at `now`?
    pub fn arp_poisoned(&self, now: SimTime, ap: usize) -> bool {
        self.active(now, ap, |k| k == FaultKind::ArpPoison)
    }

    /// Is `ap` fronted by a captive portal at `now`?
    pub fn captive_portal(&self, now: SimTime, ap: usize) -> bool {
        self.active(now, ap, |k| k == FaultKind::CaptivePortal)
    }

    /// Is any directional-loss episode active on `ap` at `now`?
    pub fn asym_active(&self, now: SimTime, ap: usize) -> bool {
        self.active(now, ap, |k| matches!(k, FaultKind::AsymmetricLoss { .. }))
    }

    /// Combined extra loss on client → AP frames at `now` (symmetric
    /// bursts plus the `up` leg of directional episodes).
    pub fn extra_loss_up(&self, now: SimTime, ap: usize) -> f64 {
        self.extra_loss(now, ap, Direction::Up)
    }

    /// Combined extra loss on AP → client frames at `now` (symmetric
    /// bursts plus the `down` leg of directional episodes).
    pub fn extra_loss_down(&self, now: SimTime, ap: usize) -> f64 {
        self.extra_loss(now, ap, Direction::Down)
    }

    /// Independent loss episodes compose as `1 - Π(1 - extra_i)`, in
    /// plan order: [`FaultKind::LossBurst`] on both legs, and the
    /// matching leg of [`FaultKind::AsymmetricLoss`].
    fn extra_loss(&self, now: SimTime, ap: usize, dir: Direction) -> f64 {
        let mut pass = 1.0f64;
        for e in self.episodes_for(ap) {
            let extra = match (e.kind, dir) {
                (FaultKind::LossBurst { extra }, _) => extra,
                (FaultKind::AsymmetricLoss { up, .. }, Direction::Up) => up,
                (FaultKind::AsymmetricLoss { down, .. }, Direction::Down) => down,
                _ => continue,
            };
            if e.applies(now, ap) {
                pass *= 1.0 - extra.clamp(0.0, 1.0);
            }
        }
        1.0 - pass
    }

    /// If a data-plane fault covers `(now, ap)`, the start and class of
    /// the earliest-starting covering episode — the reference point for
    /// time-to-detect measurement and the attribution key for per-class
    /// SLO budgets. Ties on `start` break toward the earlier episode in
    /// plan order (the buckets preserve it).
    ///
    /// Data-plane means the payload path is degraded while (for most
    /// classes) the control plane still looks fine: blackouts and
    /// zombies, plus the adversarial classes — ARP poison, captive
    /// portals, and directional loss. Control-plane DHCP faults and
    /// [`FaultKind::IcmpBlackhole`] (survivable via the gateway
    /// fallback) never arm a detection measurement.
    pub fn data_fault_at(&self, now: SimTime, ap: usize) -> Option<(SimTime, FaultKind)> {
        self.episodes_for(ap)
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FaultKind::Blackout
                        | FaultKind::Zombie
                        | FaultKind::ArpPoison
                        | FaultKind::CaptivePortal
                        | FaultKind::AsymmetricLoss { .. }
                ) && e.applies(now, ap)
            })
            .map(|e| (e.start, e.kind))
            .min_by_key(|(start, _)| *start)
    }
}

/// Fault-attribution counters accumulated by the world during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Frames (either direction) suppressed by AP blackouts.
    pub frames_dropped_blackout: u64,
    /// Uplink packets black-holed by zombie APs.
    pub packets_dropped_zombie: u64,
    /// DHCP requests ignored by silent DHCP servers.
    pub dhcp_dropped_silent: u64,
    /// NAKs synthesized for exhausted DHCP pools.
    pub dhcp_naks_exhausted: u64,
    /// End-to-end pings black-holed by ICMP-filtering gateways.
    pub icmp_dropped_filtered: u64,
    /// Upstream data-plane frames delivered to a hijacked (black-hole)
    /// gateway MAC during ARP-poison episodes.
    pub frames_blackholed_arp: u64,
    /// End-to-end packets intercepted by captive portals (gateway
    /// pings are answered; everything else is hijacked).
    pub packets_hijacked_portal: u64,
    /// Client → AP frames dropped while a directional-loss episode was
    /// active on the link.
    pub uplink_dropped_asym: u64,
    /// AP → client frames dropped while a directional-loss episode was
    /// active on the link.
    pub downlink_dropped_asym: u64,
    /// AP reboots performed at the end of blackout episodes.
    pub ap_reboots: u64,
    /// Time from data-plane fault onset to the client tearing the link
    /// down (deauth), seconds — the ping monitor's detection latency.
    pub detect_times_s: Vec<f64>,
    /// Fault class behind each detection, parallel to
    /// `detect_times_s` (always a data-plane class — blackout, zombie,
    /// ARP poison, captive portal, or asymmetric loss; only data-plane
    /// faults arm detection measurements). The attribution key for
    /// per-class SLO budgets.
    pub detect_kinds: Vec<FaultKind>,
    /// Time from a fault-coincident connectivity loss to the next
    /// restored connectivity, seconds, counting only spans with a
    /// *usable* candidate AP in radio range — in range **and** on a
    /// channel the client's configuration visits: a mobile client
    /// driving through a coverage gap is not "failing to recover", it
    /// has nothing to recover *to*, and an AP on a channel the client
    /// never tunes to is no more reachable than one beyond the radio
    /// horizon. The outage only opens when the faulted AP was both in
    /// range and on a usable channel to begin with.
    pub recover_times_s: Vec<f64>,
}

impl FaultStats {
    /// Record one detection latency attributed to `kind`.
    pub fn record_detect(&mut self, seconds: f64, kind: FaultKind) {
        self.detect_times_s.push(seconds);
        self.detect_kinds.push(kind);
    }

    /// Detection latencies attributed to fault class `label`
    /// (see [`FaultKind::label`]), in recording order.
    pub fn detect_times_for<'a>(&'a self, label: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.detect_times_s
            .iter()
            .zip(&self.detect_kinds)
            .filter(move |(_, k)| k.label() == label)
            .map(|(&t, _)| t)
    }

    /// Worst detection latency in seconds, if any.
    pub fn max_detect_s(&self) -> Option<f64> {
        self.detect_times_s.iter().copied().reduce(f64::max)
    }

    /// Worst recovery latency in seconds, if any.
    pub fn max_recover_s(&self) -> Option<f64> {
        self.recover_times_s.iter().copied().reduce(f64::max)
    }

    /// Serialize the counters and timing samples for artifacts.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "frames_dropped_blackout",
                Json::UInt(self.frames_dropped_blackout),
            ),
            (
                "packets_dropped_zombie",
                Json::UInt(self.packets_dropped_zombie),
            ),
            ("dhcp_dropped_silent", Json::UInt(self.dhcp_dropped_silent)),
            ("dhcp_naks_exhausted", Json::UInt(self.dhcp_naks_exhausted)),
            (
                "icmp_dropped_filtered",
                Json::UInt(self.icmp_dropped_filtered),
            ),
            (
                "frames_blackholed_arp",
                Json::UInt(self.frames_blackholed_arp),
            ),
            (
                "packets_hijacked_portal",
                Json::UInt(self.packets_hijacked_portal),
            ),
            ("uplink_dropped_asym", Json::UInt(self.uplink_dropped_asym)),
            (
                "downlink_dropped_asym",
                Json::UInt(self.downlink_dropped_asym),
            ),
            ("ap_reboots", Json::UInt(self.ap_reboots)),
            (
                "detect_times_s",
                Json::arr(self.detect_times_s.iter().map(|&t| Json::Num(t))),
            ),
            (
                "detect_kinds",
                Json::arr(self.detect_kinds.iter().map(|k| Json::str(k.label()))),
            ),
            (
                "recover_times_s",
                Json::arr(self.recover_times_s.iter().map(|&t| Json::Num(t))),
            ),
        ])
    }
    /// Total interactions suppressed across all fault classes.
    pub fn total_drops(&self) -> u64 {
        self.frames_dropped_blackout
            + self.packets_dropped_zombie
            + self.dhcp_dropped_silent
            + self.dhcp_naks_exhausted
            + self.icmp_dropped_filtered
            + self.frames_blackholed_arp
            + self.packets_hijacked_portal
            + self.uplink_dropped_asym
            + self.downlink_dropped_asym
    }

    /// Mean detection latency in seconds, if any detections happened.
    pub fn mean_detect_s(&self) -> Option<f64> {
        if self.detect_times_s.is_empty() {
            None
        } else {
            Some(self.detect_times_s.iter().sum::<f64>() / self.detect_times_s.len() as f64)
        }
    }

    /// Mean recovery latency in seconds, if any recoveries happened.
    pub fn mean_recover_s(&self) -> Option<f64> {
        if self.recover_times_s.is_empty() {
            None
        } else {
            Some(self.recover_times_s.iter().sum::<f64>() / self.recover_times_s.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    // Brute-force references over the flat episode list: the index must
    // answer exactly what a scan of every episode answers.

    fn scan(plan: &FaultPlan, now: SimTime, ap: usize, pred: impl Fn(FaultKind) -> bool) -> bool {
        plan.episodes
            .iter()
            .any(|e| pred(e.kind) && e.applies(now, ap))
    }

    fn scan_loss(plan: &FaultPlan, now: SimTime, ap: usize, up: bool) -> f64 {
        let mut pass = 1.0f64;
        for e in plan.episodes.iter().filter(|e| e.applies(now, ap)) {
            let extra = match e.kind {
                FaultKind::LossBurst { extra } => extra,
                FaultKind::AsymmetricLoss { up: u, down: d } => {
                    if up {
                        u
                    } else {
                        d
                    }
                }
                _ => continue,
            };
            pass *= 1.0 - extra.clamp(0.0, 1.0);
        }
        1.0 - pass
    }

    fn scan_onset(plan: &FaultPlan, now: SimTime, ap: usize) -> Option<(SimTime, FaultKind)> {
        plan.episodes
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FaultKind::Blackout
                        | FaultKind::Zombie
                        | FaultKind::ArpPoison
                        | FaultKind::CaptivePortal
                        | FaultKind::AsymmetricLoss { .. }
                ) && e.applies(now, ap)
            })
            .map(|e| (e.start, e.kind))
            .min_by_key(|(start, _)| *start)
    }

    /// Every index query at `(now, ap)` against its brute-force scan.
    fn assert_index_matches_scan(index: &FaultIndex, plan: &FaultPlan, now: SimTime, ap: usize) {
        let scan = |pred: fn(FaultKind) -> bool| scan(plan, now, ap, pred);
        assert_eq!(index.blackout(now, ap), scan(|k| k == FaultKind::Blackout));
        assert_eq!(index.zombie(now, ap), scan(|k| k == FaultKind::Zombie));
        assert_eq!(
            index.dhcp_silent(now, ap),
            scan(|k| k == FaultKind::DhcpSilence)
        );
        assert_eq!(
            index.dhcp_exhausted(now, ap),
            scan(|k| k == FaultKind::DhcpExhausted)
        );
        assert_eq!(
            index.icmp_filtered(now, ap),
            scan(|k| k == FaultKind::IcmpBlackhole)
        );
        assert_eq!(
            index.arp_poisoned(now, ap),
            scan(|k| k == FaultKind::ArpPoison)
        );
        assert_eq!(
            index.captive_portal(now, ap),
            scan(|k| k == FaultKind::CaptivePortal)
        );
        assert_eq!(
            index.asym_active(now, ap),
            scan(|k| matches!(k, FaultKind::AsymmetricLoss { .. }))
        );
        assert_eq!(
            index.extra_loss_up(now, ap).to_bits(),
            scan_loss(plan, now, ap, true).to_bits(),
            "uplink loss must compose bit-identically"
        );
        assert_eq!(
            index.extra_loss_down(now, ap).to_bits(),
            scan_loss(plan, now, ap, false).to_bits(),
            "downlink loss must compose bit-identically"
        );
        assert_eq!(index.data_fault_at(now, ap), scan_onset(plan, now, ap));
    }

    #[test]
    fn scripted_windows_apply_half_open() {
        let plan = FaultPlan::scripted(vec![FaultEpisode {
            ap: Some(2),
            kind: FaultKind::Blackout,
            start: t(10.0),
            end: t(20.0),
        }]);
        let index = FaultIndex::build(&plan, 3);
        assert!(!index.blackout(t(9.999), 2));
        assert!(index.blackout(t(10.0), 2));
        assert!(index.blackout(t(19.999), 2));
        assert!(!index.blackout(t(20.0), 2));
        assert!(!index.blackout(t(15.0), 1), "wrong AP untouched");
    }

    #[test]
    fn global_episode_hits_every_ap() {
        let plan = FaultPlan::scripted(vec![FaultEpisode {
            ap: None,
            kind: FaultKind::DhcpSilence,
            start: t(0.0),
            end: t(5.0),
        }]);
        let index = FaultIndex::build(&plan, 10);
        for ap in 0..10 {
            assert!(index.dhcp_silent(t(1.0), ap));
        }
    }

    #[test]
    fn loss_bursts_compose_independently() {
        let plan = FaultPlan::scripted(vec![
            FaultEpisode {
                ap: Some(0),
                kind: FaultKind::LossBurst { extra: 0.5 },
                start: t(0.0),
                end: t(10.0),
            },
            FaultEpisode {
                ap: None,
                kind: FaultKind::LossBurst { extra: 0.5 },
                start: t(0.0),
                end: t(10.0),
            },
        ]);
        // Symmetric bursts hit both legs alike.
        let index = FaultIndex::build(&plan, 4);
        for loss in [FaultIndex::extra_loss_up, FaultIndex::extra_loss_down] {
            assert!((loss(&index, t(1.0), 0) - 0.75).abs() < 1e-12);
            assert!((loss(&index, t(1.0), 3) - 0.5).abs() < 1e-12);
            assert_eq!(loss(&index, t(11.0), 0), 0.0);
        }
    }

    fn ep(ap: Option<usize>, kind: FaultKind, start: f64, end: f64) -> FaultEpisode {
        FaultEpisode {
            ap,
            kind,
            start: t(start),
            end: t(end),
        }
    }

    #[test]
    fn first_divergence_identical_plans_share_everything() {
        let plan = FaultPlan::stormy(7, 20, SimDuration::from_secs(600));
        assert_eq!(plan.first_divergence(&plan.clone()), None);
        assert_eq!(FaultPlan::none().first_divergence(&FaultPlan::none()), None);
    }

    #[test]
    fn first_divergence_dropped_episode_diverges_at_its_start() {
        let a = ep(Some(1), FaultKind::Blackout, 10.0, 20.0);
        let b = ep(Some(2), FaultKind::Zombie, 40.0, 50.0);
        let full = FaultPlan::scripted(vec![a, b]);
        let tail_only = FaultPlan::scripted(vec![b]);
        // Symmetric: the dropped episode's start, from either side.
        assert_eq!(full.first_divergence(&tail_only), Some(t(10.0)));
        assert_eq!(tail_only.first_divergence(&full), Some(t(10.0)));
        // Against the empty plan: the earliest remaining start.
        assert_eq!(
            tail_only.first_divergence(&FaultPlan::none()),
            Some(t(40.0))
        );
    }

    #[test]
    fn first_divergence_end_trim_diverges_at_the_earlier_end() {
        let long = ep(Some(1), FaultKind::Blackout, 10.0, 60.0);
        let short = ep(Some(1), FaultKind::Blackout, 10.0, 35.0);
        let before = FaultPlan::scripted(vec![long]);
        let after = FaultPlan::scripted(vec![short]);
        assert_eq!(before.first_divergence(&after), Some(t(35.0)));
        assert_eq!(after.first_divergence(&before), Some(t(35.0)));
        // A start trim falls back to the earlier start, conservatively.
        let late_start = ep(Some(1), FaultKind::Blackout, 25.0, 60.0);
        let moved = FaultPlan::scripted(vec![late_start]);
        assert_eq!(before.first_divergence(&moved), Some(t(10.0)));
    }

    #[test]
    fn first_divergence_equal_start_reorder_counts_as_divergent() {
        // Detect attribution breaks onset ties in plan order, so a
        // reorder of equal-start episodes must diverge at that start
        // even though the drop pattern is identical.
        let a = ep(Some(1), FaultKind::Blackout, 10.0, 20.0);
        let b = ep(Some(1), FaultKind::Zombie, 10.0, 30.0);
        let ab = FaultPlan::scripted(vec![a, b]);
        let ba = FaultPlan::scripted(vec![b, a]);
        assert_eq!(ab.first_divergence(&ba), Some(t(10.0)));
        // And an end trim of one of the tied pair must not report the
        // trimmed end: the reorder could hide behind it.
        let a_trim = ep(Some(1), FaultKind::Blackout, 10.0, 15.0);
        let ba_trim = FaultPlan::scripted(vec![b, a_trim]);
        assert_eq!(ab.first_divergence(&ba_trim), Some(t(10.0)));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        let dur = SimDuration::from_secs(600);
        let a = FaultPlan::stormy(7, 20, dur);
        let b = FaultPlan::stormy(7, 20, dur);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "a storm over 20 AP-hours must fire");
        for e in &a.episodes {
            assert!(e.start < e.end);
            assert!(e.end <= SimTime::ZERO + dur);
        }
        // A different seed gives a different storm.
        let c = FaultPlan::stormy(8, 20, dur);
        assert_ne!(a, c);
    }

    #[test]
    fn index_agrees_with_flat_plan_queries() {
        // The index is a pure accelerator: every query must return
        // exactly what a scan of the flat plan returns, bit-for-bit,
        // including the float composition of overlapping loss bursts.
        let num_aps = 30;
        let dur = SimDuration::from_secs(900);
        let mut plan = FaultPlan::stormy(13, num_aps, dur);
        plan.episodes.push(FaultEpisode {
            ap: None,
            kind: FaultKind::LossBurst { extra: 0.123 },
            start: t(100.0),
            end: t(400.0),
        });
        let index = FaultIndex::build(&plan, num_aps);
        assert_eq!(index.is_empty(), plan.is_empty());
        for step in 0..90 {
            let now = t(step as f64 * 10.0);
            for ap in 0..num_aps {
                assert_index_matches_scan(&index, &plan, now, ap);
            }
        }
        // Every AP outside `faulty_aps()` is quiet for the whole run.
        for ap in 0..num_aps {
            if !index.faulty_aps().contains(&ap) {
                assert!(plan
                    .episodes
                    .iter()
                    .all(|e| e.ap.map(|a| a != ap).unwrap_or(false)));
            }
        }
    }

    #[test]
    fn plan_json_round_trips_exactly() {
        let mut plan = FaultPlan::stormy(11, 12, SimDuration::from_secs(600));
        plan.episodes.push(FaultEpisode {
            ap: None,
            kind: FaultKind::LossBurst {
                extra: 0.123456789012345,
            },
            start: t(1.5),
            end: t(2.25),
        });
        plan.episodes.push(FaultEpisode {
            ap: Some(3),
            kind: FaultKind::IcmpBlackhole,
            start: t(10.0),
            end: t(20.0),
        });
        let text = plan.to_json().pretty();
        let back = FaultPlan::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, plan, "replayed plan must be identical");
        // Byte-stable: serializing the round-tripped plan again gives
        // the same document.
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn kind_json_rejects_unknown_labels() {
        let v = Json::obj([("kind", Json::str("gremlins"))]);
        assert_eq!(FaultKind::from_json(&v), None);
        let missing_extra = Json::obj([("kind", Json::str("loss-burst"))]);
        assert_eq!(FaultKind::from_json(&missing_extra), None);
    }

    #[test]
    fn kind_json_rejects_missing_directional_fields() {
        // Replay must never guess a direction: both legs are required.
        let missing_down = Json::obj([
            ("kind", Json::str("asymmetric-loss")),
            ("up", Json::Num(0.5)),
        ]);
        assert_eq!(FaultKind::from_json(&missing_down), None);
        let missing_up = Json::obj([
            ("kind", Json::str("asymmetric-loss")),
            ("down", Json::Num(0.5)),
        ]);
        assert_eq!(FaultKind::from_json(&missing_up), None);
        let missing_both = Json::obj([("kind", Json::str("asymmetric-loss"))]);
        assert_eq!(FaultKind::from_json(&missing_both), None);
    }

    #[test]
    fn every_kind_round_trips_through_json() {
        let kinds = [
            FaultKind::Blackout,
            FaultKind::Zombie,
            FaultKind::DhcpSilence,
            FaultKind::DhcpExhausted,
            FaultKind::IcmpBlackhole,
            FaultKind::LossBurst {
                extra: 0.123456789012345,
            },
            FaultKind::ArpPoison,
            FaultKind::CaptivePortal,
            FaultKind::AsymmetricLoss {
                up: 0.987654321098765,
                down: 0.0123,
            },
        ];
        for kind in kinds {
            let text = kind.to_json().pretty();
            let back = FaultKind::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, kind, "{} must round-trip", kind.label());
            // Episodes carrying each kind round-trip too.
            let e = FaultEpisode {
                ap: Some(4),
                kind,
                start: t(1.25),
                end: t(9.5),
            };
            let back = FaultEpisode::from_json(&Json::parse(&e.to_json().pretty()).unwrap());
            assert_eq!(back, Some(e));
        }
    }

    #[test]
    fn scripted_drops_zero_length_episodes() {
        let plan = FaultPlan::scripted(vec![
            ep(Some(0), FaultKind::Blackout, 10.0, 10.0),
            ep(Some(0), FaultKind::Zombie, 5.0, 15.0),
            ep(None, FaultKind::CaptivePortal, 20.0, 20.0),
        ]);
        assert_eq!(plan.episodes.len(), 1, "empty windows are husks");
        assert_eq!(plan.episodes[0].kind, FaultKind::Zombie);
        // from_json stays exact: replay artifacts are never rewritten.
        let husk = FaultPlan {
            episodes: vec![ep(Some(0), FaultKind::Blackout, 10.0, 10.0)],
        };
        let back = FaultPlan::from_json(&Json::parse(&husk.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(back.episodes.len(), 1);
    }

    #[test]
    fn adversarial_queries_and_directional_loss() {
        let plan = FaultPlan::scripted(vec![
            ep(Some(0), FaultKind::ArpPoison, 10.0, 20.0),
            ep(Some(0), FaultKind::CaptivePortal, 30.0, 40.0),
            ep(
                Some(0),
                FaultKind::AsymmetricLoss {
                    up: 0.5,
                    down: 0.25,
                },
                50.0,
                60.0,
            ),
            ep(Some(0), FaultKind::LossBurst { extra: 0.5 }, 50.0, 60.0),
        ]);
        let index = FaultIndex::build(&plan, 2);
        assert!(index.arp_poisoned(t(15.0), 0));
        assert!(!index.arp_poisoned(t(25.0), 0));
        assert!(!index.arp_poisoned(t(15.0), 1), "wrong AP untouched");
        assert!(index.captive_portal(t(35.0), 0));
        assert!(!index.captive_portal(t(15.0), 0));
        assert!(index.asym_active(t(55.0), 0));
        assert!(!index.asym_active(t(45.0), 0));
        // Directional composition folds the matching leg with the
        // symmetric burst.
        assert!((index.extra_loss_up(t(55.0), 0) - 0.75).abs() < 1e-12);
        assert!((index.extra_loss_down(t(55.0), 0) - 0.625).abs() < 1e-12);
        // With no directional episode active both legs agree bit-wise.
        assert_eq!(index.extra_loss_up(t(49.9), 0), 0.0);
        assert_eq!(
            index.extra_loss_up(t(55.0), 1).to_bits(),
            index.extra_loss_down(t(55.0), 1).to_bits()
        );
        // All three adversarial classes are data-plane: they arm the
        // detect-attribution query with the right onset and class.
        assert_eq!(
            index.data_fault_at(t(15.0), 0),
            Some((t(10.0), FaultKind::ArpPoison))
        );
        assert_eq!(
            index.data_fault_at(t(35.0), 0),
            Some((t(30.0), FaultKind::CaptivePortal))
        );
        assert_eq!(
            index.data_fault_at(t(55.0), 0),
            Some((
                t(50.0),
                FaultKind::AsymmetricLoss {
                    up: 0.5,
                    down: 0.25
                }
            ))
        );
        // Index parity on every query.
        for step in 0..130 {
            let now = t(step as f64 * 0.5);
            for ap in 0..2 {
                assert_index_matches_scan(&index, &plan, now, ap);
            }
        }
    }

    #[test]
    fn detect_attribution_filters_by_class() {
        let mut stats = FaultStats::default();
        stats.record_detect(1.0, FaultKind::Blackout);
        stats.record_detect(2.0, FaultKind::Zombie);
        stats.record_detect(3.0, FaultKind::Blackout);
        assert_eq!(
            stats.detect_times_for("blackout").collect::<Vec<_>>(),
            vec![1.0, 3.0]
        );
        assert_eq!(
            stats.detect_times_for("zombie").collect::<Vec<_>>(),
            vec![2.0]
        );
        assert_eq!(stats.max_detect_s(), Some(3.0));
        assert_eq!(stats.max_recover_s(), None);
        // Serializes with the parallel kind array intact.
        let j = stats.to_json();
        assert_eq!(j.get("detect_kinds").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn data_fault_at_names_the_class() {
        let plan = FaultPlan::scripted(vec![
            FaultEpisode {
                ap: Some(0),
                kind: FaultKind::Zombie,
                start: t(5.0),
                end: t(50.0),
            },
            FaultEpisode {
                ap: Some(0),
                kind: FaultKind::Blackout,
                start: t(10.0),
                end: t(20.0),
            },
        ]);
        let index = FaultIndex::build(&plan, 1);
        assert_eq!(
            index.data_fault_at(t(15.0), 0),
            Some((t(5.0), FaultKind::Zombie))
        );
        assert_eq!(index.data_fault_at(t(1.0), 0), None);
    }

    #[test]
    fn onset_reports_earliest_covering_data_fault() {
        let plan = FaultPlan::scripted(vec![
            FaultEpisode {
                ap: Some(0),
                kind: FaultKind::Zombie,
                start: t(5.0),
                end: t(50.0),
            },
            FaultEpisode {
                ap: Some(0),
                kind: FaultKind::Blackout,
                start: t(10.0),
                end: t(20.0),
            },
            // DHCP faults are control-plane: never an "onset".
            FaultEpisode {
                ap: Some(0),
                kind: FaultKind::DhcpSilence,
                start: t(0.0),
                end: t(100.0),
            },
        ]);
        let index = FaultIndex::build(&plan, 1);
        let onset = |now| index.data_fault_at(now, 0).map(|(start, _)| start);
        assert_eq!(onset(t(1.0)), None);
        assert_eq!(onset(t(15.0)), Some(t(5.0)));
        assert_eq!(onset(t(60.0)), None);
    }
}
