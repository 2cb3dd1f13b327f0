//! Join-success-based AP selection (Design Choice 2, §3.1).
//!
//! "Instead of choosing APs with maximum end-to-end bandwidth, we select
//! APs that have the best history of successful joins." Each join attempt
//! is scored by how far it progressed — 0 (failed association) < `va`
//! (association only) < `vb` (got a DHCP lease) < `vc` (verified
//! end-to-end connectivity) — and an AP's utility is a recency-weighted
//! average of its attempt scores. Unseen open APs with sufficient signal
//! strength bootstrap at the maximum utility so each is tried at least
//! once; ties break on RSSI.
//!
//! The same per-AP record decides when a bad AP may be retried. A failed
//! attempt cools the AP down for `FAILURE_COOLDOWN`. On top of that,
//! Spider gives an AP a strike each time a link to it goes down through
//! the AP's fault, and holds it out for an exponential, jittered backoff
//! ([`UtilityTable::record_down`]). A blacked-out or zombie AP keeps
//! beaconing and keeps winning on signal strength; the backoff keeps it
//! from trapping the driver in a join/fail loop. A verified join forgives
//! every strike.

use spider_simcore::{FxHashMap, SimDuration, SimTime};
use spider_wire::{Channel, MacAddr, Ssid};

/// How far a join attempt progressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOutcome {
    /// Link-layer association failed.
    Failed,
    /// Associated, but no DHCP lease.
    AssociatedOnly,
    /// Got a lease, but connectivity was never verified.
    LeaseOnly,
    /// Fully joined with verified end-to-end connectivity.
    FullyJoined,
}

/// Score for association-only attempts (the paper's `va`).
const VA: f64 = 0.3;
/// Score for lease-only attempts (the paper's `vb`).
const VB: f64 = 0.6;
/// Score for fully joined attempts (the paper's `vc`), also the
/// bootstrap value for never-tried APs.
const VC: f64 = 1.0;
/// After a failed attempt, the AP is excluded from selection for this
/// long (prevents hammering a dead AP during one encounter).
const FAILURE_COOLDOWN: SimDuration = SimDuration::from_secs(2);
/// First-strike hold-off of the backoff ladder.
const BACKOFF_BASE: SimDuration = SimDuration::from_secs(2);
/// Backoff ceiling. Strikes are also forgotten this long after the
/// hold-off ends, so fresh trouble escalates from scratch.
const BACKOFF_MAX: SimDuration = SimDuration::from_secs(60);
/// A record not heard from for longer than this is dropped (bounds
/// memory on long drives).
const RECORD_HORIZON: SimDuration = SimDuration::from_secs(3_600);
/// Jitter fraction: each hold-off is scaled by a factor drawn
/// deterministically from `[1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER]`.
const BACKOFF_JITTER: f64 = 0.2;
/// Strikes a captive portal jumps to: one past the ladder's exponent cap
/// of 16, so the portal sits at the ceiling from its first demotion.
const PORTAL_STRIKES: u32 = 17;

/// Utility weighting parameters.
#[derive(Debug, Clone)]
pub struct UtilityConfig {
    /// Recency weight α: `utility ← α·score + (1-α)·utility`. Larger α
    /// weighs recent attempts more.
    pub recency: f64,
    /// Minimum RSSI for an AP to be considered at all (the "sufficient
    /// signal strength" bootstrap filter).
    pub min_rssi_dbm: f64,
    /// How recently an AP must have been heard to be a candidate.
    pub freshness: SimDuration,
}

impl Default for UtilityConfig {
    fn default() -> Self {
        UtilityConfig {
            recency: 0.5,
            // Aligns with the reliable core of an outdoor cell (~60 m at
            // the default propagation): joining through the lossy edge
            // band mostly burns retries.
            min_rssi_dbm: -78.0,
            freshness: SimDuration::from_secs(4),
        }
    }
}

impl JoinOutcome {
    fn score(self) -> f64 {
        match self {
            JoinOutcome::Failed => 0.0,
            JoinOutcome::AssociatedOnly => VA,
            JoinOutcome::LeaseOnly => VB,
            JoinOutcome::FullyJoined => VC,
        }
    }
}

/// What the scanner knows about one AP.
#[derive(Debug, Clone)]
pub struct ApRecord {
    /// Network name from its beacons.
    pub ssid: Ssid,
    /// Operating channel.
    pub channel: Channel,
    /// Smoothed signal strength.
    pub rssi_dbm: f64,
    /// When a beacon/probe response was last heard.
    pub last_seen: SimTime,
    /// Recency-weighted join utility.
    pub utility: f64,
    /// End of the cooldown after the last failed attempt.
    pub not_before: SimTime,
    /// Backoff strikes since the last verified join.
    pub strikes: u32,
    /// End of the backoff hold-off.
    pub held_until: SimTime,
}

/// The hold-off's jitter factor in `[1 - BACKOFF_JITTER, 1 +
/// BACKOFF_JITTER]`, from an FNV-1a hash of the BSSID and strike count:
/// fully deterministic, unlike the std hasher's keys.
fn jitter(bssid: MacAddr, strikes: u32) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bssid.0.iter().copied().chain(strikes.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let unit = (h % 10_000) as f64 / 10_000.0;
    1.0 + BACKOFF_JITTER * (2.0 * unit - 1.0)
}

/// The first instant at which [`UtilityTable::expire`] could change
/// `rec`: its horizon drop, or the forgetting of its strikes.
fn record_due(rec: &ApRecord) -> SimTime {
    let drop = rec
        .last_seen
        .saturating_add(RECORD_HORIZON + SimDuration::from_micros(1));
    if rec.strikes > 0 {
        drop.min(rec.held_until.saturating_add(BACKOFF_MAX))
    } else {
        drop
    }
}

/// The scanner + utility table driving AP selection.
#[derive(Debug, Clone)]
pub struct UtilityTable {
    cfg: UtilityConfig,
    records: FxHashMap<MacAddr, ApRecord>,
    /// No `expire` before this instant can change a record: a lower bound
    /// on [`record_due`] over every record. `last_seen` only grows and
    /// `forgive` only clears strikes, so only a new record and
    /// `record_down` have to lower it.
    sweep_due: SimTime,
}

impl UtilityTable {
    /// Create an empty table.
    pub fn new(cfg: UtilityConfig) -> UtilityTable {
        UtilityTable {
            cfg,
            records: FxHashMap::default(),
            sweep_due: SimTime::MAX,
        }
    }

    /// Record a beacon or probe response from `bssid` (opportunistic
    /// scanning input).
    pub fn observe(
        &mut self,
        now: SimTime,
        bssid: MacAddr,
        ssid: &Ssid,
        channel: Channel,
        rssi_dbm: f64,
    ) {
        let entry = self.records.entry(bssid).or_insert_with(|| {
            let rec = ApRecord {
                ssid: ssid.clone(),
                channel,
                rssi_dbm,
                last_seen: now,
                // Bootstrap at maximum utility so new APs get tried once.
                utility: VC,
                not_before: SimTime::ZERO,
                strikes: 0,
                held_until: SimTime::ZERO,
            };
            self.sweep_due = self.sweep_due.min(record_due(&rec));
            rec
        });
        // An AP's SSID essentially never changes; cloning the string on
        // every overheard beacon would dominate the scanner's cost.
        if entry.ssid != *ssid {
            entry.ssid = ssid.clone();
        }
        entry.channel = channel;
        // Light smoothing of RSSI.
        entry.rssi_dbm = 0.7 * entry.rssi_dbm + 0.3 * rssi_dbm;
        entry.last_seen = now;
    }

    /// Record the outcome of a join attempt at `bssid`.
    pub fn record_outcome(&mut self, now: SimTime, bssid: MacAddr, outcome: JoinOutcome) {
        let score = outcome.score();
        let alpha = self.cfg.recency;
        if let Some(rec) = self.records.get_mut(&bssid) {
            rec.utility = alpha * score + (1.0 - alpha) * rec.utility;
            if outcome == JoinOutcome::Failed {
                rec.not_before = now + FAILURE_COOLDOWN;
            }
        }
    }

    /// A link to `bssid` went down through the AP's fault (a failed join,
    /// or a verified link that died): add a strike and hold the AP out of
    /// selection for `BACKOFF_BASE · 2^(strikes-1)`, capped at
    /// `BACKOFF_MAX` and jittered per `(bssid, strikes)`. A captive
    /// `portal` is not failing: it works as its operator intends and will
    /// intercept the next retry too, so its strikes first jump past the
    /// ladder and it sits at the ceiling. Returns the end of the hold-off
    /// (`None` for an unknown AP).
    pub fn record_down(&mut self, now: SimTime, bssid: MacAddr, portal: bool) -> Option<SimTime> {
        let rec = self.records.get_mut(&bssid)?;
        if portal {
            rec.strikes = rec.strikes.max(PORTAL_STRIKES);
        }
        rec.strikes = rec.strikes.saturating_add(1);
        let exp = (rec.strikes - 1).min(16);
        let backoff = SimDuration::from_micros(
            BACKOFF_BASE
                .as_micros()
                .saturating_mul(1u64 << exp)
                .min(BACKOFF_MAX.as_micros()),
        );
        rec.held_until = now.saturating_add(backoff.mul_f64(jitter(bssid, rec.strikes)));
        self.sweep_due = self.sweep_due.min(record_due(rec));
        Some(rec.held_until)
    }

    /// A verified join at `bssid`: forgive all strikes and any hold-off.
    pub fn forgive(&mut self, bssid: MacAddr) {
        if let Some(rec) = self.records.get_mut(&bssid) {
            rec.strikes = 0;
            rec.held_until = SimTime::ZERO;
        }
    }

    /// Look up a record.
    pub fn get(&self, bssid: MacAddr) -> Option<&ApRecord> {
        self.records.get(&bssid)
    }

    /// Number of known APs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The best candidate AP to join now: fresh, strong enough, neither
    /// cooling down nor held off, not in `in_use`, restricted to
    /// `channels` (if non-empty), ranked by utility then RSSI.
    pub fn best_candidate(
        &self,
        now: SimTime,
        channels: &[Channel],
        in_use: &[MacAddr],
    ) -> Option<(MacAddr, &ApRecord)> {
        self.records
            .iter()
            .filter(|(bssid, rec)| {
                now.saturating_since(rec.last_seen) <= self.cfg.freshness
                    && rec.rssi_dbm >= self.cfg.min_rssi_dbm
                    && now >= rec.not_before.max(rec.held_until)
                    && !in_use.contains(bssid)
                    && (channels.is_empty() || channels.contains(&rec.channel))
            })
            .max_by(|(a_id, a), (b_id, b)| {
                a.utility
                    .total_cmp(&b.utility)
                    .then(a.rssi_dbm.total_cmp(&b.rssi_dbm))
                    // Deterministic final tie-break.
                    .then(b_id.cmp(a_id))
            })
            .map(|(bssid, rec)| (*bssid, rec))
    }

    /// Drop records not heard from within `RECORD_HORIZON`, and forget
    /// the strikes of APs whose hold-off ended `BACKOFF_MAX` ago or more.
    /// Walks the records only once something is due, so the driver's
    /// 100 ms housekeeping tick costs nothing in between.
    pub fn expire(&mut self, now: SimTime) {
        if now < self.sweep_due {
            return;
        }
        let mut due = SimTime::MAX;
        self.records.retain(|_, rec| {
            if now >= rec.held_until.saturating_add(BACKOFF_MAX) {
                rec.strikes = 0;
            }
            let keep = now.saturating_since(rec.last_seen) <= RECORD_HORIZON;
            if keep {
                due = due.min(record_due(rec));
            }
            keep
        });
        self.sweep_due = due;
    }

    /// Number of fresh, usable APs per channel — the "AP density" input
    /// to the adaptive scheduler (§4.8).
    pub fn channel_census(&self, now: SimTime) -> FxHashMap<Channel, usize> {
        let mut census = FxHashMap::default();
        #[allow(
            clippy::iter_over_hash_type,
            reason = "per-channel counts: addition commutes, so visit order cannot matter"
        )]
        for rec in self.records.values() {
            if now.saturating_since(rec.last_seen) <= self.cfg.freshness
                && rec.rssi_dbm >= self.cfg.min_rssi_dbm
            {
                *census.entry(rec.channel).or_insert(0) += 1;
            }
        }
        census
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simcore::SimRng;

    fn table() -> UtilityTable {
        UtilityTable::new(UtilityConfig::default())
    }

    fn observe(t: &mut UtilityTable, id: u64, ch: Channel, rssi: f64, now: SimTime) -> MacAddr {
        let mac = MacAddr::from_id(id);
        t.observe(now, mac, &Ssid::new(format!("ap{id}")), ch, rssi);
        mac
    }

    #[test]
    fn new_aps_bootstrap_at_max_utility() {
        let mut t = table();
        let mac = observe(&mut t, 1, Channel::CH6, -70.0, SimTime::ZERO);
        assert_eq!(t.get(mac).unwrap().utility, 1.0);
        assert_eq!(t.get(mac).unwrap().strikes, 0);
    }

    #[test]
    fn outcomes_move_utility() {
        let mut t = table();
        let mac = observe(&mut t, 1, Channel::CH6, -70.0, SimTime::ZERO);
        t.record_outcome(SimTime::from_secs(1), mac, JoinOutcome::Failed);
        let after_fail = t.get(mac).unwrap().utility;
        assert!((after_fail - 0.5).abs() < 1e-12); // 0.5*0 + 0.5*1.0
        t.record_outcome(SimTime::from_secs(2), mac, JoinOutcome::FullyJoined);
        let after_full = t.get(mac).unwrap().utility;
        assert!(after_full > after_fail);
    }

    #[test]
    fn recency_weights_recent_attempts_more() {
        let mut t = table();
        let mac = observe(&mut t, 1, Channel::CH6, -70.0, SimTime::ZERO);
        // Old success, then recent failures → low utility.
        t.record_outcome(SimTime::from_secs(1), mac, JoinOutcome::FullyJoined);
        t.record_outcome(SimTime::from_secs(2), mac, JoinOutcome::Failed);
        t.record_outcome(SimTime::from_secs(3), mac, JoinOutcome::Failed);
        assert!(t.get(mac).unwrap().utility < 0.3);
    }

    #[test]
    fn selection_prefers_high_utility_then_rssi() {
        let mut t = table();
        let now = SimTime::from_secs(10);
        let good = observe(&mut t, 1, Channel::CH6, -75.0, now);
        let bad = observe(&mut t, 2, Channel::CH6, -50.0, now);
        // Drive bad's utility down.
        t.record_outcome(now, bad, JoinOutcome::Failed);
        t.record_outcome(now, bad, JoinOutcome::Failed);
        // Past bad's cooldown:
        let later = now + SimDuration::from_secs(3);
        let (chosen, _) = t.best_candidate(later, &[], &[]).unwrap();
        // 'good' has stale last_seen though; re-observe both.
        let _ = chosen;
        observe(&mut t, 1, Channel::CH6, -75.0, later);
        observe(&mut t, 2, Channel::CH6, -50.0, later);
        let (chosen, _) = t.best_candidate(later, &[], &[]).unwrap();
        assert_eq!(chosen, good);
        // Equal utility -> RSSI breaks the tie.
        let strong = observe(&mut t, 3, Channel::CH6, -55.0, later);
        let (chosen, _) = t.best_candidate(later, &[], &[good]).unwrap();
        assert_eq!(chosen, strong);
    }

    #[test]
    fn stale_weak_cooling_and_in_use_are_excluded() {
        let mut t = table();
        let now = SimTime::from_secs(100);
        // Stale.
        observe(
            &mut t,
            1,
            Channel::CH6,
            -60.0,
            now - SimDuration::from_secs(10),
        );
        // Too weak.
        observe(&mut t, 2, Channel::CH6, -95.0, now);
        // Cooling down after failure.
        let cooling = observe(&mut t, 3, Channel::CH6, -60.0, now);
        t.record_outcome(now, cooling, JoinOutcome::Failed);
        // In use.
        let used = observe(&mut t, 4, Channel::CH6, -60.0, now);
        assert!(t.best_candidate(now, &[], &[used]).is_none());
    }

    #[test]
    fn channel_restriction() {
        let mut t = table();
        let now = SimTime::from_secs(1);
        observe(&mut t, 1, Channel::CH1, -60.0, now);
        let ch6 = observe(&mut t, 2, Channel::CH6, -75.0, now);
        let (chosen, _) = t.best_candidate(now, &[Channel::CH6], &[]).unwrap();
        assert_eq!(chosen, ch6);
        assert!(t.best_candidate(now, &[Channel::CH11], &[]).is_none());
    }

    #[test]
    fn expiry_bounds_memory() {
        let mut t = table();
        observe(&mut t, 1, Channel::CH6, -60.0, SimTime::ZERO);
        observe(&mut t, 2, Channel::CH6, -60.0, SimTime::from_secs(100));
        // A record heard exactly one horizon ago is still kept.
        t.expire(SimTime::ZERO + RECORD_HORIZON);
        assert_eq!(t.len(), 2);
        t.expire(SimTime::from_secs(1) + RECORD_HORIZON);
        assert_eq!(t.len(), 1);
        assert!(t.get(MacAddr::from_id(2)).is_some());
    }

    #[test]
    fn outcome_for_unknown_ap_is_ignored() {
        let mut t = table();
        t.record_outcome(SimTime::ZERO, MacAddr::from_id(9), JoinOutcome::FullyJoined);
        assert!(t.is_empty());
    }

    /// The jittered hold-off for a nominal ladder step of `secs`.
    fn held(secs: u64, bssid: MacAddr, strikes: u32) -> SimDuration {
        SimDuration::from_secs(secs).mul_f64(jitter(bssid, strikes))
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut t = table();
        let now = SimTime::from_secs(100);
        let ap = observe(&mut t, 7, Channel::CH6, -60.0, now);
        // Strikes 1..: 2, 4, 8, 16, 32, 60 (cap), 60 s, each jittered.
        for (strikes, secs) in (1..).zip([2, 4, 8, 16, 32, 60, 60]) {
            let until = t.record_down(now, ap, false).unwrap();
            assert_eq!(until.saturating_since(now), held(secs, ap, strikes));
            assert_eq!(t.get(ap).unwrap().strikes, strikes);
        }
    }

    #[test]
    fn portal_demotion_jumps_to_the_ceiling_and_stays_there() {
        let mut t = table();
        let ap = observe(&mut t, 7, Channel::CH6, -60.0, SimTime::ZERO);
        let until = t.record_down(SimTime::ZERO, ap, true).unwrap();
        assert_eq!(
            until,
            SimTime::ZERO + held(60, ap, 18),
            "straight to the cap"
        );
        assert_eq!(t.get(ap).unwrap().strikes, 18);
        // A later plain failure stays at the ceiling.
        let later = t.record_down(SimTime::ZERO, ap, false).unwrap();
        assert_eq!(later, SimTime::ZERO + held(60, ap, 19));
        // Strikes already past the ladder never regress.
        t.record_down(SimTime::ZERO, ap, true);
        assert_eq!(t.get(ap).unwrap().strikes, 20);
        // A verified join still forgives everything.
        t.forgive(ap);
        assert_eq!(t.get(ap).unwrap().strikes, 0);
    }

    #[test]
    fn success_forgives_all_strikes() {
        let mut t = table();
        let ap = observe(&mut t, 7, Channel::CH6, -60.0, SimTime::ZERO);
        t.record_down(SimTime::ZERO, ap, false);
        t.record_down(SimTime::ZERO, ap, false);
        t.forgive(ap);
        assert_eq!(t.get(ap).unwrap().strikes, 0);
        // The next failure starts the ladder over.
        let until = t.record_down(SimTime::from_secs(10), ap, false).unwrap();
        assert_eq!(until, SimTime::from_secs(10) + held(2, ap, 1));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let mut a = table();
        let mut b = table();
        let ap = observe(&mut a, 7, Channel::CH6, -60.0, SimTime::ZERO);
        observe(&mut b, 7, Channel::CH6, -60.0, SimTime::ZERO);
        let ua = a.record_down(SimTime::ZERO, ap, false).unwrap();
        let ub = b.record_down(SimTime::ZERO, ap, false).unwrap();
        assert_eq!(ua, ub, "same inputs must give the same backoff");
        let w = ua.saturating_since(SimTime::ZERO).as_millis_f64();
        assert!((1_600.0..=2_400.0).contains(&w), "width {w} outside ±20%");
        // A different BSSID jitters differently (with overwhelming
        // likelihood for this pair).
        let other = observe(&mut a, 8, Channel::CH6, -60.0, SimTime::ZERO);
        let uo = a.record_down(SimTime::ZERO, other, false).unwrap();
        assert_ne!(ua, uo);
    }

    #[test]
    fn strike_memory_is_forgotten_after_the_hold_off() {
        let mut t = table();
        let start = SimTime::from_secs(4_000);
        let ap = observe(&mut t, 7, Channel::CH6, -60.0, start);
        let until = t.record_down(start, ap, false).unwrap();
        t.expire(start + SimDuration::from_secs(30));
        assert_eq!(t.get(ap).unwrap().strikes, 1, "inside the memory grace");
        let forget = until + BACKOFF_MAX;
        t.expire(forget - SimDuration::from_micros(1));
        assert_eq!(t.get(ap).unwrap().strikes, 1);
        t.expire(forget);
        assert_eq!(t.get(ap).unwrap().strikes, 0);
    }

    #[test]
    fn only_active_holds_exclude() {
        let mut t = table();
        let a = observe(&mut t, 7, Channel::CH6, -60.0, SimTime::ZERO);
        let b = observe(&mut t, 8, Channel::CH6, -60.0, SimTime::ZERO);
        t.record_down(SimTime::ZERO, a, false); // held ~2 s
        t.record_down(SimTime::ZERO, b, false); // held ~2 s
        assert!(t.best_candidate(SimTime::from_secs(1), &[], &[]).is_none());
        let later = SimTime::from_secs(3);
        let (first, _) = t.best_candidate(later, &[], &[]).unwrap();
        let (second, _) = t.best_candidate(later, &[], &[first]).unwrap();
        assert_eq!([first.min(second), first.max(second)], [a.min(b), a.max(b)]);
    }

    /// Every record's strikes and hold-off, and the table size, agree.
    fn assert_same(gated: &UtilityTable, eager: &UtilityTable, now: SimTime) {
        assert_eq!(gated.len(), eager.len(), "table size at {now}");
        eager.records.iter().for_each(|(bssid, e)| {
            let g = gated
                .get(*bssid)
                .unwrap_or_else(|| panic!("{bssid} missing at {now}"));
            assert_eq!(
                (g.strikes, g.held_until),
                (e.strikes, e.held_until),
                "{bssid} at {now}"
            );
        });
    }

    #[test]
    fn gated_expiry_matches_an_always_walk_reference() {
        // Differential test: one table skips `expire` until something is
        // due, the other is forced to walk on every 100 ms tick. A seeded
        // drive passes a window of eight APs along the id line, parks now
        // and then for up to 15 minutes (so records outlive the horizon),
        // and fails, portals and forgives APs along the way.
        let mut rng = SimRng::new(25);
        let mut gated = table();
        let mut eager = table();
        let mut now = SimTime::ZERO;
        let (mut dropped, mut forgotten, mut skipped) = (0, 0, 0);
        for tick in 0..6_000u64 {
            now += SimDuration::from_millis(100);
            if rng.chance(0.01) {
                now += SimDuration::from_secs(rng.uniform_u64(0, 900));
            }
            for _ in 0..rng.uniform_u64(0, 4) {
                // Mostly the APs in range; now and then one never heard.
                let id = tick / 100 + rng.uniform_u64(0, 9);
                let bssid = MacAddr::from_id(id);
                match rng.index(10) {
                    0..=4 => {
                        let rssi = rng.uniform_in(-90.0, -50.0);
                        observe(&mut gated, id, Channel::CH6, rssi, now);
                        observe(&mut eager, id, Channel::CH6, rssi, now);
                    }
                    5 | 6 => {
                        let outcome = *rng.pick(&[
                            JoinOutcome::Failed,
                            JoinOutcome::AssociatedOnly,
                            JoinOutcome::LeaseOnly,
                            JoinOutcome::FullyJoined,
                        ]);
                        gated.record_outcome(now, bssid, outcome);
                        eager.record_outcome(now, bssid, outcome);
                    }
                    7 | 8 => {
                        let portal = rng.chance(0.2);
                        let a = gated.record_down(now, bssid, portal);
                        assert_eq!(a, eager.record_down(now, bssid, portal));
                    }
                    _ => {
                        gated.forgive(bssid);
                        eager.forgive(bssid);
                    }
                }
            }
            let len = eager.len();
            let struck: Vec<MacAddr> = eager
                .records
                .iter()
                .filter(|(_, r)| r.strikes > 0)
                .map(|(bssid, _)| *bssid)
                .collect();
            skipped += usize::from(now < gated.sweep_due);
            gated.expire(now);
            eager.sweep_due = SimTime::ZERO;
            eager.expire(now);
            dropped += len - eager.len();
            forgotten += struck
                .iter()
                .filter(|bssid| eager.get(**bssid).is_some_and(|r| r.strikes == 0))
                .count();
            assert_same(&gated, &eager, now);
        }
        assert!(dropped > 0, "no record outlived the horizon");
        assert!(forgotten > 0, "no strike was forgotten");
        assert!(skipped > 3_000, "the gate skipped only {skipped} sweeps");
    }

    #[test]
    fn deterministic_tiebreak_on_identical_aps() {
        let mut t = table();
        let now = SimTime::from_secs(1);
        observe(&mut t, 5, Channel::CH6, -60.0, now);
        observe(&mut t, 6, Channel::CH6, -60.0, now);
        let a = t.best_candidate(now, &[], &[]).unwrap().0;
        let b = t.best_candidate(now, &[], &[]).unwrap().0;
        assert_eq!(a, b);
    }
}
