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
    /// Join attempts recorded.
    pub attempts: u32,
    /// Earliest time this AP may be selected again.
    pub not_before: SimTime,
}

/// The scanner + utility table driving AP selection.
#[derive(Debug, Clone)]
pub struct UtilityTable {
    cfg: UtilityConfig,
    records: FxHashMap<MacAddr, ApRecord>,
}

impl UtilityTable {
    /// Create an empty table.
    pub fn new(cfg: UtilityConfig) -> UtilityTable {
        UtilityTable {
            cfg,
            records: FxHashMap::default(),
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
        let entry = self.records.entry(bssid).or_insert_with(|| ApRecord {
            ssid: ssid.clone(),
            channel,
            rssi_dbm,
            last_seen: now,
            // Bootstrap at maximum utility so new APs get tried once.
            utility: VC,
            attempts: 0,
            not_before: SimTime::ZERO,
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
            rec.attempts += 1;
            if outcome == JoinOutcome::Failed {
                rec.not_before = now + FAILURE_COOLDOWN;
            }
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

    /// The best candidate AP to join now: fresh, strong enough, not
    /// cooling down, not in `in_use`, restricted to `channels` (if
    /// non-empty), ranked by utility then RSSI.
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
                    && now >= rec.not_before
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

    /// Drop records not heard from within `horizon` (bounding memory on
    /// long drives).
    pub fn expire(&mut self, now: SimTime, horizon: SimDuration) {
        self.records
            .retain(|_, rec| now.saturating_since(rec.last_seen) <= horizon);
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
        assert_eq!(t.get(mac).unwrap().attempts, 0);
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
        assert_eq!(t.get(mac).unwrap().attempts, 2);
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
        t.expire(SimTime::from_secs(101), SimDuration::from_secs(30));
        assert_eq!(t.len(), 1);
        assert!(t.get(MacAddr::from_id(2)).is_some());
    }

    #[test]
    fn outcome_for_unknown_ap_is_ignored() {
        let mut t = table();
        t.record_outcome(SimTime::ZERO, MacAddr::from_id(9), JoinOutcome::FullyJoined);
        assert!(t.is_empty());
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
