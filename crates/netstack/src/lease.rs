//! DHCP leases and the per-BSSID lease cache.

use spider_simcore::{FxHashMap, SimTime};
use spider_wire::{Ipv4Addr, MacAddr};

/// A granted DHCP lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Address assigned to the client.
    pub ip: Ipv4Addr,
    /// The DHCP server (the AP's gateway address).
    pub server: Ipv4Addr,
    /// When the lease expires.
    pub expires: SimTime,
}

impl Lease {
    /// Whether the lease is still valid at `now`.
    pub fn valid_at(&self, now: SimTime) -> bool {
        now < self.expires
    }
}

/// A cache of leases previously obtained from specific APs, keyed by
/// BSSID. Re-encountering a cached AP lets the client skip the
/// DISCOVER/OFFER half of the exchange (DHCP INIT-REBOOT), which the
/// paper identifies as essential for multi-AP systems (§2.1.2).
#[derive(Debug, Clone, Default)]
pub struct LeaseCache {
    entries: FxHashMap<MacAddr, Lease>,
    /// No entry expires before this instant: a lower bound on every
    /// entry's `expires`, lowered by `insert` and made exact by each
    /// sweep (the first sweep sets it). Removals only raise the true
    /// minimum.
    sweep_due: SimTime,
    /// Cache hits observed (for experiment reporting).
    pub hits: u64,
    /// Cache misses observed.
    pub misses: u64,
}

impl LeaseCache {
    /// Create an empty cache.
    pub fn new() -> LeaseCache {
        LeaseCache::default()
    }

    /// Store a lease obtained from `bssid`.
    pub fn insert(&mut self, bssid: MacAddr, lease: Lease) {
        self.sweep_due = self.sweep_due.min(lease.expires);
        self.entries.insert(bssid, lease);
    }

    /// Look up a still-valid lease for `bssid`, recording hit/miss
    /// statistics and evicting the entry if it has expired.
    pub fn lookup(&mut self, now: SimTime, bssid: MacAddr) -> Option<Lease> {
        match self.entries.get(&bssid) {
            Some(l) if l.valid_at(now) => {
                self.hits += 1;
                Some(*l)
            }
            Some(_) => {
                self.entries.remove(&bssid);
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Remove a lease (e.g. after the server NAKs a re-confirmation).
    pub fn invalidate(&mut self, bssid: MacAddr) {
        self.entries.remove(&bssid);
    }

    /// Drop every expired lease. `lookup` evicts lazily on access;
    /// this is the periodic sweep (driver housekeeping) that keeps
    /// never-revisited BSSIDs from pinning dead entries forever. It walks
    /// the entries only once the earliest one can have expired.
    /// Returns how many entries were evicted.
    pub fn evict_expired(&mut self, now: SimTime) -> usize {
        if now < self.sweep_due {
            return 0;
        }
        let before = self.entries.len();
        let mut due = SimTime::MAX;
        self.entries.retain(|_, l| {
            let keep = l.valid_at(now);
            if keep {
                due = due.min(l.expires);
            }
            keep
        });
        self.sweep_due = due;
        before - self.entries.len()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simcore::{SimDuration, SimRng};

    fn lease(expires_s: u64) -> Lease {
        Lease {
            ip: Ipv4Addr::new(10, 0, 0, 5),
            server: Ipv4Addr::new(10, 0, 0, 1),
            expires: SimTime::from_secs(expires_s),
        }
    }

    #[test]
    fn validity() {
        let l = lease(100);
        assert!(l.valid_at(SimTime::from_secs(99)));
        assert!(!l.valid_at(SimTime::from_secs(100)));
    }

    #[test]
    fn cache_hit_and_miss() {
        let mut c = LeaseCache::new();
        let ap = MacAddr::from_id(1);
        assert_eq!(c.lookup(SimTime::ZERO, ap), None);
        assert_eq!(c.misses, 1);
        c.insert(ap, lease(100));
        assert_eq!(c.lookup(SimTime::from_secs(10), ap), Some(lease(100)));
        assert_eq!(c.hits, 1);
    }

    #[test]
    fn expired_entries_are_evicted() {
        let mut c = LeaseCache::new();
        let ap = MacAddr::from_id(1);
        c.insert(ap, lease(100));
        assert_eq!(c.lookup(SimTime::from_secs(200), ap), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = LeaseCache::new();
        let ap = MacAddr::from_id(1);
        c.insert(ap, lease(100));
        c.invalidate(ap);
        assert!(c.is_empty());
    }

    #[test]
    fn evict_expired_sweeps_only_dead_entries() {
        let mut c = LeaseCache::new();
        c.insert(MacAddr::from_id(1), lease(100));
        c.insert(MacAddr::from_id(2), lease(500));
        c.insert(MacAddr::from_id(3), lease(50));
        assert_eq!(c.evict_expired(SimTime::from_secs(200)), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.lookup(SimTime::from_secs(200), MacAddr::from_id(2)),
            Some(lease(500))
        );
    }

    #[test]
    fn gated_sweep_matches_an_always_walk_reference() {
        // Differential test: one cache skips `evict_expired` until its
        // earliest lease can have expired, the other is forced to walk on
        // every 100 ms tick, under a seeded mix of inserts (re-inserts
        // included), lookups and invalidations.
        let mut rng = SimRng::new(25);
        let mut gated = LeaseCache::new();
        let mut eager = LeaseCache::new();
        let mut now = SimTime::ZERO;
        let (mut evicted, mut skipped) = (0, 0);
        for _ in 0..6_000 {
            now += SimDuration::from_millis(100);
            for _ in 0..rng.uniform_u64(0, 3) {
                let bssid = MacAddr::from_id(rng.uniform_u64(0, 40));
                match rng.index(4) {
                    0 => {
                        let l = Lease {
                            expires: now + SimDuration::from_millis(rng.uniform_u64(1, 120_000)),
                            ..lease(0)
                        };
                        gated.insert(bssid, l);
                        eager.insert(bssid, l);
                    }
                    1 | 2 => assert_eq!(gated.lookup(now, bssid), eager.lookup(now, bssid)),
                    _ => {
                        gated.invalidate(bssid);
                        eager.invalidate(bssid);
                    }
                }
            }
            skipped += usize::from(now < gated.sweep_due);
            let n = gated.evict_expired(now);
            eager.sweep_due = SimTime::ZERO;
            assert_eq!(n, eager.evict_expired(now), "evictions at {now}");
            evicted += n;
            assert_eq!(gated.entries, eager.entries, "entries at {now}");
            assert_eq!((gated.hits, gated.misses), (eager.hits, eager.misses));
        }
        assert!(evicted > 0, "the sweep never evicted anything");
        assert!(skipped > 3_000, "the gate skipped only {skipped} sweeps");
    }
}
