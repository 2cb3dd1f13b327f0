//! Fixture: an unordered hash-map iterator chain feeding an
//! aggregation path, with no sort and no allow.

pub struct Tally {
    pub counts: FxHashMap<u16, u64>,
}

pub fn bad_rows(t: &Tally) -> Vec<(u16, u64)> {
    t.counts.iter().map(|(k, v)| (*k, *v)).collect()
}

pub fn good_rows(t: &Tally) -> Vec<u16> {
    let mut ks: Vec<u16> = t.counts.keys().copied().collect();
    ks.sort_unstable();
    ks
}

pub fn summed(t: &Tally) -> u64 {
    // Commutative fold, order cannot leak: lint:allow(hash-iter)
    t.counts.values().sum()
}

/// A `for` loop is clippy's `iter_over_hash_type`; must NOT fire here.
pub fn looped(t: &Tally, out: &mut Vec<u64>) {
    for v in t.counts.values() {
        out.push(*v);
    }
}
