//! Fixture: a hand-cooked `SimRng` seed outside `simcore::rng`.

pub fn per_site_stream(seed: u64, site: u64) -> SimRng {
    SimRng::new(seed ^ site.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub fn plain_root(seed: u64) -> SimRng {
    // A plain root seed is fine — derivation starts recorded from here.
    SimRng::new(seed)
}

pub fn escaped(seed: u64) -> SimRng {
    // lint:allow(rng-derivation) -- fixture: escaped cooked seed must not fire
    SimRng::new(seed ^ 0xDEAD_BEEF)
}

/// Multi-line statement under a standalone allow: the escape must
/// cover the continuation line the token lands on (regression test
/// for statement-span allow scoping). Must NOT fire.
pub fn escaped_multiline(seed: u64) -> SimRng {
    // test hook, documented: lint:allow(rng-derivation)
    Some(seed)
        .map(|s| SimRng::new(s ^ 0xF00D))
        .unwrap()
}
