//! Fixture: the snapshot-completeness walk. `World` here is the
//! checkpoint root (crate `workloads`, type `World`); `MiniQueue` is
//! Clone-covered, `Recorder` is not, and `Profiled` escapes a clippy
//! ban — the rule must fire exactly twice: at the field that
//! references `Recorder`, and at the escape inside `Profiled`.

#[derive(Clone)]
pub struct World {
    pub queue: MiniQueue,
    pub probe: Recorder,
    pub horizon: u64,
    pub timing: Profiled,
}

#[derive(Clone)]
pub struct MiniQueue {
    pub depth: usize,
}

/// Not `Clone`: reachable from `World`, so forks would silently lose
/// whatever it held.
pub struct Recorder {
    pub frames: u64,
}

/// Clippy is told the `Instant` is fine, but a fork would copy it.
#[derive(Clone)]
pub struct Profiled {
    #[allow(clippy::disallowed_types, reason = "profiling hook")]
    pub started: std::time::Instant,
}

/// The same escape on a type `World` cannot reach is fine.
pub struct Probe {
    #[allow(clippy::disallowed_types, reason = "profiling hook")]
    pub started: std::time::Instant,
}
