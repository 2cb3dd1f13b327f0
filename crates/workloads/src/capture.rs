//! Frame capture — the simulator's pcap, kept in memory.
//!
//! When enabled on a [`WorldConfig`](crate::world::WorldConfig), every
//! frame that actually reaches an antenna is appended to the world's
//! [`Capture`] as a typed, sim-time-stamped [`CaptureRecord`], up to a
//! frame cap. [`World::captured`](crate::world::World::captured) reads
//! the records back. The capture is ordinary world state: it is cloned
//! with snapshots, so a forked run's capture equals the cold run's.

use spider_simcore::SimTime;
use spider_wire::Frame;

/// Which antenna received the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Arrived at the mobile client.
    ToClient,
    /// Arrived at an AP.
    ToAp,
}

/// One captured frame.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureRecord {
    /// Delivery time.
    pub at: SimTime,
    /// Receiving side.
    pub direction: Direction,
    /// The frame.
    pub frame: Frame,
}

/// The records of one run, bounded by a frame cap that guards memory
/// against a long drive's TCP stream.
#[derive(Debug, Clone)]
pub(crate) struct Capture {
    records: Vec<CaptureRecord>,
    cap: usize,
}

impl Capture {
    /// An empty capture keeping at most `cap` frames.
    pub fn new(cap: u64) -> Capture {
        Capture {
            records: Vec::new(),
            cap: usize::try_from(cap).unwrap_or(usize::MAX),
        }
    }

    /// Append a frame (silently ignored past the cap).
    pub fn record(&mut self, at: SimTime, direction: Direction, frame: &Frame) {
        if self.records.len() < self.cap {
            self.records.push(CaptureRecord {
                at,
                direction,
                frame: frame.clone(),
            });
        }
    }

    /// The records so far, in delivery order.
    pub fn records(&self) -> &[CaptureRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_wire::{FrameBody, MacAddr};

    fn frame(i: u64) -> Frame {
        Frame {
            src: MacAddr::from_id(i),
            dst: MacAddr::from_id(i + 1),
            bssid: MacAddr::from_id(i + 1),
            body: FrameBody::AuthRequest,
        }
    }

    #[test]
    fn records_in_order_up_to_the_cap() {
        let mut c = Capture::new(3);
        for i in 0..10u64 {
            c.record(SimTime::from_millis(i), Direction::ToAp, &frame(i));
        }
        assert_eq!(c.records().len(), 3);
        assert_eq!(c.records()[2].at, SimTime::from_millis(2));
        assert_eq!(c.records()[2].direction, Direction::ToAp);
        assert_eq!(c.records()[2].frame, frame(2));
    }
}
