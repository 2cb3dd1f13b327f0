//! A deterministic timestamped event queue.
//!
//! Events scheduled for the same instant are delivered in the order they
//! were scheduled (FIFO tie-breaking via a monotonically increasing
//! sequence number). This makes simulation runs reproducible regardless of
//! how the queue's internal layout happens to order equal keys.
//!
//! # Implementation: a calendar queue
//!
//! The queue is the hottest container in the engine — a dense run pushes
//! and pops millions of events — so it is a *calendar queue* (a timing
//! wheel over absolute simulated time) rather than a binary heap. Time is
//! divided into fixed-width buckets; an event lands in the bucket its
//! timestamp falls into, and `pop` drains the wheel bucket by bucket.
//! Because simulation events overwhelmingly fire within milliseconds of
//! being scheduled (beacon intervals, MAC timers, backhaul latencies),
//! buckets hold only a handful of events each: a push is an O(1) append
//! and a pop is a short scan of one tiny bucket, where a heap pays a
//! multi-level sift through scattered cache lines on every operation.
//!
//! Events further ahead than one wheel revolution simply stay in their
//! bucket across laps; the drain loop skips anything outside the current
//! bucket's time window, so a long-horizon timer is rescanned once per
//! lap until its lap arrives. Such events are rare (housekeeping and
//! lease timers), which keeps the amortised cost flat.
//!
//! # Determinism
//!
//! `pop` always removes the entry minimising the key `(at, seq)`, and
//! that key is **total and unique** (`seq` never repeats). The pop
//! sequence is therefore fully determined by the schedule calls alone —
//! bucket layout, scan order, and `swap_remove` shuffling can never leak
//! into observable order.

use crate::time::SimTime;
use std::cmp::Ordering;

/// An event of type `E` scheduled to fire at [`ScheduledEvent::at`].
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Scheduling sequence number; earlier-scheduled events with the same
    /// timestamp fire first.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: convenient for max-heap containers that want
        // the earliest event (lowest time, then lowest seq) on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// log2 of the bucket width in microseconds (512 µs). Chosen so the mean
/// inter-event gap of a dense simulation (~400 µs) advances the wheel by
/// roughly one bucket per pop, and a bucket holds one or two events.
const BUCKET_SHIFT: u64 = 9;

/// Number of buckets in the wheel (must be a power of two). One
/// revolution spans `1024 × 512 µs ≈ 0.5 s` of simulated time, which
/// covers almost every scheduling horizon the simulator uses.
const NUM_BUCKETS: usize = 1024;

const BUCKET_MASK: u64 = (NUM_BUCKETS as u64) - 1;

/// A deterministic event queue (see the module docs for the calendar-
/// queue design and the determinism argument).
///
/// ```
/// use spider_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(10), "b");
/// q.schedule(SimTime::from_millis(5), "a");
/// q.schedule(SimTime::from_millis(10), "c");
/// assert_eq!(q.pop().unwrap().event, "a");
/// assert_eq!(q.pop().unwrap().event, "b"); // FIFO among equal times
/// assert_eq!(q.pop().unwrap().event, "c");
/// ```
// Clone is the checkpoint/fork hook (DESIGN.md §13): a cloned queue
// carries the full wheel — cursor, pending events, `next_seq`, and the
// causality clock — so a forked world replays the exact `(at, seq)` pop
// sequence the original would have produced.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The wheel. `buckets[(at_µs >> BUCKET_SHIFT) & BUCKET_MASK]` holds
    /// every pending event whose timestamp maps there, from any lap.
    buckets: Vec<Vec<ScheduledEvent<E>>>,
    /// The bucket window currently being drained, as an absolute bucket
    /// number (`at_µs >> BUCKET_SHIFT`, *not* masked). Invariant: no
    /// pending event fires before this window opens.
    cursor: u64,
    /// Pending event count.
    len: usize,
    next_seq: u64,
    last_popped: SimTime,
    /// Key of the most recently popped event. The pop sequence must be
    /// strictly increasing in `(at, seq)`; anything else means bucket
    /// bookkeeping has corrupted the total order (DESIGN.md §11).
    #[cfg(debug_assertions)]
    last_popped_key: Option<(SimTime, u64)>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            cursor: 0,
            len: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
            #[cfg(debug_assertions)]
            last_popped_key: None,
        }
    }

    /// Create an empty queue sized for roughly `capacity` pending events.
    /// Worlds that know their steady-state event population (beacons in
    /// flight, pending downlinks, timers) pre-size the buckets once
    /// instead of growing them in the hot loop.
    pub fn with_capacity(capacity: usize) -> Self {
        let per_bucket = capacity / NUM_BUCKETS + usize::from(capacity > 0);
        EventQueue {
            buckets: (0..NUM_BUCKETS)
                .map(|_| Vec::with_capacity(per_bucket))
                .collect(),
            cursor: 0,
            len: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
            #[cfg(debug_assertions)]
            last_popped_key: None,
        }
    }

    /// Schedule `event` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the timestamp of the last event
    /// popped — scheduling into the past would violate causality.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.last_popped,
            "event scheduled into the past: {} < {}",
            at,
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let window = at.as_micros() >> BUCKET_SHIFT;
        // A `pop_before` that found nothing may have stepped the cursor
        // past `now` up to its limit; an event landing behind the cursor
        // rewinds it, or `pop` would find it only a whole lap late.
        self.cursor = self.cursor.min(window);
        let idx = (window & BUCKET_MASK) as usize;
        self.buckets[idx].push(ScheduledEvent { at, seq, event });
        self.len += 1;
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.len == 0 {
            return None;
        }
        loop {
            // The current bucket's half-open time window ends where the
            // next bucket's begins; events in this bucket from a future
            // lap fall outside it and are skipped.
            let window_end = SimTime::from_micros((self.cursor + 1) << BUCKET_SHIFT);
            let bucket = &mut self.buckets[(self.cursor & BUCKET_MASK) as usize];
            let mut best: Option<(usize, SimTime, u64)> = None;
            for (i, e) in bucket.iter().enumerate() {
                if e.at < window_end && best.is_none_or(|(_, at, seq)| (e.at, e.seq) < (at, seq)) {
                    best = Some((i, e.at, e.seq));
                }
            }
            if let Some((i, _, _)) = best {
                // swap_remove is fine: selection is by the unique
                // (at, seq) key, never by position.
                let ev = bucket.swap_remove(i);
                self.len -= 1;
                self.last_popped = ev.at;
                #[cfg(debug_assertions)]
                {
                    let key = (ev.at, ev.seq);
                    assert!(
                        self.last_popped_key.is_none_or(|prev| key > prev),
                        "event queue popped out of order: ({}, seq {}) after {:?}",
                        ev.at,
                        ev.seq,
                        self.last_popped_key,
                    );
                    self.last_popped_key = Some(key);
                }
                return Some(ev);
            }
            self.cursor += 1;
        }
    }

    /// Remove and return the earliest event if it fires at or before
    /// `limit`; otherwise leave the queue untouched and return `None`.
    ///
    /// This is the bounded form of [`pop`](Self::pop) used by
    /// checkpointing: a world drains everything up to a snapshot point
    /// with `pop_before`, clones itself, and either copy can resume with
    /// plain `pop` — the wheel cursor only ever advances past windows
    /// proven empty, and `schedule` rewinds it for an event behind it, so
    /// the remaining pop sequence is identical to an uninterrupted run's.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<ScheduledEvent<E>> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Invariant: no pending event fires before the cursor's
            // window opens, so once the window starts after `limit` no
            // pending event can fire at or before it.
            let window_start = SimTime::from_micros(self.cursor << BUCKET_SHIFT);
            if window_start > limit {
                return None;
            }
            let window_end = SimTime::from_micros((self.cursor + 1) << BUCKET_SHIFT);
            let bucket = &mut self.buckets[(self.cursor & BUCKET_MASK) as usize];
            let mut best: Option<(usize, SimTime, u64)> = None;
            for (i, e) in bucket.iter().enumerate() {
                if e.at < window_end && best.is_none_or(|(_, at, seq)| (e.at, e.seq) < (at, seq)) {
                    best = Some((i, e.at, e.seq));
                }
            }
            if let Some((i, at, _)) = best {
                // The best event in the open window is the global
                // minimum (later windows hold strictly later events), so
                // if it fires after `limit` nothing eligible remains.
                // Leave it in place for a future `pop`.
                if at > limit {
                    return None;
                }
                let ev = bucket.swap_remove(i);
                self.len -= 1;
                self.last_popped = ev.at;
                #[cfg(debug_assertions)]
                {
                    let key = (ev.at, ev.seq);
                    assert!(
                        self.last_popped_key.is_none_or(|prev| key > prev),
                        "event queue popped out of order: ({}, seq {}) after {:?}",
                        ev.at,
                        ev.seq,
                        self.last_popped_key,
                    );
                    self.last_popped_key = Some(key);
                }
                return Some(ev);
            }
            self.cursor += 1;
        }
    }

    /// Timestamp of the earliest pending event.
    ///
    /// O(pending) — the calendar layout has no cheap global minimum.
    /// The simulator's hot loop never peeks (it pops), so this is only
    /// used by diagnostics and tests.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.buckets
            .iter()
            .flatten()
            .map(|e| (e.at, e.seq))
            .min()
            .map(|(at, _)| at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Timestamp of the most recently popped event (the queue's notion of
    /// "now").
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Drop every pending event and rewind the clock to t=0 (used when
    /// resetting a world between experiment repetitions without
    /// reallocating). Without the rewind, a reused queue would inherit
    /// the previous run's `now()` and reject perfectly valid schedules
    /// at the start of the next repetition as "into the past".
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.cursor = 0;
        self.len = 0;
        self.next_seq = 0;
        self.last_popped = SimTime::ZERO;
        #[cfg(debug_assertions)]
        {
            self.last_popped_key = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), 3);
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(10), 2);
        q.schedule(SimTime::from_micros(40), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_millis(2), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn rejects_causality_violation() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), ());
        q.pop();
        q.schedule(SimTime::from_millis(1), ());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_millis(7), 'x');
        q.schedule(SimTime::from_millis(3), 'y');
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_resets_the_clock_for_reuse() {
        // Regression: `clear()` used to leave `last_popped` at the old
        // run's final timestamp, so re-scheduling from t=0 on a reused
        // queue panicked with a spurious causality violation.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(100), ());
        q.pop();
        q.clear();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_millis(1), ()); // must not panic
        assert_eq!(q.pop().unwrap().at, SimTime::from_millis(1));
        // Sequence numbers restart too, keeping reruns bit-identical.
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.is_empty());
        q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(1), 2);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
    }

    #[test]
    fn events_beyond_one_wheel_revolution() {
        // One revolution spans NUM_BUCKETS << BUCKET_SHIFT microseconds;
        // events several laps out must still come back in global order.
        let lap_us = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(3 * lap_us + 17), "far");
        q.schedule(SimTime::from_micros(17), "near"); // same bucket, lap 0
        q.schedule(SimTime::from_micros(lap_us + 17), "mid");
        assert_eq!(q.pop().unwrap().event, "near");
        assert_eq!(q.pop().unwrap().event, "mid");
        assert_eq!(q.pop().unwrap().event, "far");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_before_respects_the_limit_and_resumes() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(5), 5);
        q.schedule(SimTime::from_millis(5), 6);
        q.schedule(SimTime::from_secs(2), 9); // several laps ahead
        let limit = SimTime::from_millis(5);
        let drained: Vec<i32> =
            std::iter::from_fn(|| q.pop_before(limit).map(|e| e.event)).collect();
        assert_eq!(drained, vec![1, 5, 6]);
        assert_eq!(q.len(), 1);
        // A later event stays queued and comes out of a plain pop.
        assert_eq!(q.pop().unwrap().event, 9);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_before_limit_inside_a_bucket_window() {
        // Two events share a bucket; the limit falls between them. The
        // later one must survive in place, not be skipped past.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(100), "early");
        q.schedule(SimTime::from_micros(200), "late"); // same 512 µs bucket
        assert_eq!(
            q.pop_before(SimTime::from_micros(150)).unwrap().event,
            "early"
        );
        assert_eq!(q.pop_before(SimTime::from_micros(150)), None);
        assert_eq!(q.pop().unwrap().event, "late");
    }

    #[test]
    fn cloned_queue_replays_the_same_pop_sequence() {
        let mut q = EventQueue::new();
        let lap_us = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        for (i, at) in [17u64, 17, 900, lap_us + 17, 3 * lap_us + 4]
            .into_iter()
            .enumerate()
        {
            q.schedule(SimTime::from_micros(at), i);
        }
        // Drain a prefix so the clone carries a mid-run cursor and clock.
        q.pop_before(SimTime::from_micros(1_000));
        let mut fork = q.clone();
        let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| (e.at, e.seq, e.event))).collect();
        let forked: Vec<_> =
            std::iter::from_fn(|| fork.pop().map(|e| (e.at, e.seq, e.event))).collect();
        assert_eq!(rest, forked);
        // Fresh schedules on the fork continue the same seq stream.
        fork.clear();
        q.clear();
        q.schedule(SimTime::from_millis(1), 99);
        fork.schedule(SimTime::from_millis(1), 99);
        assert_eq!(q.pop().unwrap().seq, fork.pop().unwrap().seq);
    }

    #[test]
    fn schedule_behind_a_bounded_miss_is_popped_first() {
        // Regression: a `pop_before` that finds nothing steps the cursor
        // up to its limit's window. An event then scheduled behind the
        // cursor used to come out a whole wheel lap late.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "late");
        assert_eq!(q.pop_before(SimTime::from_millis(5)), None);
        q.schedule(SimTime::from_micros(5_010), "early");
        assert_eq!(q.pop().unwrap().event, "early");
        assert_eq!(q.pop().unwrap().event, "late");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop_matches_reference() {
        // Differential test against an ordered-set reference model, with
        // schedules interleaved between pops the way the simulator does
        // it (every dispatched event schedules follow-ups near `now`),
        // and some pops bounded by a limit that may fall short of the
        // earliest event (the checkpointing path).
        check("interleaved_schedule_and_pop_matches_reference", 32, |g| {
            let mut q = EventQueue::new();
            let mut reference = std::collections::BTreeSet::new(); // (at_µs, seq)
            let mut seq = 0u64;
            let mut t = 0u64;
            let mut misses = 0;
            // Up to 2 s ahead: several laps of the wheel.
            for at in g.vec(1..64, |g| g.u64(0..2_000_000)) {
                q.schedule(SimTime::from_micros(at), seq);
                reference.insert((at, seq));
                seq += 1;
            }
            loop {
                let limit = (g.u64(0..4) == 0).then(|| t + g.u64(0..50_000));
                let popped = match limit {
                    Some(l) => q.pop_before(SimTime::from_micros(l)),
                    None => q.pop(),
                };
                match (popped, reference.first().copied()) {
                    (Some(ev), Some((at, s))) => {
                        reference.pop_first();
                        assert_eq!((ev.at.as_micros(), ev.seq), (at, s));
                        assert_eq!(ev.event, s);
                        assert!(limit.is_none_or(|l| at <= l), "popped past the limit");
                        t = at;
                    }
                    (Some(ev), None) => panic!("popped {:?} from an empty model", ev.at),
                    (None, None) if limit.is_none() => break,
                    (None, None) => {}
                    (None, Some((at, _))) => {
                        let l = limit.expect("an unbounded pop missed a pending event");
                        assert!(at > l, "bounded pop missed an event at {at} µs <= {l} µs");
                        misses += 1;
                    }
                }
                // Schedule follow-ups relative to the last popped time,
                // also right after a bounded miss: about one per pop for
                // the first few thousand events, then sparsely so the
                // queue drains.
                let follow_ups = match seq {
                    0..2_000 => g.u64(0..3),
                    _ if g.u64(0..3) == 0 => g.u64(0..4),
                    _ => 0,
                };
                for _ in 0..follow_ups {
                    let at = t + g.u64(0..300_000);
                    q.schedule(SimTime::from_micros(at), seq);
                    reference.insert((at, seq));
                    seq += 1;
                }
            }
            assert!(reference.is_empty());
            assert!(
                misses > 0,
                "no bounded pop fell short of the earliest event"
            );
        });
    }

    /// Popping always yields a non-decreasing time sequence, and events
    /// scheduled at identical instants come out in scheduling order.
    #[test]
    fn pop_order_is_sorted() {
        check("pop_order_is_sorted", 256, |g| {
            let times = g.vec(1..200, |g| g.u64(0..1_000));
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(t), i);
            }
            let mut prev: Option<(SimTime, usize)> = None;
            let mut popped = 0;
            while let Some(ev) = q.pop() {
                popped += 1;
                if let Some((at, i)) = prev {
                    assert!(ev.at >= at, "{} popped after {at}", ev.at);
                    assert!(
                        ev.at > at || ev.event > i,
                        "FIFO violated at {at}: event {} after {i}",
                        ev.event
                    );
                }
                prev = Some((ev.at, ev.event));
            }
            assert_eq!(popped, times.len());
        });
    }

    /// The debug-build pop-order guard must demonstrably fire. The
    /// only way to violate the total order from safe code is to corrupt
    /// internal state, which only this module can do.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "popped out of order")]
    fn validate_guard_catches_out_of_order_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), ());
        // Pretend a later event was already popped.
        q.last_popped_key = Some((SimTime::from_secs(1), u64::MAX));
        q.pop();
    }
}
