//! The receiving (client) side of a bulk TCP download.
//!
//! Initiates the connection (SYN), acknowledges cumulatively (duplicate
//! ACKs arise naturally from out-of-order arrivals), reassembles
//! out-of-order segments, and counts in-order delivered bytes — the
//! quantity every throughput figure in the paper measures.

use spider_simcore::{SimDuration, SimTime};
use spider_wire::tcp::{seq_le, seq_lt};
use spider_wire::{TcpFlags, TcpSegment};

/// Receiver connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed,
    SynSent,
    Established,
    Failed,
}

/// The client-side receiver.
#[derive(Debug, Clone)]
pub struct TcpReceiver {
    state: State,
    src_port: u16,
    dst_port: u16,
    iss: u32,
    rcv_nxt: u32,
    window: u32,
    /// Out-of-order ranges `(start, end)`, disjoint, sorted by wrapped
    /// offset from `rcv_nxt`.
    ooo: Vec<(u32, u32)>,
    syn_deadline: SimTime,
    syn_attempts: u32,
    max_syn_attempts: u32,
    syn_timeout: SimDuration,
    /// Cumulative in-order payload bytes delivered to the application.
    pub delivered: u64,
    /// Duplicate ACKs emitted (observability).
    pub dupacks_sent: u64,
}

impl TcpReceiver {
    /// Create a closed receiver for the 4-tuple.
    pub fn new(src_port: u16, dst_port: u16, iss: u32) -> TcpReceiver {
        TcpReceiver {
            state: State::Closed,
            src_port,
            dst_port,
            iss,
            rcv_nxt: 0,
            window: 64 * 1024,
            ooo: Vec::new(),
            syn_deadline: SimTime::MAX,
            syn_attempts: 0,
            max_syn_attempts: 5,
            syn_timeout: SimDuration::from_millis(500),
            delivered: 0,
            dupacks_sent: 0,
        }
    }

    /// Whether the handshake completed.
    pub fn is_established(&self) -> bool {
        self.state == State::Established
    }

    /// Whether connection setup was abandoned.
    pub fn has_failed(&self) -> bool {
        self.state == State::Failed
    }

    /// Initiate the connection; returns the SYN to transmit.
    pub fn connect(&mut self, now: SimTime) -> TcpSegment {
        self.state = State::SynSent;
        self.syn_attempts = 1;
        self.syn_deadline = now + self.syn_timeout;
        self.seg(self.iss, TcpFlags::SYN, 0, 0)
    }

    fn seg(&self, seq: u32, flags: TcpFlags, ack: u32, payload_len: u32) -> TcpSegment {
        TcpSegment {
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq,
            ack,
            window: self.window,
            flags,
            payload_len,
        }
    }

    fn ack_now(&self) -> TcpSegment {
        self.seg(self.iss.wrapping_add(1), TcpFlags::ACK, self.rcv_nxt, 0)
    }

    /// Process a segment from the sender; returns the ACK to transmit,
    /// if any. A cumulative-ACK receiver never emits more than one ACK
    /// per arriving segment, so the return type says so: the hot data
    /// path pays no per-segment allocation for the answer.
    pub fn on_segment(&mut self, _now: SimTime, seg: &TcpSegment) -> Option<TcpSegment> {
        if seg.dst_port != self.src_port || seg.src_port != self.dst_port {
            return None;
        }
        match self.state {
            State::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == self.iss.wrapping_add(1) {
                    self.state = State::Established;
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.syn_deadline = SimTime::MAX;
                    Some(self.ack_now())
                } else {
                    None
                }
            }
            State::Established => {
                if seg.flags.syn && seg.flags.ack {
                    // Our handshake ACK was lost; repeat it.
                    return Some(self.ack_now());
                }
                if seg.payload_len == 0 {
                    return None;
                }
                let start = seg.seq;
                let end = seg.seq.wrapping_add(seg.payload_len);
                if seq_le(end, self.rcv_nxt) {
                    // Entirely old data: ack again.
                    self.dupacks_sent += 1;
                    return Some(self.ack_now());
                }
                if start == self.rcv_nxt {
                    self.deliver_to(end);
                    self.drain_ooo();
                } else if seq_lt(self.rcv_nxt, start) {
                    self.insert_ooo(start, end);
                    self.dupacks_sent += 1;
                } else {
                    // Partial overlap from the left.
                    self.deliver_to(end);
                    self.drain_ooo();
                }
                Some(self.ack_now())
            }
            State::Closed | State::Failed => None,
        }
    }

    fn deliver_to(&mut self, end: u32) {
        let n = end.wrapping_sub(self.rcv_nxt);
        self.delivered += n as u64;
        self.rcv_nxt = end;
    }

    fn insert_ooo(&mut self, start: u32, end: u32) {
        // Merge into the disjoint range set (all within a 2^31 window of
        // rcv_nxt, so wrapped offsets order correctly).
        let base = self.rcv_nxt;
        let off = |x: u32| x.wrapping_sub(base);
        let mut ranges = std::mem::take(&mut self.ooo);
        ranges.push((start, end));
        ranges.sort_by_key(|&(s, _)| off(s));
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(ranges.len());
        for (s, e) in ranges {
            if let Some(last) = merged.last_mut() {
                if off(s) <= off(last.1) {
                    if off(e) > off(last.1) {
                        last.1 = e;
                    }
                    continue;
                }
            }
            merged.push((s, e));
        }
        // Bound memory: keep at most 64 ranges (drop the furthest).
        merged.truncate(64);
        self.ooo = merged;
    }

    fn drain_ooo(&mut self) {
        while let Some(pos) = self.ooo.iter().position(|&(s, _)| seq_le(s, self.rcv_nxt)) {
            let (_, e) = self.ooo.remove(pos);
            if seq_lt(self.rcv_nxt, e) {
                self.deliver_to(e);
            }
        }
    }

    /// Timer processing: SYN retransmission. Transmissions only happen
    /// while `on_channel`.
    pub fn poll(&mut self, now: SimTime, on_channel: bool) -> Option<TcpSegment> {
        if self.state != State::SynSent || now < self.syn_deadline {
            return None;
        }
        if self.syn_attempts >= self.max_syn_attempts {
            self.state = State::Failed;
            self.syn_deadline = SimTime::MAX;
            return None;
        }
        if !on_channel {
            self.syn_deadline = now + self.syn_timeout;
            return None;
        }
        self.syn_attempts += 1;
        self.syn_deadline = now + self.syn_timeout * 2u64.pow(self.syn_attempts.min(6));
        Some(self.seg(self.iss, TcpFlags::SYN, 0, 0))
    }

    /// Next instant `poll` must run.
    pub fn next_wakeup(&self) -> SimTime {
        self.syn_deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synack(seq: u32, ack: u32) -> TcpSegment {
        TcpSegment {
            src_port: 80,
            dst_port: 5000,
            seq,
            ack,
            window: 65_535,
            flags: TcpFlags::SYN_ACK,
            payload_len: 0,
        }
    }

    fn data(seq: u32, len: u32) -> TcpSegment {
        TcpSegment {
            src_port: 80,
            dst_port: 5000,
            seq,
            ack: 0,
            window: 65_535,
            flags: TcpFlags::ACK,
            payload_len: len,
        }
    }

    fn established() -> TcpReceiver {
        let mut r = TcpReceiver::new(5000, 80, 100);
        let syn = r.connect(SimTime::ZERO);
        assert!(syn.flags.syn);
        let out = r.on_segment(SimTime::from_millis(10), &synack(1000, 101));
        assert_eq!(out.unwrap().ack, 1001);
        assert!(r.is_established());
        r
    }

    #[test]
    fn in_order_delivery_advances_ack() {
        let mut r = established();
        let out = r.on_segment(SimTime::from_millis(20), &data(1001, 1000));
        assert_eq!(out.unwrap().ack, 2001);
        assert_eq!(r.delivered, 1000);
        let out = r.on_segment(SimTime::from_millis(30), &data(2001, 500));
        assert_eq!(out.unwrap().ack, 2501);
        assert_eq!(r.delivered, 1500);
    }

    #[test]
    fn gap_generates_dupacks_until_filled() {
        let mut r = established();
        r.on_segment(SimTime::from_millis(20), &data(1001, 1000)); // ack 2001
                                                                   // Segment after a hole.
        let out = r.on_segment(SimTime::from_millis(30), &data(3001, 1000));
        assert_eq!(out.unwrap().ack, 2001, "dup ack at the hole");
        let out = r.on_segment(SimTime::from_millis(31), &data(4001, 1000));
        assert_eq!(out.unwrap().ack, 2001);
        assert_eq!(r.dupacks_sent, 2);
        assert_eq!(r.delivered, 1000);
        // Filling the hole delivers everything buffered.
        let out = r.on_segment(SimTime::from_millis(40), &data(2001, 1000));
        assert_eq!(out.unwrap().ack, 5001);
        assert_eq!(r.delivered, 4000);
    }

    #[test]
    fn duplicate_data_is_reacked_not_recounted() {
        let mut r = established();
        r.on_segment(SimTime::from_millis(20), &data(1001, 1000));
        let out = r.on_segment(SimTime::from_millis(25), &data(1001, 1000));
        assert_eq!(out.unwrap().ack, 2001);
        assert_eq!(r.delivered, 1000);
    }

    #[test]
    fn overlapping_segment_delivers_only_new_bytes() {
        let mut r = established();
        r.on_segment(SimTime::from_millis(20), &data(1001, 1000));
        // Overlaps 500 old + 500 new.
        let out = r.on_segment(SimTime::from_millis(25), &data(1501, 1000));
        assert_eq!(out.unwrap().ack, 2501);
        assert_eq!(r.delivered, 1500);
    }

    #[test]
    fn lost_synack_triggers_retransmit_with_backoff() {
        let mut r = TcpReceiver::new(5000, 80, 100);
        r.connect(SimTime::ZERO);
        let d1 = r.next_wakeup();
        assert_eq!(d1, SimTime::from_millis(500));
        let out = r.poll(d1, true).expect("one SYN retransmission");
        assert!(out.flags.syn);
        assert!(r.next_wakeup().saturating_since(d1) > SimDuration::from_millis(500));
    }

    #[test]
    fn syn_gives_up_eventually() {
        let mut r = TcpReceiver::new(5000, 80, 100);
        r.connect(SimTime::ZERO);
        for _ in 0..10 {
            let t = r.next_wakeup();
            if t == SimTime::MAX {
                break;
            }
            r.poll(t, true);
        }
        assert!(r.has_failed());
    }

    #[test]
    fn syn_retransmit_waits_for_channel() {
        let mut r = TcpReceiver::new(5000, 80, 100);
        r.connect(SimTime::ZERO);
        let d1 = r.next_wakeup();
        // Off-channel: the deadline slides forward instead of firing.
        assert!(r.poll(d1, false).is_none());
        let d2 = r.next_wakeup();
        assert!(d2 > d1);
        // Back on channel past the slid deadline: one retransmission.
        assert!(r.poll(d2, true).is_some());
    }

    #[test]
    fn repeated_synack_is_reacked() {
        let mut r = established();
        let out = r.on_segment(SimTime::from_millis(50), &synack(1000, 101));
        assert_eq!(out.unwrap().ack, 1001);
    }

    #[test]
    fn foreign_ports_ignored() {
        let mut r = established();
        let mut seg = data(1001, 100);
        seg.src_port = 9999;
        assert!(r.on_segment(SimTime::ZERO, &seg).is_none());
    }

    #[test]
    fn many_out_of_order_ranges_merge() {
        let mut r = established();
        // Deliver every other segment first.
        for i in 0..10u32 {
            r.on_segment(
                SimTime::from_millis(20),
                &data(1001 + (2 * i + 1) * 100, 100),
            );
        }
        assert_eq!(r.delivered, 0);
        // Now fill the even slots.
        for i in 0..10u32 {
            r.on_segment(SimTime::from_millis(30), &data(1001 + (2 * i) * 100, 100));
        }
        assert_eq!(r.delivered, 2000);
    }
}
