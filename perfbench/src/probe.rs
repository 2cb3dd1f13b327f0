//! Micro probes: public functions of single layers timed directly, on
//! inputs shaped like the drives' hot loop.

use spider_radio::{LossModel, Propagation};
use spider_simcore::{EventQueue, SimDuration, SimRng, SimTime};
use spider_tcpsim::{TcpConfig, TcpReceiver, TcpSender};
use spider_wire::TcpSegment;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

const QUEUE_OPS: u64 = 2_000_000;
/// Pending events in the probe queue: the world's pre-sized steady
/// state for a dense deployment.
const QUEUE_PENDING: u64 = 1_024;
const LOSS_OPS: usize = 4_000_000;
const TCP_SEGMENTS: u64 = 200_000;

/// All three probes, as `(metric, ns per operation)`.
pub fn all() -> Vec<(String, f64)> {
    vec![
        ("simcore.queue.ns_per_op".into(), queue()),
        ("radio.loss.ns_per_op".into(), loss()),
        ("tcpsim.segment.ns_per_op".into(), tcp_segment()),
    ]
}

/// `EventQueue::schedule` plus `pop` at a steady population, with
/// delays up to one beacon interval.
pub fn queue() -> f64 {
    let mut rng = SimRng::new(11).stream("queue-probe");
    let delays: Vec<u64> = (0..4_096).map(|_| rng.uniform_u64(1, 102_400)).collect();
    let mut q: EventQueue<u64> = EventQueue::with_capacity(QUEUE_PENDING as usize);
    for i in 0..QUEUE_PENDING {
        q.schedule(SimTime::from_micros(delays[i as usize]), i);
    }
    let t = Instant::now();
    let mut sum = 0u64;
    for i in 0..QUEUE_OPS {
        let ev = q.pop().expect("the probe queue never drains");
        sum = sum.wrapping_add(ev.event);
        let d = SimDuration::from_micros(delays[(i % 4_096) as usize]);
        q.schedule(ev.at + d, i);
    }
    black_box(sum);
    t.elapsed().as_nanos() as f64 / QUEUE_OPS as f64
}

/// `LossModel::loss_probability_sq` for the drives' distance-ramp model,
/// at distances spread over the outdoor range.
pub fn loss() -> f64 {
    let model = LossModel::DistanceRamp {
        base: 0.05,
        edge_start: 0.6,
    };
    let range = Propagation::outdoor().range_m;
    let mut rng = SimRng::new(12).stream("loss-probe");
    let d2: Vec<f64> = (0..4_096)
        .map(|_| {
            let d = rng.uniform_in(0.0, range);
            d * d
        })
        .collect();
    let t = Instant::now();
    let mut sum = 0.0;
    for i in 0..LOSS_OPS {
        sum += model.loss_probability_sq(black_box(d2[i % d2.len()]), range);
    }
    black_box(sum);
    t.elapsed().as_nanos() as f64 / LOSS_OPS as f64
}

/// One data segment from `TcpSender` into `TcpReceiver` and its ACK back,
/// over a loss-free pipe with a 1 ms hop.
pub fn tcp_segment() -> f64 {
    let mut sender = TcpSender::new(TcpConfig::default(), 80, 5_000, 1_000);
    let mut receiver = TcpReceiver::new(5_000, 80, 7_000);
    let mut now = SimTime::ZERO;
    let hop = SimDuration::from_millis(1);
    let mut to_receiver: VecDeque<TcpSegment> = VecDeque::new();
    let mut out = Vec::new();
    // Handshake.
    let syn = receiver.connect(now);
    sender.on_segment_into(now, &syn, &mut out);
    to_receiver.extend(out.drain(..));

    let t = Instant::now();
    let mut segments = 0u64;
    while segments < TCP_SEGMENTS {
        let Some(seg) = to_receiver.pop_front() else {
            now += hop;
            sender.poll_into(now, &mut out);
            assert!(
                !out.is_empty(),
                "TCP probe stalled after {segments} segments"
            );
            to_receiver.extend(out.drain(..));
            continue;
        };
        now += hop;
        if let Some(ack) = receiver.on_segment(now, &seg) {
            sender.on_segment_into(now, &ack, &mut out);
            to_receiver.extend(out.drain(..));
        }
        segments += 1;
    }
    black_box(receiver.delivered);
    t.elapsed().as_nanos() as f64 / segments as f64
}
