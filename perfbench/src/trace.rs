//! Outside-in tracing: a transparent decorator around a client system,
//! and coarse spans recorded around calls into the simulator.

use spider_mac80211::{ClientObservation, ClientSystem, DriverAction, JoinLog, RxFrame};
use spider_simcore::{Json, SimTime};
use spider_wire::{Channel, FrameBody};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-call counters of the client layer. Shared by every clone of a
/// [`Traced`] system through an `Arc`, so a forked world keeps counting
/// into the same totals and the events a fork inherits are never counted
/// twice: each call is counted once, by the world that executes it.
#[derive(Debug, Default)]
pub struct ClientCounters {
    pub on_frame_calls: AtomicU64,
    pub on_frame_ns: AtomicU64,
    pub poll_calls: AtomicU64,
    pub poll_ns: AtomicU64,
    /// Polls that emitted at least one action.
    pub poll_useful: AtomicU64,
    pub switch_done_calls: AtomicU64,
    pub switch_done_ns: AtomicU64,
    pub observe_calls: AtomicU64,
    pub observe_ns: AtomicU64,
    pub rx_beacon: AtomicU64,
    pub rx_data: AtomicU64,
    pub rx_other: AtomicU64,
    pub tx_frames: AtomicU64,
    pub switch_requests: AtomicU64,
}

fn add(c: &AtomicU64, v: u64) {
    c.fetch_add(v, Ordering::Relaxed);
}

fn get(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

impl ClientCounters {
    /// Calls the world made into the client layer, each timed once.
    pub fn calls(&self) -> u64 {
        get(&self.on_frame_calls)
            + get(&self.poll_calls)
            + get(&self.switch_done_calls)
            + get(&self.observe_calls)
    }

    /// Host seconds spent inside the client layer, less `timer_ns` (the
    /// cost of one clock-read pair, see [`timer_ns`]) per timed call.
    pub fn self_s(&self, timer_ns: f64) -> f64 {
        let ns = get(&self.on_frame_ns)
            + get(&self.poll_ns)
            + get(&self.switch_done_ns)
            + get(&self.observe_ns);
        net_ns(ns, self.calls(), timer_ns) * 1e-9
    }

    fn count_actions(&self, actions: &[DriverAction]) {
        for a in actions {
            match a {
                DriverAction::Transmit { .. } => add(&self.tx_frames, 1),
                DriverAction::SwitchChannel(_) => add(&self.switch_requests, 1),
            }
        }
    }

    /// The client-layer metrics under `prefix` (`spider` or `baselines`).
    /// `run_s` is the host time of the untraced simulation the calls
    /// stand for; call times are net of `timer_ns` per call.
    pub fn metrics(&self, prefix: &str, run_s: f64, timer_ns: f64) -> Vec<(String, f64)> {
        let polls = get(&self.poll_calls);
        let frames = get(&self.on_frame_calls);
        let self_s = self.self_s(timer_ns);
        let rows: [(&str, f64); 14] = [
            ("on_frame.calls", frames as f64),
            (
                "on_frame.ns",
                net_ns(get(&self.on_frame_ns), frames, timer_ns),
            ),
            ("poll.calls", polls as f64),
            ("poll.ns", net_ns(get(&self.poll_ns), polls, timer_ns)),
            ("switch_done.calls", get(&self.switch_done_calls) as f64),
            ("observe.calls", get(&self.observe_calls) as f64),
            ("rx.beacon", get(&self.rx_beacon) as f64),
            ("rx.data", get(&self.rx_data) as f64),
            ("rx.other", get(&self.rx_other) as f64),
            ("tx.frames", get(&self.tx_frames) as f64),
            ("switch.requests", get(&self.switch_requests) as f64),
            ("self_s", self_s),
            ("share", if run_s > 0.0 { self_s / run_s } else { 0.0 }),
            (
                "poll.useful",
                if polls > 0 {
                    get(&self.poll_useful) as f64 / polls as f64
                } else {
                    0.0
                },
            ),
        ];
        rows.iter()
            .map(|(k, v)| (format!("{prefix}.{k}"), *v))
            .collect()
    }
}

/// A client system that forwards every call to `inner` unchanged and
/// counts and times the calls the world makes into it. The allocating
/// `on_frame`, `on_switch_complete` and `poll` keep the trait's defaults,
/// which route through the counted `*_into` methods.
#[derive(Clone)]
pub struct Traced<C> {
    inner: C,
    counters: Arc<ClientCounters>,
}

impl<C> Traced<C> {
    pub fn new(inner: C, counters: Arc<ClientCounters>) -> Traced<C> {
        Traced { inner, counters }
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `ns` timed over `calls` calls, less the clock cost of each.
fn net_ns(ns: u64, calls: u64, timer_ns: f64) -> f64 {
    (ns as f64 - calls as f64 * timer_ns).max(0.0)
}

/// Host ns one timed call adds to its own reading: an `Instant::now`
/// and an [`elapsed_ns`] around nothing. The least of several rounds'
/// means, so a preempted round does not inflate it.
pub fn timer_ns() -> f64 {
    const ROUNDS: usize = 5;
    const PAIRS: u64 = 200_000;
    (0..ROUNDS)
        .map(|_| {
            let mut sum = 0u64;
            for _ in 0..PAIRS {
                let t = Instant::now();
                sum = sum.wrapping_add(elapsed_ns(std::hint::black_box(t)));
            }
            sum as f64 / PAIRS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// User plus system CPU seconds of this process so far, all threads.
pub fn process_cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [c_long; 14],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_SELF: c_int = 0;
    let zero = || Timeval { sec: 0, usec: 0 };
    let mut u = Rusage {
        utime: zero(),
        stime: zero(),
        rest: [0; 14],
    };
    // SAFETY: `Rusage` has the C library's `struct rusage` layout, and
    // getrusage only writes that one struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

impl<C: ClientSystem + Clone + Send + 'static> ClientSystem for Traced<C> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn on_frame_into(&mut self, now: SimTime, rx: &RxFrame<'_>, out: &mut Vec<DriverAction>) {
        let c = &self.counters;
        match rx.frame.body {
            FrameBody::Beacon { .. } => add(&c.rx_beacon, 1),
            FrameBody::Data { .. } => add(&c.rx_data, 1),
            _ => add(&c.rx_other, 1),
        }
        let before = out.len();
        let t = Instant::now();
        self.inner.on_frame_into(now, rx, out);
        add(&c.on_frame_ns, elapsed_ns(t));
        add(&c.on_frame_calls, 1);
        c.count_actions(&out[before..]);
    }

    fn on_switch_complete_into(&mut self, now: SimTime, ch: Channel, out: &mut Vec<DriverAction>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.on_switch_complete_into(now, ch, out);
        let c = &self.counters;
        add(&c.switch_done_ns, elapsed_ns(t));
        add(&c.switch_done_calls, 1);
        c.count_actions(&out[before..]);
    }

    fn poll_into(&mut self, now: SimTime, out: &mut Vec<DriverAction>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.poll_into(now, out);
        let c = &self.counters;
        add(&c.poll_ns, elapsed_ns(t));
        add(&c.poll_calls, 1);
        if out.len() > before {
            add(&c.poll_useful, 1);
        }
        c.count_actions(&out[before..]);
    }

    fn next_wakeup(&self, now: SimTime) -> SimTime {
        self.inner.next_wakeup(now)
    }

    fn join_log(&self) -> &JoinLog {
        self.inner.join_log()
    }

    fn is_connected(&self) -> bool {
        self.inner.is_connected()
    }

    fn delivered_bytes(&self) -> u64 {
        self.inner.delivered_bytes()
    }

    fn observe(&self, now: SimTime) -> ClientObservation {
        let t = Instant::now();
        let obs = self.inner.observe(now);
        add(&self.counters.observe_ns, elapsed_ns(t));
        add(&self.counters.observe_calls, 1);
        obs
    }

    fn associated_interfaces(&self) -> usize {
        self.inner.associated_interfaces()
    }

    fn initial_channel(&self) -> Channel {
        self.inner.initial_channel()
    }

    fn can_use_channel(&self, ch: Channel) -> bool {
        self.inner.can_use_channel(ch)
    }

    fn clone_boxed(&self) -> Box<dyn ClientSystem + Send> {
        Box::new(self.clone())
    }
}

/// One coarse span: a named interval of host time and the span that
/// caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
}

/// In-memory span recorder. Times are host seconds since the recorder
/// was created; spans are written out once, when the operation ends.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    /// Open a span; close it with [`Spans::close`].
    pub fn open(&self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let start_s = self.epoch.elapsed().as_secs_f64();
        let mut spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking thread");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_s,
            end_s: f64::NAN,
        });
        id
    }

    /// Close span `id` and return its duration in seconds.
    pub fn close(&self, id: usize) -> f64 {
        let end_s = self.epoch.elapsed().as_secs_f64();
        let mut spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking thread");
        let span = &mut spans[id];
        span.end_s = end_s;
        end_s - span.start_s
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking thread");
        Json::arr(spans.iter().map(|s| {
            Json::obj([
                ("id", Json::UInt(s.id as u64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("name", Json::str(s.name.clone())),
                ("start_s", Json::Num(s.start_s)),
                ("end_s", Json::Num(s.end_s)),
            ])
        }))
    }
}
