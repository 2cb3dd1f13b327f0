//! Deterministic parallel sweep runner.
//!
//! Every `World` run in this workspace is a pure function of its
//! configuration and seed (enforced by the bit-identity rerun test in
//! `tests/chaos.rs`), which makes experiment suites embarrassingly
//! parallel: a sweep is just `jobs.iter().map(run)` where the iterations
//! share nothing. [`sweep`] evaluates that map across OS threads while
//! guaranteeing the *result vector is byte-identical to the serial path*:
//!
//! * each result is written into a pre-sized slot at its job's index, so
//!   output order is a property of the job list, never of thread
//!   scheduling;
//! * jobs are handed out through a single atomic counter (work stealing
//!   by index), so there is no partitioning heuristic to tune and tail
//!   latency is bounded by the single slowest job;
//! * the closure receives `&Job` exactly as a serial loop would — any
//!   RNG it uses must be derived per job (from the job's own seed), which
//!   is already the convention everywhere in this repo.
//!
//! Worker count comes from [`worker_count`]: the `SPIDER_JOBS` env var if
//! set, else [`std::thread::available_parallelism`]. `SPIDER_JOBS=1`
//! selects the exact serial path (no threads spawned at all), which is
//! what the determinism tests compare against.
//!
//! There is one pool, [`try_sweep_with`]. Each job runs under its own
//! `catch_unwind` quarantine: a panic becomes a structured
//! [`JobFailure`] (job index, panic message, caller-supplied
//! config/seed fingerprint) in the returned [`SweepReport`], and every
//! other job still produces its result. A chaos campaign needs that:
//! it deliberately runs schedules that might crash the simulator, and
//! losing a thousand finished trials to one bad one is unacceptable.
//! An optional watchdog deadline flags jobs that are still running past
//! a wall-clock budget — it cannot kill a wedged thread (std offers no
//! safe way), but it names the hung job instead of letting the sweep
//! look merely slow.
//!
//! [`sweep`]/[`sweep_with`] are the strict front end for the paper's
//! experiment binaries, where a half-generated figure is worse than no
//! figure: they run the same pool, let the batch finish, and then panic
//! with the first failed job's own message
//! ([`SweepReport::expect_complete`]).
//!
//! Only `std` is used — scoped threads, no external dependencies.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;

/// Resolve the worker count for [`sweep`].
///
/// Order of precedence:
/// 1. `SPIDER_JOBS` env var — must parse as a positive integer;
///    anything else (garbage, empty, `0`) **panics**, because a typo'd
///    override silently falling back to "all cores" is how a
///    determinism comparison run (`SPIDER_JOBS=1`) quietly stops
///    comparing anything,
/// 2. [`std::thread::available_parallelism`],
/// 3. `1` if the platform cannot report parallelism.
#[allow(
    clippy::disallowed_methods,
    reason = "SPIDER_JOBS picks the pool size; results never depend on it"
)]
pub fn worker_count() -> usize {
    match std::env::var("SPIDER_JOBS") {
        Ok(v) => parse_spider_jobs(&v),
        Err(_) => thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Parse a `SPIDER_JOBS` value. Split out of [`worker_count`] so the
/// rejection paths are unit-testable without mutating the process
/// environment.
///
/// # Panics
///
/// Panics with a pointed message on anything but a positive integer.
fn parse_spider_jobs(v: &str) -> usize {
    match v.trim().parse::<usize>() {
        Ok(0) => {
            panic!("SPIDER_JOBS=0 is invalid: worker count must be >= 1 (1 = exact serial path)")
        }
        Ok(n) => n,
        Err(_) => panic!(
            "SPIDER_JOBS={v:?} is not a positive integer; set a worker count >= 1 or unset it"
        ),
    }
}

/// Run `run` over every job, in parallel, returning results in job order.
///
/// Equivalent to `jobs.iter().map(run).collect()` — same results, same
/// order — but spread over [`worker_count`] threads. See the module docs
/// for the determinism contract.
///
/// # Panics
///
/// If any job panics, the rest of the batch still runs, then this
/// panics with a message that names the first failed job and carries
/// that job's own panic message.
pub fn sweep<J: Sync, R: Send>(jobs: &[J], run: impl Fn(&J) -> R + Sync) -> Vec<R> {
    sweep_with(jobs, run, worker_count())
}

/// [`sweep`] with an explicit worker count (used by tests so they don't
/// have to mutate the process environment). `0` is treated as `1`.
pub fn sweep_with<J: Sync, R: Send>(
    jobs: &[J],
    run: impl Fn(&J) -> R + Sync,
    workers: usize,
) -> Vec<R> {
    try_sweep_with(
        jobs,
        run,
        |_| String::from("-"),
        SweepOptions {
            workers: workers.max(1),
            watchdog: None,
        },
    )
    .expect_complete("sweep")
}

/// One quarantined job failure inside a [`try_sweep_with`] batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index of the failed job in the input job list.
    pub index: usize,
    /// The panic message (downcast from the payload; `<non-string
    /// panic payload>` when the payload was neither `&str` nor
    /// `String`).
    pub message: String,
    /// Caller-supplied identification of the job — by convention a
    /// seed/config fingerprint, so the failure can be reproduced
    /// without the original job list.
    pub fingerprint: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} [{}] panicked: {}",
            self.index, self.fingerprint, self.message
        )
    }
}

/// The outcome of a [`try_sweep_with`] batch: per-slot results plus the
/// quarantined failures.
///
/// `results[i]` is `Some` exactly when job `i` completed; every `None`
/// slot has a matching entry in `failures`. A sweep with an empty
/// `failures` list is *complete* and its result vector is bit-identical
/// to the serial path; anything else is *degraded* and the caller
/// decides whether partial results are usable.
#[derive(Debug, Clone)]
pub struct SweepReport<R> {
    /// Slot-ordered results; `None` marks a failed job.
    pub results: Vec<Option<R>>,
    /// Failures in ascending job order.
    pub failures: Vec<JobFailure>,
    /// Job indices the watchdog saw still running past the deadline
    /// (ascending). Purely diagnostic: a flagged job may well have
    /// completed after being flagged, in which case its result is
    /// present anyway. Always empty without a watchdog.
    pub hung: Vec<usize>,
}

impl<R> SweepReport<R> {
    /// True when every job produced a result.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Successful `(job index, result)` pairs in job order.
    pub fn successes(&self) -> impl Iterator<Item = (usize, &R)> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
    }

    /// Unwrap a sweep the caller requires to be complete.
    ///
    /// # Panics
    ///
    /// Panics (listing the first failure) if any job failed.
    pub fn expect_complete(self, what: &str) -> Vec<R> {
        if let Some(f) = self.failures.first() {
            panic!(
                "{what}: sweep degraded ({} of {} jobs failed; first: {f})",
                self.failures.len(),
                self.results.len(),
            );
        }
        self.results
            .into_iter()
            .map(|r| r.expect("complete sweep has every slot filled"))
            .collect()
    }
}

/// Tuning for [`try_sweep_with`].
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; `0` means [`worker_count`].
    pub workers: usize,
    /// Wall-clock budget per job before the watchdog flags it as hung.
    /// `None` disables the watchdog (no timing, no extra thread).
    pub watchdog: Option<Duration>,
}

/// Degrade-gracefully sweep: run `run` over every job, quarantining a
/// panicking job as a [`JobFailure`] instead of aborting the batch.
///
/// `fingerprint` renders a job into a short stable identifier (seed,
/// config digest) recorded on its failure. See [`SweepReport`] for the
/// complete-vs-degraded contract. With at most one worker (or job) and
/// no watchdog, the jobs run in order on the calling thread and no
/// thread is started.
pub fn try_sweep_with<J: Sync, R: Send>(
    jobs: &[J],
    run: impl Fn(&J) -> R + Sync,
    fingerprint: impl Fn(&J) -> String + Sync,
    opts: SweepOptions,
) -> SweepReport<R> {
    let workers = if opts.workers == 0 {
        worker_count()
    } else {
        opts.workers
    };
    let quarantine = |i: usize, payload: Box<dyn std::any::Any + Send>| JobFailure {
        index: i,
        message: panic_message(payload),
        fingerprint: fingerprint(&jobs[i]),
    };

    if (workers <= 1 || jobs.len() <= 1) && opts.watchdog.is_none() {
        // Serial quarantine path: no threads at all, same per-job
        // catch_unwind, so SPIDER_JOBS=1 stays the reference leg even
        // for degraded batches.
        let mut results = Vec::with_capacity(jobs.len());
        let mut failures = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| run(job))) {
                Ok(r) => results.push(Some(r)),
                Err(payload) => {
                    results.push(None);
                    failures.push(quarantine(i, payload));
                }
            }
        }
        return SweepReport {
            results,
            failures,
            hung: Vec::new(),
        };
    }
    let workers = workers.min(jobs.len()).max(1);

    let mut slots: Vec<Option<R>> = Vec::with_capacity(jobs.len());
    slots.resize_with(jobs.len(), || None);
    let next = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let run = &run;
    // Watchdog bookkeeping: per worker, the job it is currently on and
    // that job's start offset in milliseconds since the sweep began.
    // `u64::MAX` job marks an idle/finished worker.
    let current_job: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(u64::MAX)).collect();
    let started_ms: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    // The watchdog measures real elapsed time: hang detection is
    // inherently about the wall clock, and nothing it observes feeds
    // back into job results.
    #[allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the watchdog's real-time hang budget; no job result reads it"
    )]
    let epoch = opts.watchdog.map(|_| std::time::Instant::now());

    let mut failures: Vec<JobFailure> = Vec::new();
    let mut hung: Vec<usize> = Vec::new();
    #[allow(
        clippy::disallowed_methods,
        reason = "the sweep runner is the one place that runs threads"
    )]
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let current = &current_job[w];
            let started = &started_ms[w];
            let next = &next;
            handles.push(scope.spawn(move || {
                let mut out: Vec<(usize, Result<R, PanicPayload>)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    if let Some(epoch) = epoch {
                        started.store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
                        current.store(i as u64, Ordering::Relaxed);
                    }
                    let r = catch_unwind(AssertUnwindSafe(|| run(&jobs[i])));
                    current.store(u64::MAX, Ordering::Relaxed);
                    out.push((i, r));
                }
                out
            }));
        }
        // The watchdog thread polls the workers' current-job slots and
        // collects any job over the deadline. It only ever *observes*.
        // It parks between ticks, so the unpark after the pool drains
        // ends it at once instead of a tick later.
        let watchdog = opts.watchdog.map(|deadline| {
            let current = &current_job;
            let started = &started_ms;
            let done = &done;
            let epoch = epoch.expect("watchdog epoch set with deadline");
            scope.spawn(move || {
                let deadline_ms = deadline.as_millis() as u64;
                let tick = (deadline / 8).max(Duration::from_millis(5));
                let mut flagged: Vec<usize> = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    thread::park_timeout(tick);
                    let now_ms = epoch.elapsed().as_millis() as u64;
                    for (cur, start) in current.iter().zip(started) {
                        let job = cur.load(Ordering::Relaxed);
                        if job != u64::MAX
                            && now_ms.saturating_sub(start.load(Ordering::Relaxed)) > deadline_ms
                        {
                            let job = job as usize;
                            if !flagged.contains(&job) {
                                flagged.push(job);
                            }
                        }
                    }
                }
                flagged
            })
        });
        for handle in handles {
            // Worker threads cannot panic themselves (every job is
            // quarantined), so join() only fails on catastrophic
            // runtime errors — propagate those.
            let out = match handle.join() {
                Ok(out) => out,
                Err(payload) => resume_unwind(payload),
            };
            for (i, r) in out {
                match r {
                    Ok(r) => slots[i] = Some(r),
                    Err(payload) => failures.push(quarantine(i, payload)),
                }
            }
        }
        done.store(true, Ordering::Relaxed);
        if let Some(w) = watchdog {
            w.thread().unpark();
            if let Ok(mut flagged) = w.join() {
                flagged.sort_unstable();
                hung = flagged;
            }
        }
    });
    failures.sort_unstable_by_key(|f| f.index);

    SweepReport {
        results: slots,
        failures,
        hung,
    }
}

/// What `catch_unwind` hands back from a panicking job.
type PanicPayload = Box<dyn std::any::Any + Send>;

/// Render a panic payload into a human-readable message.
fn panic_message(payload: PanicPayload) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("<non-string panic payload>")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let jobs: Vec<u64> = (0..257).collect();
        let run = |j: &u64| {
            // Cheap but order-sensitive work: a small deterministic hash.
            let mut x = j.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x ^= x >> 31;
            (x, *j)
        };
        let serial = sweep_with(&jobs, run, 1);
        for workers in [2, 3, 4, 7, 16] {
            assert_eq!(serial, sweep_with(&jobs, run, workers));
        }
    }

    #[test]
    fn results_are_in_job_order() {
        let jobs: Vec<usize> = (0..64).rev().collect();
        let out = sweep_with(&jobs, |j| *j, 4);
        assert_eq!(out, jobs);
    }

    #[test]
    fn many_tiny_jobs_stress_worker_handoff() {
        // Thousands of near-empty jobs: the atomic handoff dominates, so
        // any double-claim or lost index shows up as a wrong slot.
        let jobs: Vec<u32> = (0..10_000).collect();
        let out = sweep_with(&jobs, |j| j + 1, 8);
        assert_eq!(out.len(), jobs.len());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1);
        }
    }

    #[test]
    fn empty_and_single_job_lists() {
        let none: Vec<u8> = Vec::new();
        assert!(sweep_with(&none, |j| *j, 4).is_empty());
        assert_eq!(sweep_with(&[9u8], |j| *j, 4), vec![9]);
    }

    #[test]
    fn panic_in_job_propagates() {
        let jobs: Vec<u32> = (0..100).collect();
        for workers in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                sweep_with(
                    &jobs,
                    |j| {
                        if *j == 37 {
                            panic!("job 37 failed");
                        }
                        *j
                    },
                    workers,
                )
            });
            let payload = caught.expect_err("a panicking job must fail the sweep");
            let message = panic_message(payload);
            assert!(
                message.contains("job 37 failed"),
                "workers={workers}: {message}"
            );
        }
    }

    #[test]
    fn worker_count_is_at_least_one() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn spider_jobs_parses_positive_integers() {
        assert_eq!(parse_spider_jobs("1"), 1);
        assert_eq!(parse_spider_jobs(" 8 "), 8);
        assert_eq!(parse_spider_jobs("137"), 137);
    }

    #[test]
    #[should_panic(expected = "SPIDER_JOBS=0 is invalid")]
    fn spider_jobs_zero_panics() {
        parse_spider_jobs("0");
    }

    #[test]
    #[should_panic(expected = "not a positive integer")]
    fn spider_jobs_garbage_panics() {
        parse_spider_jobs("fast");
    }

    #[test]
    #[should_panic(expected = "not a positive integer")]
    fn spider_jobs_empty_panics() {
        parse_spider_jobs("");
    }

    #[test]
    #[should_panic(expected = "not a positive integer")]
    fn spider_jobs_negative_panics() {
        parse_spider_jobs("-2");
    }

    /// The quarantine run used by the try_sweep_with tests: job 37 panics
    /// with a formatted message, everything else squares.
    fn flaky(j: &u32) -> u64 {
        if *j == 37 {
            panic!("job {j} exploded");
        }
        (*j as u64) * (*j as u64)
    }

    #[test]
    fn try_sweep_quarantines_a_panicking_job() {
        let jobs: Vec<u32> = (0..100).collect();
        for workers in [1, 4] {
            let report = try_sweep_with(
                &jobs,
                flaky,
                |j| format!("seed={j}"),
                SweepOptions {
                    workers,
                    watchdog: None,
                },
            );
            assert!(!report.is_complete());
            assert_eq!(report.results.len(), 100);
            assert_eq!(report.successes().count(), 99);
            assert!(report.results[37].is_none());
            assert_eq!(report.failures.len(), 1);
            let f = &report.failures[0];
            assert_eq!(f.index, 37);
            assert_eq!(f.message, "job 37 exploded");
            assert_eq!(f.fingerprint, "seed=37");
            assert!(report.hung.is_empty());
            // Every surviving slot matches the serial map.
            for (i, r) in report.successes() {
                assert_eq!(*r, (i as u64) * (i as u64));
            }
        }
    }

    #[test]
    fn try_sweep_complete_matches_sweep_bit_for_bit() {
        let jobs: Vec<u64> = (0..257).collect();
        let run = |j: &u64| {
            let mut x = j.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x ^= x >> 31;
            (x, *j)
        };
        let baseline = sweep_with(&jobs, run, 1);
        for workers in [1, 2, 4, 7] {
            let report = try_sweep_with(
                &jobs,
                run,
                |j| j.to_string(),
                SweepOptions {
                    workers,
                    watchdog: None,
                },
            );
            assert!(report.is_complete());
            assert_eq!(report.expect_complete("test"), baseline);
        }
    }

    #[test]
    fn try_sweep_multiple_failures_report_in_job_order() {
        let jobs: Vec<u32> = (0..64).collect();
        let report = try_sweep_with(
            &jobs,
            |j| {
                if j % 10 == 3 {
                    panic!("bad");
                }
                *j
            },
            |j| j.to_string(),
            SweepOptions {
                workers: 4,
                watchdog: None,
            },
        );
        let indices: Vec<usize> = report.failures.iter().map(|f| f.index).collect();
        assert_eq!(indices, vec![3, 13, 23, 33, 43, 53, 63]);
        assert_eq!(report.successes().count(), 64 - 7);
    }

    #[test]
    #[should_panic(expected = "sweep degraded")]
    fn expect_complete_panics_on_degraded_sweep() {
        let jobs: Vec<u32> = (0..4).collect();
        let report = try_sweep_with(
            &jobs,
            |j| {
                if *j == 2 {
                    panic!("boom");
                }
                *j
            },
            |j| j.to_string(),
            SweepOptions {
                workers: 2,
                watchdog: None,
            },
        );
        report.expect_complete("degraded batch");
    }

    #[test]
    fn watchdog_flags_a_slow_job() {
        let jobs: Vec<u32> = (0..8).collect();
        let report = try_sweep_with(
            &jobs,
            |j| {
                if *j == 5 {
                    // Long enough for several watchdog ticks past the
                    // 20 ms deadline, short enough to keep tests quick.
                    thread::sleep(Duration::from_millis(200));
                }
                *j
            },
            |j| j.to_string(),
            SweepOptions {
                workers: 4,
                watchdog: Some(Duration::from_millis(20)),
            },
        );
        // The slow job still completes — the watchdog only names it.
        assert!(report.is_complete());
        assert_eq!(report.hung, vec![5]);
    }

    #[test]
    fn watchdog_ends_with_the_pool_not_a_tick_later() {
        // A 120 s deadline ticks every 15 s; the sweep must not wait
        // out a tick once its trivial jobs are done.
        let jobs: Vec<u32> = (0..8).collect();
        #[allow(
            clippy::disallowed_methods,
            clippy::disallowed_types,
            reason = "times the sweep itself, not simulated time"
        )]
        let t = std::time::Instant::now();
        let report = try_sweep_with(
            &jobs,
            |j| *j,
            |j| j.to_string(),
            SweepOptions {
                workers: 2,
                watchdog: Some(Duration::from_secs(120)),
            },
        );
        assert!(report.is_complete());
        assert!(t.elapsed() < Duration::from_secs(1), "{:?}", t.elapsed());
    }

    #[test]
    fn watchdog_stays_quiet_for_fast_jobs() {
        let jobs: Vec<u32> = (0..32).collect();
        let report = try_sweep_with(
            &jobs,
            |j| *j,
            |j| j.to_string(),
            SweepOptions {
                workers: 4,
                watchdog: Some(Duration::from_secs(5)),
            },
        );
        assert!(report.is_complete());
        assert!(report.hung.is_empty());
    }
}
