//! Seeded property checks: the workspace's one mechanism for randomised
//! tests.
//!
//! A property is a closure that draws its inputs from a [`Gen`] and
//! asserts with the ordinary `assert!` family. [`check`] runs it for a
//! fixed number of cases; case `i` draws from
//! `SimRng::new(0).stream_indexed("check-case", i)`, so every case is a
//! pure function of its seed and a run is identical on every machine.
//!
//! When a case fails, the collections it drew through [`Gen::vec`] are
//! shrunk by halving: each is cut to its first or second half for as
//! long as the property still fails. Elements are always drawn in full
//! and only dropped afterwards, so every other draw of the case stays
//! the same. The final panic names the property, the case index, the
//! case seed and the shrunk lengths; `prop(&mut Gen::new(seed))` replays
//! the unshrunk case.
//!
//! ```
//! use spider_simcore::check::check;
//!
//! check("addition_commutes", 64, |g| {
//!     let (a, b) = (g.u64(0..1_000), g.u64(0..1_000));
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use crate::rng::SimRng;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

/// The input source of one case: a [`SimRng`] stream plus the windows
/// that shrinking keeps of each [`vec`](Gen::vec) the case draws.
pub struct Gen {
    rng: SimRng,
    /// `(start, len)` kept of each `vec` call's elements, by call order;
    /// calls past the end keep everything.
    windows: Vec<(usize, usize)>,
    /// `(drawn length, minimum length)` of each `vec` call, by call order.
    drawn: Vec<(usize, usize)>,
}

impl Gen {
    /// A generator replaying the case with this seed.
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: SimRng::new(seed),
            windows: Vec::new(),
            drawn: Vec::new(),
        }
    }

    /// Uniform integer in `range` (`range.start` if it is empty).
    pub fn u64(&mut self, range: Range<u64>) -> u64 {
        self.rng.uniform_u64(range.start, range.end)
    }

    /// Uniform integer in `range` (`range.start` if it is empty).
    pub fn u32(&mut self, range: Range<u32>) -> u32 {
        self.u64(range.start.into()..range.end.into()) as u32
    }

    /// Uniform integer in `range` (`range.start` if it is empty).
    pub fn usize(&mut self, range: Range<usize>) -> usize {
        self.u64(range.start as u64..range.end as u64) as usize
    }

    /// Uniform float in `range` (`range.start` if it is empty).
    pub fn f64(&mut self, range: Range<f64>) -> f64 {
        self.rng.uniform_in(range.start, range.end)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.chance(0.5)
    }

    /// The case's own stream, for code that takes a `SimRng`.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// A vector with a length drawn from `len` and each element drawn by
    /// `elem`. Shrinking keeps a window of the drawn elements, never
    /// fewer than `len.start`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut elem: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize(len.clone());
        let call = self.drawn.len();
        self.drawn.push((n, len.start));
        let mut v: Vec<T> = (0..n).map(|_| elem(self)).collect();
        if let Some(&(start, keep)) = self.windows.get(call) {
            v.truncate(start + keep);
            v.drain(..start.min(v.len()));
        }
        v
    }
}

/// The seed of case `case`.
fn case_seed(case: u64) -> u64 {
    SimRng::new(0).stream_indexed("check-case", case).seed()
}

/// Run `prop` on the case `seed` with the given `vec` windows: the panic
/// message and the `vec` calls it drew if the property fails.
fn run(
    prop: &dyn Fn(&mut Gen),
    seed: u64,
    windows: &[(usize, usize)],
) -> Result<(), (String, Vec<(usize, usize)>)> {
    let mut g = Gen::new(seed);
    g.windows = windows.to_vec();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| prop(&mut g)));
    outcome.map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        (msg, g.drawn)
    })
}

/// Check `prop` on `cases` seeded cases; on the first failure, shrink
/// it and panic with the property's name, the case index and its seed.
pub fn check(name: &str, cases: u64, prop: impl Fn(&mut Gen)) {
    for case in 0..cases {
        let seed = case_seed(case);
        let Err((mut msg, drawn)) = run(&prop, seed, &[]) else {
            continue;
        };
        let mut windows: Vec<(usize, usize)> = drawn.iter().map(|&(n, _)| (0, n)).collect();
        for (k, &(_, min)) in drawn.iter().enumerate() {
            'halve: loop {
                let (start, len) = windows[k];
                let half = len / 2;
                for cut in [(start, half), (start + half, len - half)] {
                    if cut.1 >= min && cut.1 < len {
                        let mut trial = windows.clone();
                        trial[k] = cut;
                        if let Err((m, _)) = run(&prop, seed, &trial) {
                            (windows, msg) = (trial, m);
                            continue 'halve;
                        }
                    }
                }
                break;
            }
        }
        let from: Vec<usize> = drawn.iter().map(|&(n, _)| n).collect();
        let to: Vec<usize> = windows.iter().map(|&(_, len)| len).collect();
        panic!(
            "property `{name}` failed on case {case} of {cases} (seed {seed:#018x}; \
             vec lengths {from:?} shrunk to {to:?}): {msg}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = panic::catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("check panics with a formatted message")
    }

    #[test]
    fn a_true_property_runs_every_case_once() {
        let runs = Cell::new(0);
        check("counts_cases", 37, |g| {
            runs.set(runs.get() + 1);
            assert!(g.u64(3..9) >= 3);
        });
        assert_eq!(runs.get(), 37);
    }

    #[test]
    fn a_false_property_names_its_case_and_seed() {
        let small = |g: &mut Gen| assert!(g.u64(0..10) < 7, "drew a large value");
        let msg = panic_message(|| check("always_small", 100, small));
        let first = (0..100)
            .find(|&c| Gen::new(case_seed(c)).u64(0..10) >= 7)
            .expect("some case draws a large value");
        assert!(msg.contains("property `always_small`"), "{msg}");
        assert!(msg.contains(&format!("case {first} of 100")), "{msg}");
        assert!(
            msg.contains(&format!("seed {:#018x}", case_seed(first))),
            "{msg}"
        );
        assert!(msg.ends_with("drew a large value"), "{msg}");
        // The named seed replays the failing case.
        let replay = panic::catch_unwind(|| small(&mut Gen::new(case_seed(first))));
        assert!(replay.is_err());
    }

    #[test]
    fn the_same_seed_regenerates_the_same_case() {
        let draw = |g: &mut Gen| {
            let v = g.vec(0..50, |g| (g.u64(0..1_000), g.f64(-1.0..1.0), g.bool()));
            (v, g.u32(0..u32::MAX), g.usize(5..6))
        };
        let seed = case_seed(3);
        assert_eq!(draw(&mut Gen::new(seed)), draw(&mut Gen::new(seed)));
        assert_ne!(draw(&mut Gen::new(seed)), draw(&mut Gen::new(case_seed(4))));
        assert_eq!(draw(&mut Gen::new(seed)).2, 5);
    }

    #[test]
    fn shrinking_halves_a_failing_vec_to_one_element() {
        let draw = |g: &mut Gen| g.vec(0..200, |g| g.u64(0..1_000));
        let msg = panic_message(|| {
            check("no_element_ge_900", 64, |g| {
                let v = draw(g);
                let tail = g.u64(0..10);
                assert!(v.iter().all(|&x| x < 900), "{v:?} then {tail}");
            })
        });
        assert!(msg.contains("shrunk to [1])"), "{msg}");
        // The one element kept is a culprit from the unshrunk case, and
        // the draw after the vec is that case's too.
        let first = (0..64)
            .find(|&c| draw(&mut Gen::new(case_seed(c))).iter().any(|&x| x >= 900))
            .expect("some case draws an element >= 900");
        let mut g = Gen::new(case_seed(first));
        let (full, tail) = (draw(&mut g), g.u64(0..10));
        let (kept, rest) = msg
            .rsplit_once(": [")
            .unwrap()
            .1
            .split_once("] then ")
            .unwrap();
        let kept: u64 = kept.parse().unwrap();
        assert!(kept >= 900 && full.contains(&kept), "{msg}");
        assert_eq!(rest, tail.to_string());
    }

    #[test]
    fn shrinking_respects_the_minimum_length() {
        let msg = panic_message(|| {
            check("never_fails_short", 16, |g| {
                let v = g.vec(5..40, |g| g.u64(0..10));
                assert!(v.len() < 5);
            })
        });
        assert!(msg.contains("shrunk to [5])"), "{msg}");
    }
}
