//! RFC 6298 round-trip-time estimation.

use spider_simcore::SimDuration;

/// SRTT/RTTVAR estimator with RTO clamping.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rto: SimDuration,
    max_rto: SimDuration,
    initial_rto: SimDuration,
}

impl RttEstimator {
    /// Create an estimator. `initial_rto` is used before any sample
    /// (RFC 6298 says 1 s); `min_rto` reflects the Linux floor of 200 ms
    /// in the paper's era.
    pub fn new(initial_rto: SimDuration, min_rto: SimDuration, max_rto: SimDuration) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            min_rto,
            max_rto,
            initial_rto,
        }
    }

    /// Defaults: initial 1 s, floor 200 ms, ceiling 60 s.
    pub fn standard() -> Self {
        RttEstimator::new(
            SimDuration::from_secs(1),
            SimDuration::from_millis(200),
            SimDuration::from_secs(60),
        )
    }

    /// Feed a new RTT sample (from a non-retransmitted segment, per
    /// Karn's algorithm — the caller enforces that).
    pub fn sample(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let err = if rtt > srtt { rtt - srtt } else { srtt - rtt };
                // RTTVAR = 3/4 RTTVAR + 1/4 |err|; SRTT = 7/8 SRTT + 1/8 R.
                self.rttvar = (self.rttvar * 3 + err) / 4;
                self.srtt = Some((srtt * 7 + rtt) / 8);
            }
        }
    }

    /// Current smoothed RTT, if any sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Current retransmission timeout: `SRTT + max(G, 4·RTTVAR)` clamped
    /// to `[min_rto, max_rto]`; `initial_rto` before the first sample.
    pub fn rto(&self) -> SimDuration {
        let raw = match self.srtt {
            None => return self.initial_rto,
            Some(srtt) => srtt + (self.rttvar * 4).max(SimDuration::from_millis(10)),
        };
        raw.clamp(self.min_rto, self.max_rto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simcore::check::check;

    #[test]
    fn initial_rto_before_samples() {
        let e = RttEstimator::standard();
        assert_eq!(e.rto(), SimDuration::from_secs(1));
        assert_eq!(e.srtt(), None);
    }

    #[test]
    fn first_sample_sets_srtt() {
        let mut e = RttEstimator::standard();
        e.sample(SimDuration::from_millis(100));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(100)));
        // RTO = 100 + 4*50 = 300ms.
        assert_eq!(e.rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn smoothing_converges() {
        let mut e = RttEstimator::standard();
        for _ in 0..100 {
            e.sample(SimDuration::from_millis(80));
        }
        let srtt = e.srtt().unwrap().as_millis_f64();
        assert!((srtt - 80.0).abs() < 1.0, "srtt {srtt}");
        // Variance collapses, so RTO hits the floor.
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn jitter_raises_rto() {
        let mut e = RttEstimator::standard();
        for i in 0..50 {
            e.sample(SimDuration::from_millis(if i % 2 == 0 { 50 } else { 250 }));
        }
        assert!(e.rto() > SimDuration::from_millis(300));
    }

    /// RTO is always within the configured clamp after any sample
    /// sequence.
    #[test]
    fn rto_is_clamped() {
        check("rto_is_clamped", 256, |g| {
            let mut e = RttEstimator::standard();
            for s in g.vec(1..100, |g| g.u64(1..100_000)) {
                e.sample(SimDuration::from_micros(s));
            }
            let rto = e.rto();
            assert!(
                rto >= SimDuration::from_millis(200),
                "RTO {rto} below 200 ms"
            );
            assert!(rto <= SimDuration::from_secs(60), "RTO {rto} above 60 s");
        });
    }
}
