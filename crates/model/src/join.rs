//! The join-probability model (Eqs. 1–7).
//!
//! A mobile node on a round-robin schedule with period `D` spends `f_i·D`
//! per round on channel *i*, paying a switch cost `w`. While on the
//! channel it transmits a join request every `c` seconds; the AP's
//! response takes `β ~ U(βmin, βmax)`; each direction independently
//! survives with probability `1-h`. A request from segment `k` of round
//! `m` succeeds iff its response lands inside the on-channel window of
//! some round `n ≥ m` (Eq. 3). The model composes per-request success
//! probabilities (Eq. 5) into per-round-pair failure probabilities
//! (Eq. 6) and finally the join probability within `t` seconds (Eq. 7).

/// Model parameters (all times in seconds).
#[derive(Debug, Clone)]
pub struct JoinModel {
    /// Scheduling period `D`.
    pub d: f64,
    /// Inter-request spacing `c` (set by DHCP/link-layer timers).
    pub c: f64,
    /// Channel-switch overhead `w`.
    pub w: f64,
    /// Minimum AP response time `βmin`.
    pub beta_min: f64,
    /// Maximum AP response time `βmax`.
    pub beta_max: f64,
    /// Frame-loss probability `h`.
    pub h: f64,
}

impl JoinModel {
    /// The parameter set used for Fig. 2: D = 500 ms, c = 100 ms,
    /// w = 7 ms, βmin = 500 ms, h = 10 %.
    pub fn paper_defaults(beta_max: f64) -> JoinModel {
        JoinModel {
            d: 0.5,
            c: 0.1,
            w: 0.007,
            beta_min: 0.5,
            beta_max,
            h: 0.1,
        }
    }

    /// Number of request segments per round for a given `f_i` (the upper
    /// bound of the product in Eq. 6).
    pub fn segments(&self, fi: f64) -> usize {
        let usable = self.d * fi - self.w;
        if usable <= 0.0 {
            0
        } else {
            (usable / self.c).ceil() as usize
        }
    }

    /// Eq. 5: probability that the request sent in segment `k`
    /// (1-indexed) of round `m` is answered within the on-channel window
    /// of round `n ≥ m`, on a lossless channel.
    pub fn q_success(&self, m: usize, n: usize, k: usize, fi: f64) -> f64 {
        assert!(n >= m && k >= 1);
        let kf = k as f64;
        let nm = (n - m) as f64;
        let alpha_min = kf * self.c + self.beta_min;
        let alpha_max = kf * self.c + self.beta_max;
        let delta_min = nm * self.d + self.c - self.w;
        let delta_max = (nm + fi) * self.d + self.c - self.w;
        if delta_min > alpha_max || delta_max < alpha_min {
            return 0.0;
        }
        let lo = alpha_min.max(delta_min);
        let hi = alpha_max.min(delta_max);
        ((hi - lo) / (alpha_max - alpha_min)).clamp(0.0, 1.0)
    }

    /// Eq. 6: probability that **no** request from round `m` produces a
    /// successful join in round `n`, with loss `h` applied to both
    /// directions.
    pub fn q_round_failure(&self, m: usize, n: usize, fi: f64) -> f64 {
        let ok = (1.0 - self.h) * (1.0 - self.h);
        let mut prod = 1.0;
        for k in 1..=self.segments(fi) {
            prod *= 1.0 - self.q_success(m, n, k, fi) * ok;
        }
        prod
    }

    /// Eq. 7: probability of obtaining at least one lease within `t`
    /// seconds of entering the AP's range, spending fraction `fi` of each
    /// round on its channel.
    pub fn p_join(&self, fi: f64, t: f64) -> f64 {
        let rounds = (t / self.d).floor() as usize;
        if rounds == 0 || fi <= 0.0 {
            return 0.0;
        }
        let mut prod = 1.0;
        for m in 1..=rounds {
            for n in m..=rounds {
                prod *= self.q_round_failure(m, n, fi);
                if prod < 1e-12 {
                    return 1.0 - prod;
                }
            }
        }
        1.0 - prod
    }

    /// Expected *unjoined* fraction of an encounter of length `t`:
    /// `E[X]/t` where `E[X] = Σ_τ (1 − p(fi, τ))` is the expected time to
    /// join (clipped at `t`). This is the `E[X_i]` entering constraint
    /// Eq. 9 — the paper's text calls it "the expected amount of time to
    /// join", normalised here so `(1 − E[X_i])` is the fraction of the
    /// encounter during which a newly joined AP's bandwidth is usable.
    pub fn expected_join_fraction(&self, fi: f64, t: f64) -> f64 {
        let rounds = (t / self.d).floor() as usize;
        if rounds == 0 {
            return 1.0;
        }
        let mut expected_rounds = 0.0;
        for r in 0..rounds {
            expected_rounds += 1.0 - self.p_join(fi, (r + 1) as f64 * self.d);
        }
        (expected_rounds / rounds as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simcore::check::check;

    fn model() -> JoinModel {
        JoinModel::paper_defaults(5.0)
    }

    #[test]
    fn p_join_is_a_probability_and_monotone_in_fi() {
        let m = model();
        let mut prev = 0.0;
        for i in 1..=10 {
            let fi = i as f64 / 10.0;
            let p = m.p_join(fi, 4.0);
            assert!((0.0..=1.0).contains(&p), "p={p}");
            assert!(p >= prev - 1e-12, "not monotone at fi={fi}: {p} < {prev}");
            prev = p;
        }
    }

    #[test]
    fn p_join_monotone_in_time() {
        let m = model();
        let mut prev = 0.0;
        for t in 1..=16 {
            let p = m.p_join(0.3, t as f64);
            assert!(p >= prev - 1e-12);
            prev = p;
        }
    }

    #[test]
    fn full_time_on_channel_joins_reliably() {
        // The paper: "the node should spend nearly 100% of its time on the
        // channel for an assured successful join" (with t=4s, βmax=5s).
        let m = model();
        let p = m.p_join(1.0, 4.0);
        assert!(p > 0.9, "p(1.0, 4s) = {p}");
    }

    #[test]
    fn tiny_fraction_rarely_joins() {
        let m = model();
        let p = m.p_join(0.1, 4.0);
        assert!(p < 0.45, "p(0.1, 4s) = {p}");
    }

    #[test]
    fn paper_fig3_shape_shorter_beta_is_better() {
        // Fig. 3: for fixed fi, smaller βmax gives higher join probability.
        for fi in [0.1, 0.25, 0.4, 0.5] {
            let fast = JoinModel::paper_defaults(2.0).p_join(fi, 4.0);
            let slow = JoinModel::paper_defaults(10.0).p_join(fi, 4.0);
            assert!(fast >= slow - 1e-9, "fi={fi}: fast {fast} < slow {slow}");
        }
    }

    #[test]
    fn paper_fig3_large_beta_hurts_small_fractions_most() {
        // With βmax = 10s and fi = 0.1, joining within 4s is unlikely.
        let m = JoinModel::paper_defaults(10.0);
        assert!(m.p_join(0.10, 4.0) < 0.35);
        assert!(m.p_join(0.50, 4.0) > m.p_join(0.10, 4.0));
    }

    #[test]
    fn zero_fraction_never_joins() {
        let m = model();
        assert_eq!(m.p_join(0.0, 10.0), 0.0);
        assert_eq!(m.segments(0.0), 0);
    }

    #[test]
    fn no_rounds_no_join() {
        let m = model();
        assert_eq!(m.p_join(0.5, 0.3), 0.0); // t < D
    }

    #[test]
    fn segments_counts_requests_per_round() {
        let m = model();
        // fi=1: (0.5 - 0.007)/0.1 -> ceil(4.93) = 5 requests.
        assert_eq!(m.segments(1.0), 5);
        // fi=0.25: (0.125-0.007)/0.1 -> ceil(1.18) = 2.
        assert_eq!(m.segments(0.25), 2);
    }

    #[test]
    fn expected_join_fraction_decreases_with_fi() {
        let m = model();
        let slow = m.expected_join_fraction(0.1, 8.0);
        let fast = m.expected_join_fraction(0.9, 8.0);
        assert!(fast < slow, "fast {fast} !< slow {slow}");
        assert!((0.0..=1.0).contains(&fast));
        assert!((0.0..=1.0).contains(&slow));
    }

    #[test]
    fn q_success_respects_window_geometry() {
        let m = model();
        // A response needing >= βmin=0.5s cannot land in round m (window
        // ends at fi*D = 0.25s for fi=0.5... well plus c-w offset).
        let q_same_round = m.q_success(1, 1, 1, 0.5);
        // βmin=0.5: alpha in [0.6, 5.1]; window [0.093, 0.343] -> no overlap.
        assert_eq!(q_same_round, 0.0);
        // A later round can catch it.
        let q_next = m.q_success(1, 2, 1, 0.5);
        assert!(q_next > 0.0);
    }

    /// q_success is always a valid probability.
    #[test]
    fn q_in_unit_interval() {
        check("q_in_unit_interval", 256, |g| {
            let (mn, k, fi) = (g.usize(0..8), g.usize(1..6), g.f64(0.01..1.0));
            let q = model().q_success(1, 1 + mn, k, fi);
            assert!(
                (0.0..=1.0).contains(&q),
                "q_success(1, {}, {k}, {fi}) = {q}",
                1 + mn
            );
        });
    }

    /// q_round_failure is a probability and p_join is monotone in t.
    #[test]
    fn probabilities_are_sane() {
        check("probabilities_are_sane", 256, |g| {
            let (fi, t) = (g.f64(0.05..1.0), g.f64(0.5..10.0));
            let m = model();
            let q = m.q_round_failure(1, 2, fi);
            assert!(
                (0.0..=1.0).contains(&q),
                "q_round_failure(1, 2, {fi}) = {q}"
            );
            let p1 = m.p_join(fi, t);
            let p2 = m.p_join(fi, t + 1.0);
            assert!((0.0..=1.0).contains(&p1), "p_join({fi}, {t}) = {p1}");
            assert!(
                p2 >= p1 - 1e-12,
                "p_join({fi}, ·) falls from {p1} to {p2} after {t} s"
            );
        });
    }
}
