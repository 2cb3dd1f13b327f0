//! PHY-level parameters and airtime computation.

use spider_simcore::SimDuration;

/// Physical-layer parameters of the simulated card and medium.
///
/// Defaults correspond to the paper's testbed: 802.11b long-preamble
/// timing at 11 Mbps, a ~5 ms hardware-reset channel switch (Table 1
/// measured 4.9–5.9 ms). The world's 100 m range (§2.1.3) lives in
/// [`crate::Propagation::range_m`].
#[derive(Debug, Clone)]
pub struct PhyParams {
    /// Data rate in bits/second used for frame bodies.
    pub rate_bps: f64,
    /// Rate used for management frames (sent at a base rate in real
    /// 802.11, typically 1–2 Mb/s, which is why beacons are audible
    /// further out and joins are slow).
    pub mgmt_rate_bps: f64,
    /// Fixed per-frame medium overhead: preamble + PLCP header + DIFS +
    /// SIFS + link-layer ACK. Folding the ACK in here models the
    /// stop-and-wait MAC without simulating ACK frames individually.
    pub per_frame_overhead: SimDuration,
    /// Hardware channel-switch latency (the "hardware reset" of §3.2.1,
    /// dominating Table 1's measurements).
    pub switch_delay: SimDuration,
    /// Extra per-associated-interface switch cost: one PSM null frame
    /// must be sent to each AP on the old channel and one PS-poll on the
    /// new (Table 1 shows latency growing with interface count).
    pub per_iface_switch_cost: SimDuration,
}

impl PhyParams {
    /// 802.11b at 11 Mb/s — the paper's configuration.
    pub const fn b11() -> PhyParams {
        PhyParams {
            rate_bps: 11e6,
            mgmt_rate_bps: 1e6,
            // ~192us PLCP long preamble + DIFS 50us + SIFS 10us + ACK
            // (112us at 1Mbps control rate, abbreviated) ≈ 360us.
            per_frame_overhead: SimDuration::from_micros(360),
            switch_delay: SimDuration::from_micros(4_900),
            per_iface_switch_cost: SimDuration::from_micros(250),
        }
    }

    /// Airtime of a data frame of `bytes` bytes, including fixed MAC/PHY
    /// overhead.
    pub fn airtime(&self, bytes: usize) -> SimDuration {
        self.per_frame_overhead + SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.rate_bps)
    }

    /// Airtime of a management frame (sent at the base rate).
    pub fn mgmt_airtime(&self, bytes: usize) -> SimDuration {
        self.per_frame_overhead
            + SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.mgmt_rate_bps)
    }

    /// Total latency of a channel switch when `ifaces` interfaces are
    /// associated across the two channels involved (Table 1's
    /// experiment).
    pub fn switch_latency(&self, ifaces: usize) -> SimDuration {
        self.switch_delay + self.per_iface_switch_cost * ifaces as u64
    }

    /// The theoretical maximum goodput for back-to-back frames of
    /// `bytes` bytes, in bytes/second — useful for calibration tests.
    pub fn max_goodput(&self, bytes: usize) -> f64 {
        bytes as f64 / self.airtime(bytes).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_of_a_full_frame() {
        let phy = PhyParams::b11();
        // 1500-byte frame: 360us + 1500*8/11e6 ≈ 360 + 1091us = 1451us.
        let t = phy.airtime(1500);
        assert_eq!(t.as_micros(), 360 + 1091);
    }

    #[test]
    fn mgmt_frames_are_slow() {
        let phy = PhyParams::b11();
        // 100-byte management frame at 1Mbps: 360 + 800 = 1160us.
        assert_eq!(phy.mgmt_airtime(100).as_micros(), 1160);
        assert!(phy.mgmt_airtime(100) > phy.airtime(100));
    }

    #[test]
    fn switch_latency_grows_with_interfaces() {
        let phy = PhyParams::b11();
        let l0 = phy.switch_latency(0);
        let l4 = phy.switch_latency(4);
        assert_eq!(l0, SimDuration::from_micros(4_900));
        assert_eq!(l4, SimDuration::from_micros(4_900 + 4 * 250));
        // Table 1: ~4.9ms at 0 ifaces, ~5.9ms at 4.
        assert!(l4.as_millis_f64() < 6.5);
    }

    #[test]
    fn max_goodput_is_under_link_rate() {
        let phy = PhyParams::b11();
        let goodput = phy.max_goodput(1500);
        // 11Mbps = 1.375 MB/s; MAC overhead must cost ~20-30%.
        assert!(goodput < 1_375_000.0);
        assert!(goodput > 900_000.0, "goodput {goodput}");
    }
}
