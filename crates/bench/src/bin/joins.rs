//! Table 3 and Figures 14–15: one sweep of join drives, three views.
//!
//! * Fig. 14: rate of successful joins (association + DHCP, verified by
//!   ping) as a function of the DHCP timeout — 200/400/600 ms and
//!   default timers on channel 1, plus default and 200 ms over three
//!   channels. The paper: reduced timeouts improve the median join
//!   time, but "the cost of switching among channels overshadows the
//!   benefit"; multi-channel joins take ~2x longer.
//! * Fig. 15: join delay for six scheduling policies — interface
//!   counts, channel splits and timer settings. The paper: a single
//!   channel with reduced timeouts joins fastest; splitting time across
//!   channels roughly doubles join delay.
//! * Table 3: DHCP failure probabilities (mean ± sd over the five
//!   drives). Reducing the DHCP timeout raises the failure rate (a
//!   smaller window for slow APs to answer); multi-channel schedules
//!   fail more than single-channel at the same timers; default timers
//!   fail least but are slow (Fig. 14 is the flip side).
//!
//! The views share most of their configurations, so the eight distinct
//! ones each run once per seed, and every row names the one it reads.

use spider_bench::{print_table, spider_run, town_params, write_csv, CdfFigure};
use spider_core::{ChannelSchedule, OperationMode, SpiderConfig};
use spider_mac80211::ClientMacConfig;
use spider_netstack::DhcpClientConfig;
use spider_simcore::{sweep, Cdf, OnlineStats, SimDuration};
use spider_wire::Channel;
use spider_workloads::scenarios::town_scenario;

/// The eight distinct configurations; the views index into this list.
fn configs() -> Vec<SpiderConfig> {
    let ch1 = SpiderConfig::for_mode(OperationMode::SingleChannelMultiAp(Channel::CH1), 1);
    let three = SpiderConfig::for_mode(
        OperationMode::MultiChannelMultiAp {
            period: SimDuration::from_millis(600),
        },
        1,
    );
    // `Some(ms)`: 100 ms link-layer and `ms` DHCP timeouts; `None`: the
    // stock timers.
    let timers = |cfg: &SpiderConfig, dhcp_ms: Option<u64>| match dhcp_ms {
        Some(ms) => cfg.clone().with_timeouts(
            ClientMacConfig::reduced(),
            DhcpClientConfig::reduced(SimDuration::from_millis(ms)),
        ),
        None => cfg
            .clone()
            .with_timeouts(ClientMacConfig::stock(), DhcpClientConfig::stock()),
    };
    let half = ChannelSchedule::custom(
        SimDuration::from_millis(400),
        vec![(Channel::CH1, 0.5), (Channel::CH6, 0.5)],
    );
    vec![
        timers(&ch1, Some(200)),
        timers(&ch1, Some(400)),
        timers(&ch1, Some(600)),
        timers(&ch1, None),
        timers(&three, None),
        timers(&three, Some(200)),
        timers(&ch1, None).with_ifaces(1),
        timers(&three, None).with_schedule(half),
    ]
}

fn main() {
    let configs = configs();
    let seeds: Vec<u64> = (1..=5).collect();
    let mut jobs = Vec::new();
    for cfg in &configs {
        for &seed in &seeds {
            jobs.push((cfg.clone(), seed));
        }
    }
    let drives = sweep(&jobs, |(cfg, seed)| {
        let result = spider_run(town_scenario(&town_params(*seed)), cfg.clone());
        (
            result.join_log.join_cdf(),
            result.join_log.dhcp_failure_ratio(),
        )
    });
    // Config `c`'s drives, in seed order.
    let per_seed = |c: usize| &drives[c * seeds.len()..(c + 1) * seeds.len()];
    let join_cdf = |c: usize| {
        let mut cdf = Cdf::new();
        for (seed_cdf, _) in per_seed(c) {
            cdf.merge(seed_cdf);
        }
        cdf
    };

    let probes = [0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 15.0];

    let fig14 = [
        ("200ms, channel 1", 0),
        ("400ms, channel 1", 1),
        ("600ms, channel 1", 2),
        ("default, channel 1", 3),
        ("default, 3 channels", 4),
        ("200ms, 3 channels", 5),
    ];
    CdfFigure {
        title: "Fig 14: fraction of successful joins within t, by DHCP timeout",
        file: "fig14.csv",
        table_headers: &[
            "config", "n", "0.5s", "1s", "2s", "3s", "5s", "10s", "15s", "median",
        ],
        csv_headers: &[
            "config", "le_05s", "le_1s", "le_2s", "le_3s", "le_5s", "le_10s", "le_15s",
        ],
        probes: &probes,
        median_digits: 2,
    }
    .emit(fig14.iter().map(|&(label, c)| (label, join_cdf(c))));

    let fig15 = [
        ("1 iface, ch1 100%, default TO", 6),
        ("7 ifaces, ch1 100%, default TO", 3),
        ("7 ifaces, ch1 100%, dhcp 200ms ll 100ms", 0),
        ("7 ifaces, ch1 50% ch6 50%, default TO", 7),
        ("7 ifaces, 3 chans eq, default TO", 4),
        ("7 ifaces, 3 chans eq, dhcp 200ms ll 100ms", 5),
    ];
    CdfFigure {
        title: "Fig 15: join delay CDF by scheduling policy",
        file: "fig15.csv",
        table_headers: &[
            "policy", "n", "0.5s", "1s", "2s", "3s", "5s", "10s", "15s", "median",
        ],
        csv_headers: &[
            "policy", "le_05s", "le_1s", "le_2s", "le_3s", "le_5s", "le_10s", "le_15s",
        ],
        probes: &probes,
        median_digits: 2,
    }
    .emit(fig15.iter().map(|&(label, c)| (label, join_cdf(c))));

    let table3 = [
        ("chan 1, linklayer 100ms, dhcp 600ms, 7 ifaces", 2),
        ("chan 1, linklayer 100ms, dhcp 400ms, 7 ifaces", 1),
        ("chan 1, linklayer 100ms, dhcp 200ms, 7 ifaces", 0),
        ("3 chans, static 1/3, ll 100ms, dhcp 200ms, 7 ifaces", 5),
        ("chan 1, default timers, 7 ifaces", 3),
        ("3 chans, static 1/3, default timers, 7 ifaces", 4),
    ];
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (label, c) in table3 {
        // Seed order matters: `OnlineStats` is order-sensitive in
        // floating point.
        let mut stats = OnlineStats::new();
        for rate in per_seed(c).iter().filter_map(|(_, rate)| *rate) {
            stats.push(rate * 100.0);
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", stats.mean()),
            format!("{:.1}", stats.std_dev()),
        ]);
        table.push(vec![
            label.to_string(),
            format!("{:.1}% ± {:.1}%", stats.mean(), stats.std_dev()),
        ]);
    }
    print_table(
        "Table 3: DHCP failure probabilities",
        &["parameters", "Failed dhcp"],
        &table,
    );
    let path = write_csv("table3.csv", &["config", "fail_pct", "sd"], rows);
    println!("\nwrote {}", path.display());
    println!("\nPaper: 23.0±6.4, 27.1±5.4, 28.2±4.0, 23.6±10.7, 13.5±6.3, 21.8±6.9 %");
}
