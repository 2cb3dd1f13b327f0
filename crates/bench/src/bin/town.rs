//! Every view of the town drives, from one sweep in which each
//! (configuration, seed) runs once. Shape targets:
//!
//! * Table 2: single-channel multi-AP wins throughput by a large factor,
//!   multi-channel multi-AP wins connectivity, and Spider beats MadWiFi
//!   on both (the paper: 2.5× throughput, 2× connectivity).
//! * Figs. 11–13 (Table 2's seed-1 Spider drives): staying on one channel
//!   with several APs gives the longest connections and the highest
//!   instantaneous bandwidth; multi-channel multi-AP the shortest
//!   disruptions.
//! * Figs. 16–17: Spider's connections carry users' TCP flows, and its
//!   multi-channel disruptions are "comparable to what real users can
//!   sustain".
//! * Figs. 14–15 and Table 3: reduced timeouts speed joins but fail
//!   more; splitting time across channels roughly doubles join delay and
//!   raises the DHCP failure rate.
//! * Table 4: one channel maximises throughput, the equal 3-channel
//!   schedule connectivity.
//! * Figs. 5–6 and the PSM, adaptive and utility ablations: see
//!   their views below.
//!
//! Views share drives. Table 4's single-channel and 3-channel rows are
//! Table 2's rows (1) and (3), as in the paper, and so are the join
//! views' "200 ms, channel 1" and "200 ms, 3 channels": `SpiderConfig`
//! has no mode field, and `for_mode` defaults to 100 ms link-layer and
//! 200 ms DHCP timers. Row (3) is also the PSM ablation's real-802.11
//! arm, and the seed-1 rows (1) and (3) are the adaptive ablation's
//! static cells at the town's own 10 m/s. [`drives`] lists the 36
//! distinct configurations with the seeds the views read (122 drives);
//! each view row names the entry it reads.

use spider_bench::{
    cdf_quantiles, emit_runs_json, print_table, run_town_drives, write_csv, CdfFigure, CdfRow,
    StdConfigs, Town, TownClient, TownDrive,
};
use spider_core::utility::UtilityConfig;
use spider_core::{ChannelSchedule, OperationMode, SpiderConfig};
use spider_mac80211::ClientMacConfig;
use spider_netstack::DhcpClientConfig;
use spider_simcore::{worker_count, Cdf, OnlineStats, SimDuration};
use spider_wire::Channel;
use spider_workloads::meshusers::{generate, MeshUserParams};
use spider_workloads::metrics::RunResult;

/// Seeds of Tables 2 and 4 and of the utility ablation.
const TABLE_SEEDS: &[u64] = &[1, 2, 3];
/// Seeds of the join views (Table 3, Figs. 14–15), Figs. 5–6 and the
/// PSM ablation.
const JOIN_SEEDS: &[u64] = &[1, 2, 3, 4, 5];
/// The one seed of the figures drawn from Table 2's drives and of the
/// adaptive ablation.
const SEED1: &[u64] = &[1];

/// Table 2 row (1): channel 1, multi-AP, 200 ms DHCP timeout.
const CH1: usize = 0;
/// Table 2 row (3): the equal 3-channel schedule, 200 ms DHCP timeout.
const THREE: usize = 2;

/// Fig. 14's series: (label, entry).
const FIG14: [(&str, usize); 6] = [
    ("200ms, channel 1", CH1),
    ("400ms, channel 1", 7),
    ("600ms, channel 1", 8),
    ("default, channel 1", 9),
    ("default, 3 channels", 10),
    ("200ms, 3 channels", THREE),
];
/// Fig. 15's series: (label, entry).
const FIG15: [(&str, usize); 6] = [
    ("1 iface, ch1 100%, default TO", 11),
    ("7 ifaces, ch1 100%, default TO", 9),
    ("7 ifaces, ch1 100%, dhcp 200ms ll 100ms", CH1),
    ("7 ifaces, ch1 50% ch6 50%, default TO", 12),
    ("7 ifaces, 3 chans eq, default TO", 10),
    ("7 ifaces, 3 chans eq, dhcp 200ms ll 100ms", THREE),
];
/// Table 3's rows: (label, entry).
const TABLE3: [(&str, usize); 6] = [
    ("chan 1, linklayer 100ms, dhcp 600ms, 7 ifaces", 8),
    ("chan 1, linklayer 100ms, dhcp 400ms, 7 ifaces", 7),
    ("chan 1, linklayer 100ms, dhcp 200ms, 7 ifaces", CH1),
    ("3 chans, static 1/3, ll 100ms, dhcp 200ms, 7 ifaces", THREE),
    ("chan 1, default timers, 7 ifaces", 9),
    ("3 chans, static 1/3, default timers, 7 ifaces", 10),
];
/// Table 4's rows: (label, entry).
const TABLE4: [(&str, usize); 3] = [
    ("3-channel (equal schedule)", THREE),
    ("2-channel (equal schedule)", 6),
    ("Single-channel", CH1),
];
/// Fig. 5's series: (f₆, entry).
const FIG05: [(f64, usize); 4] = [(0.25, 13), (0.50, 14), (0.75, 15), (1.00, 16)];
/// Fig. 6's series: (label, f₆, DHCP message timeout in ms or `None`
/// for the stock timers, entry).
const FIG06: [(&str, f64, Option<u64>, usize); 4] = [
    ("25% - 100ms", 0.25, Some(100), 17),
    ("50% - 100ms", 0.50, Some(100), 18),
    ("100% - 100ms", 1.00, Some(100), 19),
    ("100% - default", 1.00, None, 20),
];
/// The PSM ablation's worlds: (label, entry).
const PSM: [(&str, usize); 2] = [
    ("real 802.11 (join traffic unbufferable)", THREE),
    ("counterfactual (APs buffer DHCP for sleepers)", 21),
];
/// The adaptive ablation's rows: (speed in m/s, entries of static
/// channel-1 multi-AP, static 3-channel multi-AP and adaptive).
const ADAPTIVE: [(f64, [usize; 3]); 4] = [
    (2.5, [22, 23, 24]),
    (5.0, [25, 26, 27]),
    (10.0, [CH1, THREE, 31]),
    (20.0, [28, 29, 30]),
];
/// The utility ablation's policies: (label, entry).
const UTILITY: [(&str, usize); 4] = [
    ("paper (alpha=0.5)", 32),
    ("no history (alpha=0)", 33),
    ("harsh (alpha=0.9)", 34),
    ("FatVAP (AP-sliced, bw-estimate)", 35),
];

/// The distinct town drives, each with the seeds the views read it on.
/// Entries 0–5 are Table 2's rows; rows (1) and (3) run on the join
/// views' five seeds because those views read them too. Entry 6 is
/// Table 4's 2-channel schedule, entries 7–12 the join views' other
/// timer and schedule variants, 13–20 Figs. 5–6, and 21–35 the three
/// ablations.
fn drives() -> Vec<(TownDrive, &'static [u64])> {
    let ch1 = SpiderConfig::for_mode(OperationMode::SingleChannelMultiAp(Channel::CH1), 1);
    let three = SpiderConfig::for_mode(
        OperationMode::MultiChannelMultiAp {
            period: StdConfigs::period(),
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
    let two = ChannelSchedule::equal(&[Channel::CH1, Channel::CH6], SimDuration::from_millis(400));
    let half = ChannelSchedule::custom(
        SimDuration::from_millis(400),
        vec![(Channel::CH1, 0.5), (Channel::CH6, 0.5)],
    );
    // Figs. 5–6: fraction f₆ of a 400 ms period on channel 6, joining
    // channel-6 APs only.
    let f6 = |x: f64| {
        let schedule = StdConfigs::f6_schedule(x);
        SpiderConfig::for_mode(
            OperationMode::MultiChannelMultiAp {
                period: schedule.period(),
            },
            1,
        )
        .with_schedule(schedule)
        .with_candidates(vec![Channel::CH6])
    };
    // The utility ablation runs single-AP Spider: with one connection at
    // a time, a join wasted on a broken AP is connectivity lost, which
    // is where selection policy shows. (With 7 concurrent interfaces
    // the driver simply tries everything and selection errors are
    // masked; see EXPERIMENTS.md.)
    let recency = |alpha: f64| {
        let mut cfg = SpiderConfig::for_mode(OperationMode::SingleChannelSingleAp(Channel::CH1), 1);
        cfg.utility = UtilityConfig {
            recency: alpha,
            ..UtilityConfig::default()
        };
        TownClient::Spider(cfg).on(Town::Harsh)
    };

    let mut drives: Vec<(TownDrive, &'static [u64])> = StdConfigs::table2_drives()
        .into_iter()
        .enumerate()
        .map(|(row, drive)| {
            let seeds = if row == CH1 || row == THREE {
                JOIN_SEEDS
            } else {
                TABLE_SEEDS
            };
            (drive, seeds)
        })
        .collect();
    drives.extend(
        [
            (three.clone().with_schedule(two), TABLE_SEEDS), // 6
            (timers(&ch1, Some(400)), JOIN_SEEDS),           // 7
            (timers(&ch1, Some(600)), JOIN_SEEDS),           // 8
            (timers(&ch1, None), JOIN_SEEDS),                // 9
            (timers(&three, None), JOIN_SEEDS),              // 10
            (timers(&ch1, None).with_ifaces(1), JOIN_SEEDS), // 11
            (timers(&three, None).with_schedule(half), JOIN_SEEDS), // 12
        ]
        .map(|(cfg, seeds)| (TownClient::Spider(cfg).on(Town::Standard), seeds)),
    );
    // 13–16
    drives.extend(FIG05.map(|(x, _)| (TownClient::Spider(f6(x)).on(Town::Standard), JOIN_SEEDS)));
    // 17–20
    drives.extend(FIG06.map(|(_, x, dhcp_ms, _)| {
        let dhcp = match dhcp_ms {
            Some(ms) => DhcpClientConfig::reduced(SimDuration::from_millis(ms)),
            None => DhcpClientConfig::stock(),
        };
        let cfg = f6(x).with_timeouts(ClientMacConfig::reduced(), dhcp);
        (TownClient::Spider(cfg).on(Town::Standard), JOIN_SEEDS)
    }));
    // 21
    drives.push((
        TownClient::Spider(three.clone()).on(Town::PsmBuffered),
        JOIN_SEEDS,
    ));
    // 22–30: per speed, static channel-1 and 3-channel multi-AP and
    // adaptive; 31: adaptive at the town's own speed.
    for speed in [2.5, 5.0, 20.0] {
        drives.extend(
            [
                TownClient::Spider(ch1.clone()),
                TownClient::Spider(three.clone()),
                TownClient::Adaptive,
            ]
            .map(|client| (client.on(Town::Speed(speed)), SEED1)),
        );
    }
    drives.push((TownClient::Adaptive.on(Town::Standard), SEED1));
    // 32–35
    drives.extend(
        [
            recency(0.5),
            recency(0.0),
            recency(0.9),
            TownClient::FatVap.on(Town::Harsh),
        ]
        .map(|drive| (drive, TABLE_SEEDS)),
    );
    drives
}

fn main() {
    let results = run_town_drives(&drives(), worker_count());
    table2(&results);
    table2_figures(&results);
    join_views(&results);
    table4(&results);
    fig05(&results);
    fig06(&results);
    ablation_psm(&results);
    ablation_adaptive(&results);
    ablation_utility(&results);
}

/// Registry entry `entry`'s runs on `seeds`, which lead its seeds.
fn runs<'a>(results: &'a [Vec<RunResult>], entry: usize, seeds: &[u64]) -> &'a [RunResult] {
    &results[entry][..seeds.len()]
}

/// `cdf` of each of entry `entry`'s runs on the join seeds, merged in
/// seed order.
fn merged(results: &[Vec<RunResult>], entry: usize, cdf: impl Fn(&RunResult) -> Cdf) -> Cdf {
    let mut merged = Cdf::new();
    for result in runs(results, entry, JOIN_SEEDS) {
        merged.merge(&cdf(result));
    }
    merged
}

/// Mean throughput (KB/s) and connectivity (%) over `runs`, pushed in
/// seed order (`OnlineStats` is order-sensitive in floating point).
fn rates(runs: &[RunResult]) -> (OnlineStats, OnlineStats) {
    let mut thr = OnlineStats::new();
    let mut conn = OnlineStats::new();
    for result in runs {
        thr.push(result.throughput_kbs());
        conn.push(result.connectivity_pct());
    }
    (thr, conn)
}

/// Print and write a throughput/connectivity table: one row per
/// `(label, entry)`, each the mean over the table seeds.
fn rate_table(title: &str, file: &str, results: &[Vec<RunResult>], rows: &[(&str, usize)]) {
    let mut csv = Vec::new();
    let mut table = Vec::new();
    for &(label, entry) in rows {
        let (thr, conn) = rates(runs(results, entry, TABLE_SEEDS));
        csv.push(vec![
            label.to_string(),
            format!("{:.1}", thr.mean()),
            format!("{:.1}", conn.mean()),
        ]);
        table.push(vec![
            label.to_string(),
            format!("{:.1} ± {:.1}", thr.mean(), thr.std_dev()),
            format!("{:.1} ± {:.1}", conn.mean(), conn.std_dev()),
        ]);
    }
    print_table(
        title,
        &["Parameters", "Throughput KB/s", "Connectivity %"],
        &table,
    );
    let path = write_csv(file, &["config", "throughput_kbs", "connectivity_pct"], csv);
    println!("\nwrote {}", path.display());
}

fn table2(results: &[Vec<RunResult>]) {
    let rows: Vec<(&str, usize)> = StdConfigs::TABLE2_LABELS
        .iter()
        .enumerate()
        .map(|(entry, &label)| (label, entry))
        .collect();
    rate_table(
        "Table 2: avg throughput and connectivity per configuration",
        "table2.csv",
        results,
        &rows,
    );
    let mut artifacts = Vec::new();
    for (label, entry) in rows {
        for (result, &seed) in runs(results, entry, TABLE_SEEDS).iter().zip(TABLE_SEEDS) {
            artifacts.push((format!("{label} seed={seed}"), result.clone()));
        }
    }
    let json_path = emit_runs_json("table2_runs.json", &artifacts);
    println!("wrote {}", json_path.display());
    println!(
        "\nPaper: (1) 121.5 KB/s 35.5%  (2) 28.0 22.3%  (3) 28.8 44.6%\n\
         (4) 77.9 40.2%  Cambridge ch6 single 90.7 36.4%  MadWiFi 35.9 18.0%"
    );
}

/// Figs. 11–13 and 16–17, from the seed-1 drives of Table 2's rows;
/// Figs. 11–13 show the four Spider rows.
fn table2_figures(results: &[Vec<RunResult>]) {
    let spider_rows: Vec<(&str, &RunResult)> = (0..4)
        .map(|row| {
            (
                StdConfigs::TABLE2_LABELS[row],
                &runs(results, row, SEED1)[0],
            )
        })
        .collect();
    let (ch1, multi) = (spider_rows[CH1].1, spider_rows[THREE].1);

    CdfFigure {
        title: "Fig 11: CDF of connection duration (fraction of connections <= t)",
        file: "fig11.csv",
        label: "config",
        probes: &[2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0],
        median_digits: 1,
    }
    .emit(spider_rows.iter().map(|(l, r)| (*l, r.connection_cdf())));

    CdfFigure {
        title: "Fig 12: CDF of disruption length (fraction of disruptions <= t)",
        file: "fig12.csv",
        label: "config",
        probes: &[2.0, 5.0, 10.0, 30.0, 60.0, 150.0, 300.0],
        median_digits: 1,
    }
    .emit(spider_rows.iter().map(|(l, r)| (*l, r.disruption_cdf())));

    let quantiles = [0.1, 0.25, 0.5, 0.6, 0.75, 0.9];
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (label, result) in &spider_rows {
        let mut cdf = result.instantaneous_bps.clone();
        let mut cells = vec![label.to_string(), format!("{}", cdf.len())];
        let mut row = vec![label.to_string()];
        for v in cdf_quantiles(&mut cdf, &quantiles, 1.0 / 1_000.0) {
            row.push(format!("{v:.1}"));
            cells.push(format!("{v:.0}"));
        }
        rows.push(row);
        table.push(cells);
    }
    print_table(
        "Fig 13: instantaneous bandwidth quantiles (KB/s while connected)",
        &["config", "n", "p10", "p25", "p50", "p60", "p75", "p90"],
        &table,
    );
    let path = write_csv(
        "fig13.csv",
        &[
            "config", "p10_kbs", "p25_kbs", "p50_kbs", "p60_kbs", "p75_kbs", "p90_kbs",
        ],
        rows,
    );
    println!("\nwrote {}", path.display());

    let trace = generate(&MeshUserParams::default(), 42);
    CdfFigure {
        title: "Fig 16: connection-length CDFs — user demand vs Spider supply",
        file: "fig16.csv",
        label: "series",
        probes: &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
        median_digits: 1,
    }
    .emit([
        ("users' flow durations", trace.flow_durations),
        ("Spider multi-AP (ch1)", ch1.connection_cdf()),
        ("Spider multi-AP (multi-channel)", multi.connection_cdf()),
    ]);

    CdfFigure {
        title: "Fig 17: disruption-length CDFs — user tolerance vs Spider",
        file: "fig17.csv",
        label: "series",
        probes: &[2.0, 5.0, 10.0, 30.0, 60.0, 150.0, 300.0],
        median_digits: 1,
    }
    .emit([
        ("user inter-connection gaps", trace.inter_connection_gaps),
        ("Spider multi-AP (ch1)", ch1.disruption_cdf()),
        ("Spider multi-AP (multi-channel)", multi.disruption_cdf()),
    ]);
}

/// Table 3 and Figs. 14–15, over the five join seeds of each entry.
fn join_views(results: &[Vec<RunResult>]) {
    let join_cdf = |entry| merged(results, entry, |r| r.join_log.join_cdf());
    let probes = [0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 15.0];

    CdfFigure {
        title: "Fig 14: fraction of successful joins within t, by DHCP timeout",
        file: "fig14.csv",
        label: "config",
        probes: &probes,
        median_digits: 2,
    }
    .emit(FIG14.iter().map(|&(label, d)| (label, join_cdf(d))));

    CdfFigure {
        title: "Fig 15: join delay CDF by scheduling policy",
        file: "fig15.csv",
        label: "policy",
        probes: &probes,
        median_digits: 2,
    }
    .emit(FIG15.iter().map(|&(label, d)| (label, join_cdf(d))));

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (label, d) in TABLE3 {
        // Seed order matters: `OnlineStats` is order-sensitive in
        // floating point.
        let mut stats = OnlineStats::new();
        for rate in runs(results, d, JOIN_SEEDS)
            .iter()
            .filter_map(|r| r.join_log.dhcp_failure_ratio())
        {
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

fn table4(results: &[Vec<RunResult>]) {
    rate_table(
        "Table 4: throughput/connectivity by static schedule width",
        "table4.csv",
        results,
        &TABLE4,
    );
    println!("\nPaper: 3-ch 28.8 KB/s 44.7% | 2-ch 25.1 35.8% | 1-ch 121.5 35.5%");
}

/// Fig. 5: the rate of successful link-layer associations by the time
/// spent on channel 6, f₆, of a 400 ms period (the rest split between
/// channels 1 and 11; link-layer timeout 100 ms), over the join seeds.
/// The paper: associations are fairly robust to switching — f₆ = 100 %
/// completes everything within ~400 ms, and performance does not
/// collapse as f₆ shrinks to 25 %.
fn fig05(results: &[Vec<RunResult>]) {
    let probes_s = [0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0];
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (f6, entry) in FIG05 {
        let mut cdf = merged(results, entry, |r| r.join_log.assoc_cdf());
        let row = CdfRow::probe(&mut cdf, &probes_s);
        let mut cells = vec![format!("{:.0}%", f6 * 100.0), format!("{}", row.n)];
        cells.extend(row.table_fractions());
        cells.push(format!("{:.0}ms", row.median * 1_000.0));
        let mut csv = vec![format!("{f6}")];
        csv.extend(row.csv_fractions());
        rows.push(csv);
        table.push(cells);
    }
    print_table(
        "Fig 5: fraction of successful associations within t, by time on ch6",
        &[
            "f6", "n", "100ms", "200ms", "300ms", "400ms", "600ms", "800ms", "1s", "median",
        ],
        &table,
    );
    let path = write_csv(
        "fig05.csv",
        &[
            "f6", "le_100ms", "le_200ms", "le_300ms", "le_400ms", "le_600ms", "le_800ms", "le_1s",
        ],
        rows,
    );
    println!("\nwrote {}", path.display());
}

/// Fig. 6: the rate of successful DHCP leases by schedule and DHCP
/// timeout, over the join seeds. The paper: reduced timers cut the
/// median lease time (2.5 s → 1.3 s at f₆ = 100 %), and DHCP, unlike
/// association, is *not* robust to small channel fractions.
fn fig06(results: &[Vec<RunResult>]) {
    let probe_s = [0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 15.0];
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (label, f6, _, entry) in FIG06 {
        let mut cdf = merged(results, entry, |r| r.join_log.dhcp_cdf());
        let mut failures = 0u64;
        let mut successes = 0u64;
        for result in runs(results, entry, JOIN_SEEDS) {
            failures += result.join_log.dhcp_failures;
            successes += result.join_log.dhcp.len() as u64;
        }
        let fail_rate = failures as f64 / (failures + successes).max(1) as f64;
        let row = CdfRow::probe(&mut cdf, &probe_s);
        let mut cells = vec![label.to_string(), format!("{}", row.n)];
        cells.extend(row.table_fractions());
        cells.push(format!("{:.2}s", row.median));
        cells.push(format!("{:.0}%", fail_rate * 100.0));
        let mut csv = vec![format!("{f6}")];
        csv.extend(row.csv_fractions());
        rows.push(csv);
        table.push(cells);
    }
    print_table(
        "Fig 6: fraction of successful DHCP leases within t",
        &[
            "config", "n", "0.5s", "1s", "2s", "3s", "5s", "10s", "15s", "median", "fail%",
        ],
        &table,
    );
    let path = write_csv(
        "fig06.csv",
        &[
            "f6", "le_05s", "le_1s", "le_2s", "le_3s", "le_5s", "le_10s", "le_15s",
        ],
        rows,
    );
    println!("\nwrote {}", path.display());
}

/// Ablation: *why* do multi-channel joins fail? The paper's answer: the
/// join's DHCP responses cannot be PSM-buffered while the client serves
/// another channel (§1). The counterfactual grants APs a magic ability
/// real 802.11 lacks — buffering DHCP responses for sleeping clients —
/// and measures how much of the multi-channel join penalty disappears.
fn ablation_psm(results: &[Vec<RunResult>]) {
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (label, entry) in PSM {
        let mut fail = OnlineStats::new();
        let mut thr = OnlineStats::new();
        for result in runs(results, entry, JOIN_SEEDS) {
            if let Some(r) = result.join_log.dhcp_failure_ratio() {
                fail.push(r * 100.0);
            }
            thr.push(result.throughput_kbs());
        }
        let mut joins = merged(results, entry, |r| r.join_log.join_cdf());
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", fail.mean()),
            format!("{:.2}", joins.median()),
            format!("{:.1}", thr.mean()),
        ]);
        table.push(vec![
            label.to_string(),
            format!("{:.1}%", fail.mean()),
            format!("{:.2}s", joins.median()),
            format!("{:.1} KB/s", thr.mean()),
        ]);
    }
    print_table(
        "Ablation: is the multi-channel penalty really the unbufferable join?",
        &["world", "dhcp failures", "median join", "throughput"],
        &table,
    );
    let path = write_csv(
        "ablation_psm.csv",
        &["world", "dhcp_fail_pct", "median_join_s", "throughput_kbs"],
        rows,
    );
    println!("\nwrote {}", path.display());
    println!(
        "\n3-channel schedule, 30-minute drives. If the counterfactual closes\n\
         most of the failure gap, the paper's mechanism is confirmed: it is\n\
         the DHCP exchange's intolerance of absence — not switching cost or\n\
         airtime — that breaks fractional schedules."
    );
}

/// Ablation: the §4.8 adaptive scheduler vs static channel-1 and
/// 3-channel multi-AP across speeds. It should track the best static
/// mode at each speed: multi-channel at walking pace
/// (connectivity-rich), single-channel at vehicular speed (the
/// dividing-speed result).
fn ablation_adaptive(results: &[Vec<RunResult>]) {
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (speed, entries) in ADAPTIVE {
        let mut cells = vec![format!("{speed}")];
        let mut row = vec![speed];
        for entry in entries {
            let result = &runs(results, entry, SEED1)[0];
            let (kbs, conn) = (result.throughput_kbs(), result.connectivity_pct());
            row.push(kbs);
            row.push(conn);
            cells.push(format!("{kbs:.0}/{conn:.0}%"));
        }
        rows.push(row);
        table.push(cells);
    }
    print_table(
        "Ablation: adaptive scheduling vs static modes (KB/s / connectivity)",
        &[
            "speed(m/s)",
            "static ch1 multi-AP",
            "static 3ch multi-AP",
            "adaptive",
        ],
        &table,
    );
    let path = write_csv(
        "ablation_adaptive.csv",
        &[
            "speed",
            "ch1_kbs",
            "ch1_conn",
            "m3_kbs",
            "m3_conn",
            "adaptive_kbs",
            "adaptive_conn",
        ],
        rows,
    );
    println!("\nwrote {}", path.display());
}

/// Ablation: Spider's join-history AP selection on the harsh town, with
/// the paper's weights (va=0.3, vb=0.6, vc=1.0, α=0.5), no history (α=0:
/// every AP keeps its optimistic bootstrap, so selection degenerates to
/// signal strength) and harsh memory (α=0.9: one failure nearly
/// disqualifies an AP), against the FatVAP driver's bandwidth-estimate
/// selection. Every Spider row keeps the utility table's failure
/// cooldown and backoff, which do not depend on α, so the rows isolate
/// the ranking alone. History can only reorder APs that are in range
/// together, and the backoff already keeps a broken AP from being
/// retried within one encounter, so the α rows end up close
/// (EXPERIMENTS.md).
fn ablation_utility(results: &[Vec<RunResult>]) {
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (label, entry) in UTILITY {
        let (thr, conn) = rates(runs(results, entry, TABLE_SEEDS));
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", thr.mean()),
            format!("{:.1}", conn.mean()),
        ]);
        table.push(vec![
            label.to_string(),
            format!("{:.1} KB/s", thr.mean()),
            format!("{:.1}%", conn.mean()),
        ]);
    }
    print_table(
        "Ablation: AP-selection policy (town drive)",
        &["policy", "throughput", "connectivity"],
        &table,
    );
    let path = write_csv(
        "ablation_utility.csv",
        &["policy", "throughput_kbs", "connectivity_pct"],
        rows,
    );
    println!("\nwrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_bench::town_params;

    /// Every (entry, seeds) a view reads.
    fn view_reads() -> Vec<(usize, &'static [u64])> {
        let mut reads: Vec<(usize, &'static [u64])> = Vec::new();
        // Table 2, and Figs. 11–13 and 16–17 from its Spider rows.
        reads.extend((0..StdConfigs::TABLE2_ROWS).map(|e| (e, TABLE_SEEDS)));
        reads.extend((0..4).map(|e| (e, SEED1)));
        for (_, e) in FIG14.iter().chain(&FIG15).chain(&TABLE3).chain(&PSM) {
            reads.push((*e, JOIN_SEEDS));
        }
        for (_, e) in TABLE4.iter().chain(&UTILITY) {
            reads.push((*e, TABLE_SEEDS));
        }
        reads.extend(FIG05.map(|(_, e)| (e, JOIN_SEEDS)));
        reads.extend(FIG06.map(|(.., e)| (e, JOIN_SEEDS)));
        for (_, entries) in ADAPTIVE {
            reads.extend(entries.map(|e| (e, SEED1)));
        }
        reads
    }

    #[test]
    fn registry_runs_each_drive_once_and_serves_every_view() {
        let drives = drives();
        assert_eq!(drives.len(), 36);
        assert_eq!(drives.iter().map(|(_, s)| s.len()).sum::<usize>(), 122);
        let rendered: Vec<String> = drives.iter().map(|(d, _)| format!("{d:?}")).collect();
        for (i, a) in rendered.iter().enumerate() {
            for (j, b) in rendered.iter().enumerate().skip(i + 1) {
                assert!(a != b, "entries {i} and {j} are the same drive");
            }
        }
        // The standard town under another name would render differently.
        let own_speed = town_params(1).speed_mps;
        for (i, (drive, seeds)) in drives.iter().enumerate() {
            assert!(
                seeds.windows(2).all(|w| w[0] < w[1]),
                "entry {i}'s seeds are not strictly increasing"
            );
            assert!(
                !matches!(drive.town, Town::Speed(v) if v == own_speed),
                "entry {i} drives the standard town as Town::Speed"
            );
        }
        for (entry, seeds) in view_reads() {
            let Some((_, has)) = drives.get(entry) else {
                panic!("a view reads entry {entry}, which the registry lacks");
            };
            assert!(
                has.starts_with(seeds),
                "a view reads entry {entry} on {seeds:?}, but it runs on {has:?}"
            );
        }
    }
}
