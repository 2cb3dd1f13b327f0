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
//!
//! Views share drives. Table 4's single-channel and 3-channel rows are
//! Table 2's rows (1) and (3), as in the paper, and so are the join
//! views' "200 ms, channel 1" and "200 ms, 3 channels": `SpiderConfig`
//! has no mode field, and `for_mode` defaults to 100 ms link-layer and
//! 200 ms DHCP timers. [`drives`] lists the 13 distinct configurations
//! with the seeds the views read (55 drives); each view row names the
//! entry it reads.

use spider_bench::{
    cdf_quantiles, emit_runs_json, print_table, run_town_drives, write_csv, CdfFigure, StdConfigs,
    TownDrive,
};
use spider_core::{ChannelSchedule, OperationMode, SpiderConfig};
use spider_mac80211::ClientMacConfig;
use spider_netstack::DhcpClientConfig;
use spider_simcore::{worker_count, Cdf, OnlineStats, SimDuration};
use spider_wire::Channel;
use spider_workloads::meshusers::{generate, MeshUserParams};
use spider_workloads::metrics::RunResult;

/// Seeds of Tables 2 and 4; the figures drawn from Table 2's drives read
/// the first.
const TABLE_SEEDS: &[u64] = &[1, 2, 3];
/// Seeds of the join views: Table 3 and Figs. 14–15.
const JOIN_SEEDS: &[u64] = &[1, 2, 3, 4, 5];

/// Table 2 row (1): channel 1, multi-AP, 200 ms DHCP timeout.
const CH1: usize = 0;
/// Table 2 row (3): the equal 3-channel schedule, 200 ms DHCP timeout.
const THREE: usize = 2;

/// The distinct town drives, each with the seeds the views read it on.
/// Entries 0–5 are Table 2's rows; rows (1) and (3) run on the join
/// views' five seeds because those views read them too. Entry 6 is
/// Table 4's 2-channel schedule, entries 7–12 the join views' other
/// timer and schedule variants.
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
        .map(|(cfg, seeds)| (TownDrive::Spider(cfg), seeds)),
    );
    drives
}

fn main() {
    let results = run_town_drives(&drives(), worker_count());
    table2(&results);
    table2_figures(&results);
    join_views(&results);
    table4(&results);
}

/// Print and write a throughput/connectivity table: one row per
/// `(label, entry)`, each the mean over the table seeds in seed order
/// (`OnlineStats` is order-sensitive in floating point).
fn rate_table(title: &str, file: &str, rows: &[(&str, &[RunResult])]) {
    let mut csv = Vec::new();
    let mut table = Vec::new();
    for &(label, results) in rows {
        let mut thr = OnlineStats::new();
        let mut conn = OnlineStats::new();
        for result in &results[..TABLE_SEEDS.len()] {
            thr.push(result.throughput_kbs());
            conn.push(result.connectivity_pct());
        }
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
    let rows: Vec<(&str, &[RunResult])> = StdConfigs::TABLE2_LABELS
        .iter()
        .zip(results)
        .map(|(&label, per_seed)| (label, per_seed.as_slice()))
        .collect();
    rate_table(
        "Table 2: avg throughput and connectivity per configuration",
        "table2.csv",
        &rows,
    );
    let mut artifacts = Vec::new();
    for (label, per_seed) in rows {
        for (result, &seed) in per_seed.iter().zip(TABLE_SEEDS) {
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
        .map(|row| (StdConfigs::TABLE2_LABELS[row], &results[row][0]))
        .collect();
    let (ch1, multi) = (&results[CH1][0], &results[THREE][0]);

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
    let join_cdf = |d: usize| {
        let mut cdf = Cdf::new();
        for result in &results[d] {
            cdf.merge(&result.join_log.join_cdf());
        }
        cdf
    };
    let probes = [0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 15.0];

    let fig14 = [
        ("200ms, channel 1", CH1),
        ("400ms, channel 1", 7),
        ("600ms, channel 1", 8),
        ("default, channel 1", 9),
        ("default, 3 channels", 10),
        ("200ms, 3 channels", THREE),
    ];
    CdfFigure {
        title: "Fig 14: fraction of successful joins within t, by DHCP timeout",
        file: "fig14.csv",
        label: "config",
        probes: &probes,
        median_digits: 2,
    }
    .emit(fig14.iter().map(|&(label, d)| (label, join_cdf(d))));

    let fig15 = [
        ("1 iface, ch1 100%, default TO", 11),
        ("7 ifaces, ch1 100%, default TO", 9),
        ("7 ifaces, ch1 100%, dhcp 200ms ll 100ms", CH1),
        ("7 ifaces, ch1 50% ch6 50%, default TO", 12),
        ("7 ifaces, 3 chans eq, default TO", 10),
        ("7 ifaces, 3 chans eq, dhcp 200ms ll 100ms", THREE),
    ];
    CdfFigure {
        title: "Fig 15: join delay CDF by scheduling policy",
        file: "fig15.csv",
        label: "policy",
        probes: &probes,
        median_digits: 2,
    }
    .emit(fig15.iter().map(|&(label, d)| (label, join_cdf(d))));

    let table3 = [
        ("chan 1, linklayer 100ms, dhcp 600ms, 7 ifaces", 8),
        ("chan 1, linklayer 100ms, dhcp 400ms, 7 ifaces", 7),
        ("chan 1, linklayer 100ms, dhcp 200ms, 7 ifaces", CH1),
        ("3 chans, static 1/3, ll 100ms, dhcp 200ms, 7 ifaces", THREE),
        ("chan 1, default timers, 7 ifaces", 9),
        ("3 chans, static 1/3, default timers, 7 ifaces", 10),
    ];
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (label, d) in table3 {
        // Seed order matters: `OnlineStats` is order-sensitive in
        // floating point.
        let mut stats = OnlineStats::new();
        for rate in results[d]
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
        &[
            ("3-channel (equal schedule)", &results[THREE]),
            ("2-channel (equal schedule)", &results[6]),
            ("Single-channel", &results[CH1]),
        ],
    );
    println!("\nPaper: 3-ch 28.8 KB/s 44.7% | 2-ch 25.1 35.8% | 1-ch 121.5 35.5%");
}
