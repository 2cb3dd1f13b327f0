//! Table 2: average throughput and connectivity for the four Spider
//! configurations on the town drive, the Cambridge external-validation
//! row, and the stock MadWiFi driver.
//!
//! Shape targets: single-channel multi-AP wins throughput by a large
//! factor; multi-channel multi-AP wins connectivity; Spider beats
//! MadWiFi on both (the paper: 2.5× throughput, 2× connectivity).
//!
//! The paper draws Figs. 11–13 and 16–17 from the same drives, so this
//! binary writes them too, from the seed-1 runs:
//!
//! * Fig. 11, connection durations: the longest connections come from
//!   staying on one channel with multiple APs; multi-channel multi-AP
//!   has the shortest (joins on other channels interrupt flows).
//! * Fig. 12, disruption lengths: multi-channel multi-AP has the
//!   shortest disruptions (largest AP pool); single-channel
//!   configurations suffer the longest outages.
//! * Fig. 13, instantaneous bandwidth (KB/s during seconds with data):
//!   single-channel multi-AP is best (60th pct ≈ 300 KB/s, 90th ≈ 1000
//!   KB/s); multi-channel multi-AP is strangled by join overhead.
//! * Figs. 16 and 17, mesh users' flow lengths and inter-connection
//!   gaps against Spider's connections and disruptions: "Spider can
//!   support all the TCP flows that users need", and with multiple
//!   channels and APs its disruptions are "comparable to what real
//!   users can sustain".

use spider_bench::{cdf_quantiles, emit_runs_json, print_table, write_csv, CdfFigure, StdConfigs};
use spider_simcore::OnlineStats;
use spider_workloads::meshusers::{generate, MeshUserParams};
use spider_workloads::metrics::RunResult;

fn main() {
    // All (row, seed) combinations run as one flat 18-job sweep.
    let seeds = [1u64, 2, 3];
    let runs = StdConfigs::table2_seeds(&seeds);
    let mut rows = Vec::new();
    let mut table = Vec::new();
    let mut artifacts = Vec::new();
    for (label, results) in &runs {
        for (result, &seed) in results.iter().zip(&seeds) {
            artifacts.push((format!("{label} seed={seed}"), result.clone()));
        }
        let mut thr = OnlineStats::new();
        let mut conn = OnlineStats::new();
        for result in results {
            thr.push(result.throughput_kbs());
            conn.push(result.connectivity_pct());
        }
        rows.push(vec![
            label.clone(),
            format!("{:.1}", thr.mean()),
            format!("{:.1}", conn.mean()),
        ]);
        table.push(vec![
            label.clone(),
            format!("{:.1} ± {:.1}", thr.mean(), thr.std_dev()),
            format!("{:.1} ± {:.1}", conn.mean(), conn.std_dev()),
        ]);
    }
    print_table(
        "Table 2: avg throughput and connectivity per configuration",
        &["(Config) Parameters", "Throughput KB/s", "Connectivity %"],
        &table,
    );
    let path = write_csv(
        "table2.csv",
        &["config", "throughput_kbs", "connectivity_pct"],
        rows,
    );
    println!("\nwrote {}", path.display());
    let json_path = emit_runs_json("table2_runs.json", &artifacts);
    println!("wrote {}", json_path.display());
    println!(
        "\nPaper: (1) 121.5 KB/s 35.5%  (2) 28.0 22.3%  (3) 28.8 44.6%\n\
         (4) 77.9 40.2%  Cambridge ch6 single 90.7 36.4%  MadWiFi 35.9 18.0%"
    );

    // The figures read seed 1 (the first seed) of each row; Figs. 11–13
    // show the four Spider rows.
    let seed1: Vec<(&str, &RunResult)> = runs.iter().map(|(l, r)| (l.as_str(), &r[0])).collect();
    let spider_rows = &seed1[..4];
    let (ch1, multi) = (seed1[0].1, seed1[2].1);

    CdfFigure {
        title: "Fig 11: CDF of connection duration (fraction of connections <= t)",
        file: "fig11.csv",
        table_headers: &[
            "config", "n", "2s", "5s", "10s", "20s", "50s", "100s", "250s", "median",
        ],
        csv_headers: &[
            "config", "le_2s", "le_5s", "le_10s", "le_20s", "le_50s", "le_100s", "le_250s",
        ],
        probes: &[2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0],
        median_digits: 1,
    }
    .emit(spider_rows.iter().map(|(l, r)| (*l, r.connection_cdf())));

    CdfFigure {
        title: "Fig 12: CDF of disruption length (fraction of disruptions <= t)",
        file: "fig12.csv",
        table_headers: &[
            "config", "n", "2s", "5s", "10s", "30s", "60s", "150s", "300s", "median",
        ],
        csv_headers: &[
            "config", "le_2s", "le_5s", "le_10s", "le_30s", "le_60s", "le_150s", "le_300s",
        ],
        probes: &[2.0, 5.0, 10.0, 30.0, 60.0, 150.0, 300.0],
        median_digits: 1,
    }
    .emit(spider_rows.iter().map(|(l, r)| (*l, r.disruption_cdf())));

    let quantiles = [0.1, 0.25, 0.5, 0.6, 0.75, 0.9];
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (label, result) in spider_rows {
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
        table_headers: &[
            "series", "n", "1s", "2s", "5s", "10s", "20s", "50s", "100s", "median",
        ],
        csv_headers: &[
            "series", "le_1s", "le_2s", "le_5s", "le_10s", "le_20s", "le_50s", "le_100s",
        ],
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
        table_headers: &[
            "series", "n", "2s", "5s", "10s", "30s", "60s", "150s", "300s", "median",
        ],
        csv_headers: &[
            "series", "le_2s", "le_5s", "le_10s", "le_30s", "le_60s", "le_150s", "le_300s",
        ],
        probes: &[2.0, 5.0, 10.0, 30.0, 60.0, 150.0, 300.0],
        median_digits: 1,
    }
    .emit([
        ("user inter-connection gaps", trace.inter_connection_gaps),
        ("Spider multi-AP (ch1)", ch1.disruption_cdf()),
        ("Spider multi-AP (multi-channel)", multi.disruption_cdf()),
    ]);
}
