//! Figure 6: rate of successful DHCP leases on channel 6 as a function
//! of the schedule and the DHCP timeout.
//!
//! Series: f₆ ∈ {25, 50, 100} % with 100 ms DHCP message timeouts, plus
//! f₆ = 100 % with default (stock) timers. The paper's findings: reduced
//! timers cut the median lease time (2.5 s → 1.3 s at f₆ = 100 %), and
//! DHCP — unlike association — is *not* robust to small channel
//! fractions.

use spider_bench::{print_table, write_csv, CdfRow, StdConfigs, TownDrive};
use spider_core::{OperationMode, SpiderConfig};
use spider_mac80211::ClientMacConfig;
use spider_netstack::DhcpClientConfig;
use spider_simcore::{sweep, Cdf, SimDuration};
use spider_wire::Channel;

/// Lease CDF + failure/success counts from one drive.
struct DriveStats {
    cdf: Cdf,
    failures: u64,
    successes: u64,
}

fn main() {
    let configs: Vec<(String, f64, DhcpClientConfig)> = vec![
        (
            "25% - 100ms".into(),
            0.25,
            DhcpClientConfig::reduced(SimDuration::from_millis(100)),
        ),
        (
            "50% - 100ms".into(),
            0.50,
            DhcpClientConfig::reduced(SimDuration::from_millis(100)),
        ),
        (
            "100% - 100ms".into(),
            1.00,
            DhcpClientConfig::reduced(SimDuration::from_millis(100)),
        ),
        ("100% - default".into(), 1.00, DhcpClientConfig::stock()),
    ];
    let seeds: Vec<u64> = (1..=5).collect();
    let probe_s = [0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 15.0];

    let mut jobs = Vec::new();
    for (c, (_, f6, dhcp)) in configs.iter().enumerate() {
        for &seed in &seeds {
            jobs.push((c, *f6, dhcp.clone(), seed));
        }
    }
    let drives = sweep(&jobs, |(_, f6, dhcp, seed)| {
        let schedule = StdConfigs::f6_schedule(*f6);
        let cfg = SpiderConfig::for_mode(
            OperationMode::MultiChannelMultiAp {
                period: schedule.period(),
            },
            1,
        )
        .with_schedule(schedule)
        .with_candidates(vec![Channel::CH6])
        .with_timeouts(ClientMacConfig::reduced(), dhcp.clone());
        let result = TownDrive::Spider(cfg).run(*seed);
        DriveStats {
            cdf: result.join_log.dhcp_cdf(),
            failures: result.join_log.dhcp_failures,
            successes: result.join_log.dhcp.len() as u64,
        }
    });

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (c, (label, f6, _)) in configs.iter().enumerate() {
        let mut cdf = Cdf::new();
        let mut failures = 0u64;
        let mut successes = 0u64;
        for drive in &drives[c * seeds.len()..(c + 1) * seeds.len()] {
            cdf.merge(&drive.cdf);
            failures += drive.failures;
            successes += drive.successes;
        }
        let fail_rate = failures as f64 / (failures + successes).max(1) as f64;
        let row = CdfRow::probe(&mut cdf, &probe_s);
        let mut cells = vec![label.clone(), format!("{}", row.n)];
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
