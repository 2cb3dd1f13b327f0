//! Figure 5: rate of successful link-layer associations on channel 6 as
//! a function of the time the driver spends there (f₆ ∈ {25, 50, 75,
//! 100} % of a 400 ms period; the remainder split between channels 1
//! and 11). Link-layer timeout: 100 ms.
//!
//! The paper's finding: associations are fairly robust to switching —
//! f₆ = 100 % completes everything within ~400 ms, and performance does
//! not collapse as f₆ shrinks to 25 %.

use spider_bench::{print_table, write_csv, CdfRow, StdConfigs, TownDrive};
use spider_core::{OperationMode, SpiderConfig};
use spider_simcore::{sweep, Cdf};
use spider_wire::Channel;

fn main() {
    let fractions = [0.25, 0.50, 0.75, 1.00];
    let seeds: Vec<u64> = (1..=5).collect();
    let probe_ms = [100.0, 200.0, 300.0, 400.0, 600.0, 800.0, 1_000.0];

    // One drive per (fraction, seed) — the paper's "hundreds of trials
    // over six hours on five vehicles", swept in parallel.
    let mut jobs = Vec::new();
    for &f6 in &fractions {
        for &seed in &seeds {
            jobs.push((f6, seed));
        }
    }
    let cdfs = sweep(&jobs, |&(f6, seed)| {
        let schedule = StdConfigs::f6_schedule(f6);
        let cfg = SpiderConfig::for_mode(
            OperationMode::MultiChannelMultiAp {
                period: schedule.period(),
            },
            1,
        )
        .with_schedule(schedule)
        .with_candidates(vec![Channel::CH6]);
        let result = TownDrive::Spider(cfg).run(seed);
        result.join_log.assoc_cdf()
    });

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (i, &f6) in fractions.iter().enumerate() {
        let mut cdf = Cdf::new();
        for per_seed in &cdfs[i * seeds.len()..(i + 1) * seeds.len()] {
            cdf.merge(per_seed);
        }
        let probes_s: Vec<f64> = probe_ms.iter().map(|ms| ms / 1_000.0).collect();
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
