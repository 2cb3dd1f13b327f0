//! Hermetic micro-benchmark harness.
//!
//! The workspace builds without registry access, so `criterion` is not
//! available. This module is the small self-timing harness the bench
//! targets use instead: auto-calibrated iteration counts, a handful of
//! samples, and min/median/mean nanoseconds per iteration on stdout.
//! It is deliberately tiny — no statistics beyond what a regression
//! eyeball needs — but it is *real*: every bench target actually
//! executes the code it names.
//!
//! Set `SPIDER_BENCH_FAST=1` to cut sample counts for smoke runs (CI).

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "a timing harness: reads the wall clock, SPIDER_BENCH_FAST and baseline files"
)]

use crate::output::{print_table, write_csv};
use spider_simcore::Cdf;
use std::hint::black_box;
use std::time::Instant;

/// Target wall time for one calibrated sample.
const SAMPLE_TARGET_NS: f64 = 2_000_000.0; // 2 ms

/// Upper bound on iterations per sample, so a sub-nanosecond closure
/// cannot spin the calibrator forever.
const MAX_ITERS: u64 = 1 << 22;

/// One micro-benchmark result: nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct MicroStats {
    /// Bench label as printed.
    pub label: String,
    /// Iterations per timed sample (after calibration).
    pub iters_per_sample: u64,
    /// Number of timed samples taken.
    pub samples: usize,
    /// Fastest sample, ns/iter — the least noisy figure.
    pub min_ns: f64,
    /// Median sample, ns/iter.
    pub median_ns: f64,
    /// Mean over all samples, ns/iter.
    pub mean_ns: f64,
}

impl MicroStats {
    /// Print one aligned result row.
    pub fn print_row(&self) {
        println!(
            "{:<40} {:>12.1} ns/iter (median; min {:.1}, mean {:.1}; {} iters x {} samples)",
            self.label,
            self.median_ns,
            self.min_ns,
            self.mean_ns,
            self.iters_per_sample,
            self.samples,
        );
    }
}

/// Whether the harness should run in smoke mode (fewer samples).
pub fn is_fast_mode() -> bool {
    std::env::var_os("SPIDER_BENCH_FAST").is_some()
}

/// One CDF probed at fixed points — the row every CDF figure prints.
///
/// Before this existed, each figure binary carried its own copy of the
/// probe loop, and the copies had drifted: some wrote raw `f64`s to the
/// CSV and `{:.2}` to the table, others `{:.3}` strings to both. This
/// is the single convention now: `fraction_le` at each probe, nearest-
/// rank median, `{:.3}` in CSVs, `{:.2}` in console tables.
#[derive(Debug, Clone)]
pub struct CdfRow {
    /// Sample count behind the CDF.
    pub n: usize,
    /// `fraction_le(probe)` for each probe point, in probe order.
    pub fractions: Vec<f64>,
    /// Nearest-rank median of the samples (0 when empty).
    pub median: f64,
}

impl CdfRow {
    /// Probe `cdf` at each point of `probes`.
    pub fn probe(cdf: &mut Cdf, probes: &[f64]) -> CdfRow {
        CdfRow {
            n: cdf.len(),
            fractions: probes.iter().map(|&p| cdf.fraction_le(p)).collect(),
            median: cdf.median(),
        }
    }

    /// The CSV cells for the probed fractions (`{:.3}` each).
    pub fn csv_fractions(&self) -> Vec<String> {
        self.fractions.iter().map(|f| format!("{f:.3}")).collect()
    }

    /// The console-table cells for the probed fractions (`{:.2}` each).
    pub fn table_fractions(&self) -> Vec<String> {
        self.fractions.iter().map(|f| format!("{f:.2}")).collect()
    }
}

/// A figure of CDFs probed at fixed points (Figs. 11, 12 and 14–17).
/// Each series becomes one console row (label, `n`, the fractions, the
/// median in seconds) and one CSV row (label, the fractions).
pub struct CdfFigure<'a> {
    /// Console table title.
    pub title: &'a str,
    /// CSV file name under `target/experiments/`.
    pub file: &'a str,
    /// Header of the label column.
    pub label: &'a str,
    /// Probe points, in seconds. A probe `p` heads the console column
    /// `{p}s` and the CSV column `le_{p}s` without its decimal point
    /// (0.5 s is `le_05s`).
    pub probes: &'a [f64],
    /// Decimal places of the console median.
    pub median_digits: usize,
}

impl CdfFigure<'_> {
    /// Probe every series, print the table and write the CSV.
    pub fn emit<'s>(&self, series: impl IntoIterator<Item = (&'s str, Cdf)>) {
        let mut table_headers = vec![self.label.to_string(), "n".to_string()];
        table_headers.extend(self.probes.iter().map(|p| format!("{p}s")));
        table_headers.push("median".to_string());
        let mut csv_headers = vec![self.label.to_string()];
        csv_headers.extend(
            self.probes
                .iter()
                .map(|p| format!("le_{}s", p.to_string().replace('.', ""))),
        );
        let mut rows = Vec::new();
        let mut table = Vec::new();
        for (label, mut cdf) in series {
            let row = CdfRow::probe(&mut cdf, self.probes);
            let mut cells = vec![label.to_string(), format!("{}", row.n)];
            cells.extend(row.table_fractions());
            cells.push(format!("{:.*}s", self.median_digits, row.median));
            let mut csv = vec![label.to_string()];
            csv.extend(row.csv_fractions());
            rows.push(csv);
            table.push(cells);
        }
        fn strs(v: &[String]) -> Vec<&str> {
            v.iter().map(String::as_str).collect()
        }
        print_table(self.title, &strs(&table_headers), &table);
        let path = write_csv(self.file, &strs(&csv_headers), rows);
        println!("\nwrote {}", path.display());
    }
}

/// Quantiles of a CDF, scaled — the fig-13 style row. Shares the
/// `Cdf::quantile` convention with everything else in the harness.
pub fn cdf_quantiles(cdf: &mut Cdf, quantiles: &[f64], scale: f64) -> Vec<f64> {
    quantiles.iter().map(|&q| cdf.quantile(q) * scale).collect()
}

/// Time `f`, auto-calibrating the iteration count so each sample runs
/// for roughly [`SAMPLE_TARGET_NS`], then taking several samples.
pub fn micro<T>(label: &str, mut f: impl FnMut() -> T) -> MicroStats {
    // Calibrate: double the iteration count until a sample is long
    // enough to time reliably.
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t.elapsed().as_nanos() as f64;
        if dt >= SAMPLE_TARGET_NS || iters >= MAX_ITERS {
            break;
        }
        // Jump close to the target in one step when we already have a
        // usable estimate; otherwise keep doubling.
        let factor = if dt > 1_000.0 {
            ((SAMPLE_TARGET_NS / dt) * 1.2).ceil() as u64
        } else {
            2
        };
        iters = (iters * factor.max(2)).min(MAX_ITERS);
    }

    let samples = if is_fast_mode() { 3 } else { 11 };
    let mut per_iter = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        per_iter.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let min_ns = per_iter[0];
    let median_ns = per_iter[per_iter.len() / 2];
    let mean_ns = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    MicroStats {
        label: label.to_string(),
        iters_per_sample: iters,
        samples,
        min_ns,
        median_ns,
        mean_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_row_probes_with_one_convention() {
        let mut cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        let row = CdfRow::probe(&mut cdf, &[0.5, 2.0, 10.0]);
        assert_eq!(row.n, 4);
        assert_eq!(row.fractions, vec![0.0, 0.5, 1.0]);
        assert_eq!(row.csv_fractions(), vec!["0.000", "0.500", "1.000"]);
        assert_eq!(row.table_fractions(), vec!["0.00", "0.50", "1.00"]);
        assert_eq!(row.median, cdf.median());
    }

    #[test]
    fn cdf_figure_writes_one_row_per_series() {
        CdfFigure {
            title: "unit",
            file: "unit_cdf_figure.csv",
            label: "series",
            probes: &[0.5, 1.0],
            median_digits: 2,
        }
        .emit([("a", Cdf::from_samples(vec![0.5, 2.0])), ("b", Cdf::new())]);
        let path = crate::output::OutDir::open().path("unit_cdf_figure.csv");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "series,le_05s,le_1s\na,0.500,0.500\nb,0.000,0.000\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn cdf_quantiles_scale() {
        let mut cdf = Cdf::from_samples(vec![1_000.0, 2_000.0, 3_000.0]);
        let q = cdf_quantiles(&mut cdf, &[0.5], 1.0 / 1_000.0);
        assert_eq!(q.len(), 1);
        assert!((q[0] - cdf.quantile(0.5) / 1_000.0).abs() < 1e-12);
    }

    #[test]
    fn micro_measures_a_trivial_closure() {
        // Not a timing assertion — just that calibration terminates and
        // the stats are internally consistent.
        std::env::set_var("SPIDER_BENCH_FAST", "1");
        let stats = micro("noop_add", || std::hint::black_box(1u64) + 1);
        assert!(stats.iters_per_sample >= 1);
        assert!(stats.min_ns <= stats.median_ns);
        assert!(stats.min_ns > 0.0);
        assert_eq!(stats.label, "noop_add");
    }
}
