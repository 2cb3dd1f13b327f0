//! Result output: aligned console tables, CSV files, and JSON
//! artifacts.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "writes the experiment outputs under CARGO_TARGET_DIR"
)]

use spider_simcore::Json;
use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// The experiment output directory (`target/experiments`), created on
/// first use.
pub struct OutDir(PathBuf);

impl OutDir {
    /// Open (and create) `experiments/` under `$CARGO_TARGET_DIR`, or
    /// under `target/` in the current directory when that is unset.
    pub fn open() -> OutDir {
        let base = std::env::var("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target"));
        let dir = base.join("experiments");
        fs::create_dir_all(&dir).expect("create target/experiments");
        OutDir(dir)
    }

    /// Path for a named artifact.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

/// Write rows to a CSV file under the experiment directory. Returns the
/// path written.
pub fn write_csv<R, C>(name: &str, headers: &[&str], rows: R) -> PathBuf
where
    R: IntoIterator<Item = Vec<C>>,
    C: Display,
{
    let out = OutDir::open();
    let path = out.path(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", headers.join(",")).unwrap();
    for row in rows {
        let cells: Vec<String> = row.into_iter().map(|c| c.to_string()).collect();
        writeln!(f, "{}", cells.join(",")).unwrap();
    }
    path
}

/// Write a JSON artifact under the experiment directory using the
/// in-tree emitter — byte-deterministic for a deterministic value, so
/// `diff` on two artifacts doubles as a determinism check. Returns the
/// path written.
pub fn write_json(name: &str, value: &Json) -> PathBuf {
    let path = OutDir::open().path(name);
    fs::write(&path, value.pretty()).expect("write artifact");
    path
}

/// Print an aligned table to stdout.
pub fn print_table<C: Display>(title: &str, headers: &[&str], rows: &[Vec<C>]) {
    println!("\n== {title} ==");
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &cells {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let fmt_row = |cols: &[String]| {
        cols.iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in &cells {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        let path = write_csv(
            "unit_test.csv",
            &["a", "b"],
            vec![vec![1.0, 2.0], vec![3.5, 4.25]],
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("a,b\n"));
        assert!(text.contains("3.5,4.25"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn json_artifact_roundtrip() {
        let doc = Json::obj([
            ("label", Json::str("unit")),
            ("bytes", Json::UInt(12345)),
            ("connectivity", Json::Num(0.75)),
        ]);
        let path = write_json("unit_test.json", &doc);
        let text = std::fs::read_to_string(&path).unwrap();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("bytes").and_then(Json::as_u64), Some(12345));
        assert_eq!(back.get("connectivity").and_then(Json::as_f64), Some(0.75));
        // Re-emission is byte-identical: artifacts are diffable.
        assert_eq!(back.pretty(), text);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn table_prints_without_panic() {
        print_table(
            "test",
            &["config", "throughput"],
            &[vec!["x".to_string(), "1.0".to_string()]],
        );
    }
}
