//! Seeded-violation fixtures: at least one per rule, under
//! `fixtures/tree/`, arranged as a miniature workspace. The scanner must
//! fire exactly on the seeded lines and respect every escape in the
//! fixtures.

use spider_lint::{scan_tree, Rule};
use std::path::Path;

fn fixture_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/tree")
}

#[test]
fn the_fixture_tree_fires_exactly_on_the_seeded_lines() {
    let violations = scan_tree(&fixture_root()).expect("scan fixtures");
    let mut got: Vec<(String, &'static str, usize)> = violations
        .iter()
        .map(|v| {
            (
                v.file.to_string_lossy().replace('\\', "/"),
                v.rule.id(),
                v.line,
            )
        })
        .collect();
    got.sort();
    let file = |f: &str| format!("crates/{f}");
    let mut expected = vec![
        (file("simdemo/src/floats.rs"), "float-ord", 5),
        (file("simdemo/src/rngseed.rs"), "rng-derivation", 4),
        (file("workloads/src/agg.rs"), "hash-iter", 9),
        (file("workloads/src/streams.rs"), "stream-label", 8),
        (
            file("workloads/src/worldlike.rs"),
            "snapshot-completeness",
            10,
        ),
        (
            file("workloads/src/worldlike.rs"),
            "snapshot-completeness",
            29,
        ),
    ];
    expected.sort();
    assert_eq!(got, expected, "full violation set mismatch");
}

#[test]
fn every_rule_in_the_catalog_has_a_fixture() {
    let violations = scan_tree(&fixture_root()).expect("scan fixtures");
    for rule in Rule::ALL {
        assert!(
            violations.iter().any(|v| v.rule == rule),
            "rule `{}` has no seeded fixture violation",
            rule.id()
        );
    }
}
