//! The real workspace must scan clean: this is how the lint pass is
//! enforced — `cargo test --workspace` runs it, locally and in CI.

use std::path::Path;

#[test]
fn workspace_tree_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let violations = spider_lint::scan_tree(root).expect("scan workspace");
    assert!(
        violations.is_empty(),
        "workspace has lint violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
