//! Negative tests for `snapshot-completeness`: deliberately grow a
//! `World`-reachable type in ways the checkpoint engine cannot fork and
//! prove the rule catches each one — exactly once, at the field's line.
//! The rule's contract: every type reachable from `World` derives
//! `Clone`, so the compiler proves a fork carries every field.

use spider_lint::{scan_sources, Rule};
use std::path::PathBuf;

fn world_sources(world_body: &str, extra: &str) -> Vec<(PathBuf, String)> {
    // Mirrors the real shape: a derived `Clone` on World over a small
    // reachable type tree.
    let world = format!(
        "\
#[derive(Clone)]
pub struct World {{
{world_body}
}}

#[derive(Clone)]
pub struct MiniQueue {{
    pub depth: usize,
}}

pub struct Recorder {{
    pub frames: u64,
    pub last: u64,
}}
{extra}"
    );
    vec![(PathBuf::from("crates/workloads/src/world.rs"), world)]
}

#[test]
fn added_uncloned_field_is_caught_at_its_line() {
    // Someone adds a field holding non-Clone state to World. rustc
    // rejects the derive too; the rule names the field.
    let v = scan_sources(&world_sources(
        "    pub queue: MiniQueue,\n    pub probe: Recorder,",
        "",
    ));
    assert_eq!(v.len(), 1, "exactly one violation: {v:?}");
    assert_eq!(v[0].rule, Rule::SnapshotCompleteness);
    assert_eq!(v[0].line, 4, "at the `probe` field's line");
    assert!(v[0].message.contains("Recorder"));
}

#[test]
fn hand_written_clone_on_a_reachable_type_is_caught() {
    // The hole rustc cannot see: a hand-written Clone compiles even when
    // it drops a field, so forks would silently reset `last`.
    let v = scan_sources(&world_sources(
        "    pub queue: MiniQueue,\n    pub probe: Recorder,",
        "
impl Clone for Recorder {
    fn clone(&self) -> Self {
        Recorder { frames: self.frames, last: 0 }
    }
}
",
    ));
    assert_eq!(v.len(), 1, "exactly one violation: {v:?}");
    assert_eq!(v[0].rule, Rule::SnapshotCompleteness);
    assert_eq!(v[0].line, 4, "at the `probe` field's line");
    assert!(v[0].message.contains("does not derive Clone"));
}

#[test]
fn hand_written_clone_on_the_root_is_caught() {
    let files = vec![(
        PathBuf::from("crates/workloads/src/world.rs"),
        "\
pub struct World {
    pub horizon: u64,
}

impl Clone for World {
    fn clone(&self) -> Self {
        self.snapshot()
    }
}
"
        .to_string(),
    )];
    let v = scan_sources(&files);
    assert_eq!(v.len(), 1, "exactly one violation: {v:?}");
    assert_eq!(v[0].rule, Rule::SnapshotCompleteness);
    assert_eq!(v[0].line, 1, "at the root's definition");
}

#[test]
fn derived_world_is_clean() {
    let v = scan_sources(&world_sources(
        "    pub queue: MiniQueue,\n    pub horizon: u64,",
        "",
    ));
    assert!(v.is_empty(), "derived world must scan clean: {v:?}");
}

#[test]
fn transitively_reachable_uncloned_type_is_caught() {
    // Reachability is transitive: World → MiniQueue → the offending
    // type, two files apart.
    let files = vec![
        (
            PathBuf::from("crates/workloads/src/world.rs"),
            "\
#[derive(Clone)]
pub struct World {
    pub queue: MiniQueue,
}
"
            .to_string(),
        ),
        (
            PathBuf::from("crates/workloads/src/queue.rs"),
            "\
#[derive(Clone)]
pub struct MiniQueue {
    pub scratch: Recorder,
}

pub struct Recorder {
    pub frames: u64,
}
"
            .to_string(),
        ),
    ];
    let v = scan_sources(&files);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::SnapshotCompleteness);
    assert_eq!(
        v[0].file,
        PathBuf::from("crates/workloads/src/queue.rs"),
        "reported where the edge is, one hop down"
    );
    assert_eq!(v[0].line, 3, "at the `scratch` field's line");
}

#[test]
fn allow_escape_silences_the_field() {
    let v = scan_sources(&world_sources(
        "    pub queue: MiniQueue,\n    // never forked in this fixture: lint:allow(snapshot-completeness)\n    pub probe: Recorder,",
        "",
    ));
    assert!(v.is_empty(), "escaped field must not fire: {v:?}");
}

#[test]
fn non_workloads_world_is_not_a_root() {
    // Only the real checkpoint root anchors the walk; a `World` in some
    // other crate (e.g. a test helper) does not.
    let files = vec![(
        PathBuf::from("crates/model/src/world.rs"),
        "\
#[derive(Clone)]
pub struct World {
    pub probe: Recorder,
}

pub struct Recorder {
    pub frames: u64,
}
"
        .to_string(),
    )];
    let v = scan_sources(&files);
    assert!(v.is_empty(), "{v:?}");
}
