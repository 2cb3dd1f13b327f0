//! Exact-inventory tests for the workspace item index over the seeded
//! tree in `fixtures/index/`. These pin the parser's output — counts,
//! names, fields, derives, ban escapes, stream-call sites — so a
//! tokenizer regression fails here loudly instead of silently weakening
//! the semantic rules built on top.

use spider_lint::index::{ItemIndex, TypeKind};
use std::path::{Path, PathBuf};

#[allow(clippy::disallowed_methods, reason = "reads the fixture tree")]
fn fixture_index() -> ItemIndex {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/index");
    let mut sources = Vec::new();
    for name in ["lib.rs", "streams.rs"] {
        let path = root.join("crates/alpha/src").join(name);
        let rel = PathBuf::from("crates/alpha/src").join(name);
        sources.push((rel, std::fs::read_to_string(&path).expect("read fixture")));
    }
    ItemIndex::build_from_sources(&sources)
}

#[test]
fn type_inventory_is_exact() {
    let ix = fixture_index();
    let mut names: Vec<(&str, TypeKind, bool)> = ix
        .types
        .iter()
        .map(|t| (t.name.as_str(), t.kind, t.in_test))
        .collect();
    names.sort_by_key(|(n, _, _)| *n);
    assert_eq!(
        names,
        vec![
            ("Link", TypeKind::Struct, false),
            ("Phase", TypeKind::Enum, false),
            ("Rssi", TypeKind::Struct, false),
            ("Scratch", TypeKind::Struct, true),
            ("Station", TypeKind::Struct, false),
            ("Timed", TypeKind::Struct, false),
        ]
    );
    assert!(ix.types.iter().all(|t| t.crate_name == "alpha"));
}

#[test]
fn station_fields_derives_and_generics() {
    let ix = fixture_index();
    let station = ix.types.iter().find(|t| t.name == "Station").unwrap();
    assert_eq!(station.derives, vec!["Debug", "Clone"]);
    assert_eq!(station.generics, vec!["C"]);
    assert_eq!(station.line + 1, 8, "0-based line of the struct keyword");

    let fields: Vec<(&str, &str)> = station
        .fields
        .iter()
        .map(|f| (f.name.as_str(), f.ty.as_str()))
        .collect();
    assert_eq!(
        fields,
        vec![
            ("id", "u32"),
            ("radio", "C"),
            ("links", "Vec<Link>"),
            ("last_seen", "Option<SimTime>"),
        ]
    );
    // Reachability raw material: generic params are excluded, container
    // and payload identifiers kept.
    let links = &station.fields[2];
    assert_eq!(links.ty_idents, vec!["Vec", "Link"]);
    assert_eq!(links.line + 1, 11, "field line is where its name sits");
    assert!(station.fields[1].ty_idents.is_empty(), "`C` is a generic");
}

#[test]
fn tuple_and_enum_payloads() {
    let ix = fixture_index();
    let rssi = ix.types.iter().find(|t| t.name == "Rssi").unwrap();
    assert_eq!(rssi.derives, vec!["Clone", "Copy"]);
    assert!(rssi.fields.is_empty());
    let payload: Vec<&str> = rssi
        .payload_idents
        .iter()
        .map(|(s, _)| s.as_str())
        .collect();
    assert_eq!(payload, vec!["f64"]);

    let phase = ix.types.iter().find(|t| t.name == "Phase").unwrap();
    assert_eq!(phase.kind, TypeKind::Enum);
    assert!(phase.derives.is_empty());
    // Variant names and struct-variant field names are NOT payload
    // idents; the types inside payloads are. The discriminant variant
    // contributes nothing.
    let payload: Vec<&str> = phase
        .payload_idents
        .iter()
        .map(|(s, _)| s.as_str())
        .collect();
    assert_eq!(payload, vec!["Link", "u8", "BssId", "SimTime"]);
}

#[test]
fn ban_escapes() {
    let ix = fixture_index();
    for t in &ix.types {
        let want: &[usize] = if t.name == "Timed" { &[56] } else { &[] };
        let got: Vec<usize> = t.escapes.iter().map(|l| l + 1).collect();
        assert_eq!(got, want, "{}", t.name);
    }
}

#[test]
fn stream_call_sites() {
    let ix = fixture_index();
    assert_eq!(ix.streams.len(), 3);

    let lit: Vec<(&str, Option<&str>, &str)> = ix
        .streams
        .iter()
        .map(|s| (s.method, s.label.as_deref(), s.receiver.as_str()))
        .collect();
    assert_eq!(
        lit,
        vec![
            ("stream", Some("beacon"), "root"),
            ("stream_indexed", Some("ap"), "beacon"),
            ("stream", None, "root"),
        ]
    );
    // The two literal derivations sit in `seeded`, the computed one in
    // `tagged` — distinct scopes, so stream-label treats them apart.
    assert_eq!(ix.streams[0].scope, ix.streams[1].scope);
    assert_ne!(ix.streams[0].scope, ix.streams[2].scope);
}
