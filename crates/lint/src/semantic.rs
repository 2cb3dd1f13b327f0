//! The semantic rules: cross-file analyses over the item index.
//!
//! Three rules live here (catalog in DESIGN.md §11):
//!
//! * `snapshot-completeness` — walks the type graph reachable from
//!   `World` (crate `workloads`) and flags any reachable struct/enum
//!   that does not `#[derive(Clone)]`. `World` derives `Clone`, so
//!   rustc already rejects a reachable type with no `Clone` at all;
//!   what it cannot see is a hand-written `Clone` that drops or resets
//!   a field. Requiring the derive closes that hole, and with it the
//!   checkpoint engine's core invariant (DESIGN.md §13) — a forked
//!   world is bit-identical to a cold one — is proved by the compiler.
//!   The walk also flags a reachable type that escapes a clippy
//!   determinism ban (`#[allow(clippy::disallowed_types)]` on a field,
//!   say, to hold an `Instant`): clippy has been told that state is
//!   fine, but the checkpoint engine would fork it into every trial.
//! * `stream-label` — two `.stream("x")` derivations with the same
//!   receiver, method and label inside one function alias the same RNG
//!   stream (the derivation is a pure function of `(root, label)`), and
//!   computed labels (`.stream(&format!(..))`) can collide at runtime
//!   in ways no reviewer can audit; both are rejected outside
//!   `simcore::rng`.
//! * `float-ord` — `partial_cmp(..).unwrap()/expect(..)` comparators:
//!   NaN-capable ordering panics on the hot path; steer to `total_cmp`.
//!   (A float *key* needs no rule: `f64` is neither `Ord` nor `Hash`,
//!   so inserting into a map keyed on it does not compile.)

use crate::index::{FileItems, ItemIndex, TypeInfo};
use crate::tokens::{Tok, TokKind};
use crate::{Rule, Violation};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Per-file context the semantic rules need to honour escapes.
pub(crate) trait AllowLookup {
    /// Is `rule` allowed (escaped) at 0-based `line` of `file`?
    fn allowed(&self, file: &Path, rule: Rule, line: usize) -> bool;
}

/// The root of the snapshot-completeness walk: the simulation world.
const SNAPSHOT_ROOT: (&str, &str) = ("workloads", "World");

/// snapshot-completeness: see module docs. Reports at the root's
/// definition line if `World` itself does not derive `Clone`, at each
/// field/payload line that references a reachable type that does not,
/// and at each ban escape inside a reachable type.
pub(crate) fn snapshot_completeness(
    index: &ItemIndex,
    allows: &dyn AllowLookup,
    out: &mut Vec<Violation>,
) {
    let derives_clone = |t: &TypeInfo| t.derives.iter().any(|d| d == "Clone");
    let roots: Vec<&TypeInfo> = index
        .types
        .iter()
        .filter(|t| !t.in_test && t.name == SNAPSHOT_ROOT.1 && t.crate_name == SNAPSHOT_ROOT.0)
        .collect();

    for root in &roots {
        if !derives_clone(root)
            && !allows.allowed(&root.file, Rule::SnapshotCompleteness, root.line)
        {
            out.push(Violation {
                file: root.file.clone(),
                line: root.line + 1,
                rule: Rule::SnapshotCompleteness,
                message: format!(
                    "`{}` is the checkpoint root but does not derive Clone",
                    root.name
                ),
            });
        }
    }

    let mut reported: BTreeSet<(PathBuf, usize, String)> = BTreeSet::new();
    let mut visited: BTreeSet<(PathBuf, usize)> = BTreeSet::new();
    let mut queue: Vec<&TypeInfo> = roots;
    while let Some(t) = queue.pop() {
        if !visited.insert((t.file.clone(), t.line)) {
            continue;
        }
        for &line in &t.escapes {
            if !allows.allowed(&t.file, Rule::SnapshotCompleteness, line) {
                out.push(Violation {
                    file: t.file.clone(),
                    line: line + 1,
                    rule: Rule::SnapshotCompleteness,
                    message: format!(
                        "`{}` is reachable from `World` state but escapes a clippy \
                         determinism ban here; the checkpoint engine would fork that state",
                        t.name
                    ),
                });
            }
        }
        // Edges: every type identifier in field/payload position.
        let mut edges: Vec<(&str, usize)> = Vec::new();
        for f in &t.fields {
            for id in &f.ty_idents {
                edges.push((id.as_str(), f.line));
            }
        }
        for (id, line) in &t.payload_idents {
            edges.push((id.as_str(), *line));
        }
        for (ident, line) in edges {
            for cand in index.resolve(ident, &t.crate_name) {
                if !derives_clone(cand) {
                    let key = (t.file.clone(), line, cand.name.clone());
                    if !reported.contains(&key)
                        && !allows.allowed(&t.file, Rule::SnapshotCompleteness, line)
                    {
                        reported.insert(key);
                        out.push(Violation {
                            file: t.file.clone(),
                            line: line + 1,
                            rule: Rule::SnapshotCompleteness,
                            message: format!(
                                "`{}` is reachable from `World` state here but does not \
                                 derive Clone; a missing or hand-written Clone can lose \
                                 state on fork",
                                cand.name
                            ),
                        });
                    }
                }
                queue.push(cand);
            }
        }
    }
}

/// stream-label: duplicate literal labels per (function, receiver,
/// method), and computed labels anywhere outside `simcore::rng`.
pub(crate) fn stream_label(
    items: &FileItems,
    rel: &Path,
    is_rng_file: bool,
    allows: &dyn AllowLookup,
    out: &mut Vec<Violation>,
) {
    if is_rng_file {
        return;
    }
    let mut seen: BTreeMap<(usize, &str, &str, &str), usize> = BTreeMap::new();
    for call in &items.streams {
        match &call.label {
            None => {
                if !allows.allowed(rel, Rule::StreamLabel, call.line) {
                    out.push(Violation {
                        file: rel.to_path_buf(),
                        line: call.line + 1,
                        rule: Rule::StreamLabel,
                        message: format!(
                            "`.{}(..)` with a computed label; stream labels must be string \
                             literals so aliasing is auditable (only simcore::rng derives \
                             dynamically)",
                            call.method
                        ),
                    });
                }
            }
            Some(label) => {
                let key = (
                    call.scope,
                    call.method,
                    call.receiver.as_str(),
                    label.as_str(),
                );
                match seen.get(&key) {
                    None => {
                        seen.insert(key, call.line);
                    }
                    Some(&first) => {
                        if !allows.allowed(rel, Rule::StreamLabel, call.line) {
                            out.push(Violation {
                                file: rel.to_path_buf(),
                                line: call.line + 1,
                                rule: Rule::StreamLabel,
                                message: format!(
                                    "duplicate stream label \"{label}\" on `{}` (first derived \
                                     at line {}); identical labels alias the same RNG stream \
                                     and silently couple draws",
                                    call.receiver,
                                    first + 1
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
}

/// float-ord: `.partial_cmp(..).unwrap()` / `.expect(..)` comparator
/// chains.
pub(crate) fn float_ord(
    toks: &[Tok],
    rel: &Path,
    allows: &dyn AllowLookup,
    out: &mut Vec<Violation>,
) {
    let is_punct = |t: &Tok, s: &str| t.kind == TokKind::Punct && t.text == s;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "partial_cmp"
            && i > 0
            && is_punct(&toks[i - 1], ".")
            && toks.get(i + 1).is_some_and(|u| is_punct(u, "("))
        {
            // Find the matching close paren, then look for `.unwrap()` /
            // `.expect(..)`.
            let mut depth = 0i64;
            let mut j = i + 1;
            while j < toks.len() {
                if is_punct(&toks[j], "(") {
                    depth += 1;
                } else if is_punct(&toks[j], ")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let chained_panic = toks.get(j + 1).is_some_and(|u| is_punct(u, "."))
                && toks
                    .get(j + 2)
                    .is_some_and(|u| u.text == "unwrap" || u.text == "expect");
            if chained_panic && !allows.allowed(rel, Rule::FloatOrd, t.line) {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: t.line + 1,
                    rule: Rule::FloatOrd,
                    message: "`.partial_cmp(..).unwrap()` comparator panics on NaN; use \
                              `total_cmp` for float sort keys"
                        .to_string(),
                });
            }
        }
    }
}
