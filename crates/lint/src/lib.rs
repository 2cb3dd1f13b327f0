//! `spider-lint` — the determinism rules clippy cannot express.
//!
//! Everything this repository claims rests on one property: a `World`
//! run is a pure function of `(config, seed)`, and a *forked* world is
//! bit-identical to a cold one (DESIGN.md §13). The bans that are plain
//! paths — wall clock, environment, std hash maps, threads, file I/O,
//! `unsafe` — are enforced by clippy and rustc from `clippy.toml` and
//! `[workspace.lints]` (DESIGN.md §11.1). This crate keeps the five
//! rules that need more than a path: they look at call arguments, at
//! what follows a call, at labels within one function, or at the type
//! graph reachable from `World`. It has no external dependencies (the
//! workspace builds offline: no `syn`, no registry access), and
//! `tests/real_tree.rs` runs it over the workspace under `cargo test`.
//!
//! # Architecture
//!
//! * [`tokens`] — a hand-rolled Rust tokenizer (comments, nested block
//!   comments, string/char/raw literals carried across lines). Its
//!   per-line compact render drives the two *line rules*; carrying
//!   literal state across newlines keeps rule tokens inside multi-line
//!   strings from firing as code.
//! * [`index`] — a workspace item index built from the token streams:
//!   structs and enums with fields, derives and ban escapes, and
//!   `stream(..)` derivation call-sites.
//! * `semantic` — three rules over the index and token stream:
//!   `snapshot-completeness`, `stream-label`, `float-ord`.
//!
//! # Rule catalog
//!
//! | id             | rule |
//! |----------------|------|
//! | `hash-iter`    | no hash-map iterator chain (`m.values().collect()`) unless sorted within five lines; `for` loops over hash maps are clippy's `iter_over_hash_type` |
//! | `rng-derivation` | no hand-cooked `SimRng::new(..)` seeds (XOR/splitmix/FNV arithmetic) outside `simcore::rng` — a cooked seed can collide with a labelled `stream`/`stream_indexed` derivation and silently alias two streams meant to be independent |
//! | `snapshot-completeness` | every struct/enum reachable from `World` state must `#[derive(Clone)]` — a hand-written Clone can drop a field, a derived one cannot — and must carry no `#[allow(clippy::disallowed_*)]` escape, since the checkpoint engine would fork that state |
//! | `stream-label` | no duplicate `stream("…")` labels per (function, receiver) — identical labels alias the same RNG stream — and no computed labels outside `simcore::rng` |
//! | `float-ord`    | no `partial_cmp(..).unwrap()` comparators: NaN-capable ordering panics — use `total_cmp` |
//!
//! # Escapes
//!
//! A violation that is deliberate is allow-listed in the source:
//! `// lint:allow(rule)` on the offending line silences that rule
//! there; on a comment line of its own, it silences the rule for the
//! whole statement that follows (all continuation lines of a
//! multi-line expression, until the statement terminates).
//!
//! Every escape should carry a justification in the surrounding
//! comment; reviewers treat a bare allow as a bug.

#![forbid(unsafe_code)]

pub mod index;
mod semantic;
pub mod tokens;

use crate::index::{parse_file, FileItems, ItemIndex};
use crate::tokens::{tokenize, FileTokens};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule of the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Unordered hash-map iterator chain feeding aggregation.
    HashIter,
    /// Hand-cooked `SimRng` seeds outside `simcore::rng` (a cooked seed
    /// can collide with a labelled stream's derived seed).
    RngDerivation,
    /// A type reachable from `World` state that does not derive `Clone`
    /// or escapes a determinism ban (checkpoint-engine hazard: the fork
    /// would drop or duplicate that state).
    SnapshotCompleteness,
    /// Duplicate or computed RNG stream labels (stream aliasing
    /// silently couples draws).
    StreamLabel,
    /// NaN-capable float ordering (`partial_cmp(..).unwrap()`).
    FloatOrd,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 5] = [
        Rule::HashIter,
        Rule::RngDerivation,
        Rule::SnapshotCompleteness,
        Rule::StreamLabel,
        Rule::FloatOrd,
    ];

    /// The identifier used in `lint:allow(...)` comments and reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::RngDerivation => "rng-derivation",
            Rule::SnapshotCompleteness => "snapshot-completeness",
            Rule::StreamLabel => "stream-label",
            Rule::FloatOrd => "float-ord",
        }
    }

    fn order(self) -> usize {
        Rule::ALL
            .iter()
            .position(|r| *r == self)
            .unwrap_or(usize::MAX)
    }
}

/// One finding: `file:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path relative to the scanned root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// What was matched.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// The one file allowed to do seed arithmetic and dynamic stream
/// derivation: the RNG itself, whose `stream`/`stream_indexed` are the
/// single seed-mixing formula every stream goes through.
const RNG_FILE: &str = "crates/simcore/src/rng.rs";

/// The crate name a workspace-relative path belongs to.
pub(crate) fn crate_of(rel: &Path) -> String {
    let mut parts = rel
        .components()
        .map(|c| c.as_os_str().to_str().unwrap_or(""));
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        _ => String::from("(workspace)"),
    }
}

/// Parse `lint:allow(<rules>)` markers out of comment text.
fn parse_allows(comment: &str, here: &mut Vec<Rule>) {
    const MARKER: &str = "lint:allow(";
    let mut rest = comment;
    while let Some(pos) = rest.find(MARKER) {
        let tail = &rest[pos + MARKER.len()..];
        let Some(close) = tail.find(')') else {
            break;
        };
        for name in tail[..close].split(',') {
            let name = name.trim();
            if let Some(rule) = Rule::ALL.iter().find(|r| r.id() == name) {
                here.push(*rule);
            }
        }
        rest = &tail[close..];
    }
}

/// Identifier characters, for receiver extraction.
fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifier immediately preceding byte offset `pos` in `line`.
fn ident_before(line: &str, pos: usize) -> Option<&str> {
    let head = &line[..pos];
    let start = head
        .rfind(|c: char| !is_ident(c))
        .map(|p| p + 1)
        .unwrap_or(0);
    let id = &head[start..];
    (!id.is_empty() && !id.chars().next().unwrap().is_ascii_digit()).then_some(id)
}

/// 0-based line of the statement's last line, starting from `start`:
/// continues while parens/brackets are open, the line ends in a binary
/// operator or other continuation, or the next code line begins with a
/// method-chain `.`. Bounded to 50 lines.
fn statement_end(code_lines: &[String], start: usize) -> usize {
    let mut depth = 0i64;
    let cap = (start + 50).min(code_lines.len());
    let mut last = start;
    for k in start..cap {
        last = k;
        let code = code_lines[k].trim_end();
        for c in code.chars() {
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                _ => {}
            }
        }
        if depth > 0 {
            continue;
        }
        let cont = matches!(
            code.chars().next_back(),
            Some('.' | '=' | '&' | '|' | '+' | '-' | '*' | '/' | '<' | '>' | '?' | ':')
        );
        if cont {
            continue;
        }
        // Method chains break *before* the dot: peek the next code line.
        let chain_continues = code_lines[k + 1..cap]
            .iter()
            .find(|l| !l.trim().is_empty())
            .is_some_and(|l| l.trim_start().starts_with('.') || l.trim_start().starts_with("?."));
        if chain_continues {
            continue;
        }
        return k;
    }
    last
}

/// Fully prepared per-file scan state.
struct ScannedFile {
    /// Path relative to the scanned root.
    rel: PathBuf,
    /// An integration-test file (`tests/**`): exempt from `hash-iter`.
    is_test: bool,
    ft: FileTokens,
    items: FileItems,
    line_allows: Vec<Vec<Rule>>,
    in_test_region: Vec<bool>,
}

impl ScannedFile {
    fn allowed(&self, rule: Rule, line: usize) -> bool {
        self.line_allows
            .get(line)
            .is_some_and(|a| a.contains(&rule))
    }
}

impl semantic::AllowLookup for ScannedFile {
    fn allowed(&self, _file: &Path, rule: Rule, line: usize) -> bool {
        ScannedFile::allowed(self, rule, line)
    }
}

/// Allow lookup across a whole scanned set, keyed by path.
struct TreeAllows<'a>(BTreeMap<&'a Path, &'a ScannedFile>);

impl semantic::AllowLookup for TreeAllows<'_> {
    fn allowed(&self, file: &Path, rule: Rule, line: usize) -> bool {
        self.0.get(file).is_some_and(|sf| sf.allowed(rule, line))
    }
}

/// `#[cfg(test)]` regions by brace depth over the compact code lines.
pub(crate) fn test_regions(code_lines: &[String]) -> Vec<bool> {
    let mut in_test_region = vec![false; code_lines.len()];
    let mut depth: i64 = 0;
    let mut pending_attr = false;
    let mut region_entry: Option<i64> = None;
    for (i, code) in code_lines.iter().enumerate() {
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            pending_attr = true;
        }
        let before = depth;
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if pending_attr && depth > before {
            region_entry = Some(before);
            pending_attr = false;
        }
        if let Some(entry) = region_entry {
            in_test_region[i] = true;
            if depth <= entry {
                region_entry = None;
            }
        }
    }
    in_test_region
}

fn prepare(rel: &Path, source: &str) -> ScannedFile {
    let ft = tokenize(source);
    let n = ft.code_lines.len();
    let mut line_allows: Vec<Vec<Rule>> = vec![Vec::new(); n];
    for (i, comment) in ft.comment_lines.iter().enumerate() {
        let mut here = Vec::new();
        parse_allows(comment, &mut here);
        if here.is_empty() {
            continue;
        }
        if ft.code_lines[i].trim().is_empty() {
            // A standalone allow comment covers the whole statement
            // that follows — including continuation lines of a
            // multi-line expression.
            if let Some(first) = (i + 1..n).find(|&k| !ft.code_lines[k].trim().is_empty()) {
                let end = statement_end(&ft.code_lines, first);
                for slot in line_allows.iter_mut().take(end + 1).skip(first) {
                    slot.extend(here.iter().copied());
                }
            }
        } else {
            line_allows[i].extend(here);
        }
    }
    let in_test_region = test_regions(&ft.code_lines);
    let items = parse_file(rel, &crate_of(rel), &ft.toks, &in_test_region);
    ScannedFile {
        rel: rel.to_path_buf(),
        is_test: rel.components().any(|c| c.as_os_str() == "tests"),
        ft,
        items,
        line_allows,
        in_test_region,
    }
}

/// Collect identifiers declared as hash maps/sets in this file: struct
/// fields and typed bindings (`name: FxHashMap<...>`) plus
/// default-constructed locals (`let [mut] name = FxHashMap::default()`).
fn collect_map_idents(code_lines: &[String]) -> Vec<String> {
    const TYPES: [&str; 4] = ["FxHashMap<", "FxHashSet<", "HashMap<", "HashSet<"];
    const CTORS: [&str; 4] = [
        "FxHashMap::default()",
        "FxHashSet::default()",
        "HashMap::new()",
        "HashSet::new()",
    ];
    let mut idents: Vec<String> = Vec::new();
    for line in code_lines {
        for ty in TYPES {
            for (pos, _) in line.match_indices(ty) {
                // `name: Type<...>` or `name: &[mut] Type<...>` — walk
                // back over the borrow and the colon.
                let head = strip_borrow(line[..pos].trim_end());
                if let Some(head) = head.strip_suffix(':') {
                    if let Some(id) = ident_before(head, head.len()) {
                        idents.push(id.to_string());
                    }
                }
            }
        }
        for ctor in CTORS {
            if let Some(pos) = line.find(ctor) {
                // `let [mut] name = Ctor` / `name = Ctor`.
                let head = line[..pos].trim_end();
                if let Some(head) = head.strip_suffix('=') {
                    if let Some(id) = ident_before(head.trim_end(), head.trim_end().len()) {
                        idents.push(id.to_string());
                    }
                }
            }
        }
    }
    idents.sort();
    idents.dedup();
    idents
}

/// `head` without a trailing borrow (`&`, `&mut`, `&'a`, `&'a mut`),
/// or `head` itself if it ends in none.
fn strip_borrow(head: &str) -> &str {
    let Some(amp) = head.rfind('&') else {
        return head;
    };
    let lifetime = |w: &str| w.starts_with('\'') && w[1..].chars().all(is_ident);
    if head[amp + 1..]
        .split_whitespace()
        .all(|w| w == "mut" || lifetime(w))
    {
        head[..amp].trim_end()
    } else {
        head
    }
}

/// Hash-container methods whose iteration order is the hasher's.
const HASH_ITER_METHODS: [&str; 5] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
];

/// Run every per-file rule over one prepared file.
fn scan_file(sf: &ScannedFile, out: &mut Vec<Violation>) {
    let code_lines = &sf.ft.code_lines;

    let map_idents = collect_map_idents(code_lines);

    let mut report = |rule: Rule, i: usize, msg: String| {
        out.push(Violation {
            file: sf.rel.clone(),
            line: i + 1,
            rule,
            message: msg,
        });
    };

    let is_rng = sf.rel.to_string_lossy().replace('\\', "/") == RNG_FILE;

    for (i, code) in code_lines.iter().enumerate() {
        // hash-iter: an iterator chain over a known hash container with
        // no sort in sight. Applies to the experiment binaries too —
        // they are where CSV rows are emitted. A `for` loop header is
        // clippy's `iter_over_hash_type`.
        let for_header = code
            .trim_start()
            .strip_prefix("for")
            .is_some_and(|rest| !rest.starts_with(is_ident));
        if !sf.is_test
            && !sf.in_test_region[i]
            && !for_header
            && !map_idents.is_empty()
            && !sf.allowed(Rule::HashIter, i)
        {
            for m in HASH_ITER_METHODS {
                for (pos, _) in code.match_indices(m) {
                    if let Some(id) = ident_before(code, pos) {
                        if map_idents.iter().any(|mi| mi == id) {
                            // A sort within the next few lines makes the
                            // walk order canonical before anything
                            // observable happens.
                            let sorted_nearby = (i..(i + 5).min(code_lines.len()))
                                .any(|j| code_lines[j].contains("sort"));
                            if !sorted_nearby {
                                report(
                                    Rule::HashIter,
                                    i,
                                    format!(
                                        "unordered iteration `{id}{m}` feeds aggregation; sort the keys or lint:allow with a commutativity argument"
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }

        // rng-derivation: every stream handed to the simulator must be
        // derived through `stream`/`stream_indexed`, never by cooking a
        // root seed with ad-hoc arithmetic. A cooked seed mixes with the
        // same operations the derivation formula uses, so it can land
        // on the seed of a labelled stream elsewhere and silently alias
        // the two. Only `simcore::rng` itself mixes seeds.
        if !is_rng && !sf.allowed(Rule::RngDerivation, i) {
            for (pos, _) in code.match_indices("SimRng::new(") {
                let tail = &code[pos + "SimRng::new(".len()..];
                // Take the argument up to the matching close paren (or
                // the rest of the line if the call spans lines).
                let mut depth = 1i32;
                let mut end = tail.len();
                for (j, c) in tail.char_indices() {
                    match c {
                        '(' => depth += 1,
                        ')' => {
                            depth -= 1;
                            if depth == 0 {
                                end = j;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                let arg = &tail[..end];
                const COOKED_SEED_TOKENS: [&str; 4] = ["^", "splitmix64", "fnv1a", "wrapping_"];
                if let Some(tok) = COOKED_SEED_TOKENS.iter().find(|t| arg.contains(*t)) {
                    report(
                        Rule::RngDerivation,
                        i,
                        format!(
                            "`SimRng::new(..{tok}..)` cooks a seed by hand; derive the stream \
                             via `stream`/`stream_indexed` so it cannot alias a labelled stream"
                        ),
                    );
                }
            }
        }
    }

    // Per-file semantic rules over the token stream / item inventory.
    semantic::stream_label(&sf.items, &sf.rel, is_rng, sf, out);
    semantic::float_ord(&sf.ft.toks, &sf.rel, sf, out);
}

/// Scan one file's contents: the per-file rules only (the cross-file
/// `snapshot-completeness` pass needs the whole tree; use
/// [`scan_sources`] / [`scan_tree`]). `rel` is the path relative to the
/// scanned root (used for classification and reporting).
pub fn scan_source(rel: &Path, source: &str, out: &mut Vec<Violation>) {
    let sf = prepare(rel, source);
    scan_file(&sf, out);
}

/// Scan a whole set of in-memory sources: every per-file rule plus the
/// cross-file semantic rules over the aggregated item index. Output is
/// sorted by (file, line, rule).
pub fn scan_sources(files: &[(PathBuf, String)]) -> Vec<Violation> {
    let scanned: Vec<ScannedFile> = files.iter().map(|(rel, src)| prepare(rel, src)).collect();
    let mut out = Vec::new();
    for sf in &scanned {
        scan_file(sf, &mut out);
    }
    // Cross-file: snapshot completeness over the aggregated index.
    let index = ItemIndex::from_files(scanned.iter().map(|sf| sf.items.clone()));
    let allows = TreeAllows(scanned.iter().map(|sf| (sf.rel.as_path(), sf)).collect());
    semantic::snapshot_completeness(&index, &allows, &mut out);
    out.sort_by(|a, b| {
        (&a.file, a.line, a.rule.order(), &a.message).cmp(&(
            &b.file,
            b.line,
            b.rule.order(),
            &b.message,
        ))
    });
    out
}

/// Recursively list `.rs` files under `dir`, sorted for determinism.
#[allow(
    clippy::disallowed_methods,
    reason = "the linter reads the tree it checks"
)]
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            // `target` is build output; `fixtures` holds this linter's
            // own deliberately-violating test inputs.
            if name == "target" || name == "fixtures" {
                continue;
            }
            rust_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan a workspace tree rooted at `root`: every `crates/*/{src,tests,
/// examples,benches}` file plus the workspace-level `src/` and `tests/`.
#[allow(
    clippy::disallowed_methods,
    reason = "the linter reads the tree it checks"
)]
pub fn scan_tree(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            for sub in ["src", "tests", "examples", "benches"] {
                rust_files(&member.join(sub), &mut files)?;
            }
        }
    }
    for sub in ["src", "tests", "examples"] {
        rust_files(&root.join(sub), &mut files)?;
    }
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let source = std::fs::read_to_string(&path)?;
        sources.push((rel, source));
    }
    Ok(scan_sources(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_one(rel: &str, src: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        scan_source(Path::new(rel), src, &mut out);
        out
    }

    #[test]
    fn tokens_inside_multiline_strings_do_not_fire() {
        // A multi-line string carrying rule tokens on its later lines
        // must not surface them as code.
        let src = "pub fn banner() -> &'static str {\n    \"release notes:\nSimRng::new(seed ^ 1) is only prose\na.partial_cmp(b).unwrap() too\n\"\n}\n";
        assert!(scan_one("crates/simcore/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_region_is_exempt_from_hash_iter() {
        let src = "\
pub fn f() {}
#[cfg(test)]
mod tests {
    struct S { m: FxHashMap<u16, u32> }
    fn t(s: &S) -> Vec<u32> { s.m.values().copied().collect() }
}
";
        assert!(scan_one("crates/workloads/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_on_same_line_and_next_line() {
        let same = "let r = SimRng::new(s ^ 1); // lint:allow(rng-derivation) test hook\n";
        assert!(scan_one("crates/radio/src/x.rs", same).is_empty());
        let next = "// deliberate: lint:allow(rng-derivation)\nlet r = SimRng::new(s ^ 1);\n";
        assert!(scan_one("crates/radio/src/x.rs", next).is_empty());
        let bare = "let r = SimRng::new(s ^ 1);\n";
        assert_eq!(scan_one("crates/radio/src/x.rs", bare).len(), 1);
    }

    #[test]
    fn allow_covers_full_statement_span() {
        // The token may land on a continuation line of the statement
        // under the allow comment; the escape must still cover it.
        let src = "\
// deliberate, test hook: lint:allow(rng-derivation)
let rng =
    Some(seed)
        .map(|s| SimRng::new(s ^ 7))
        .unwrap();
let other = SimRng::new(seed ^ 9);
";
        let v = scan_one("crates/radio/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 6, "the next statement is NOT covered");
    }

    #[test]
    fn hash_iter_needs_sort_or_allow() {
        let bad = "struct S { m: FxHashMap<u16, u32> }\nfn f(s: &S) -> Vec<u32> { s.m.values().copied().collect() }\n";
        let v = scan_one("crates/workloads/src/x.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::HashIter);

        // A borrowed map parameter is learned too, whatever the borrow.
        for borrow in ["&", "&mut ", "&'a "] {
            let param = format!(
                "fn rows(m: {borrow}FxHashMap<u16, u32>) -> Vec<u32> {{ m.values().copied().collect() }}\n"
            );
            let v = scan_one("crates/workloads/src/x.rs", &param);
            assert_eq!(v.len(), 1, "{borrow}: {v:?}");
            assert_eq!(v[0].rule, Rule::HashIter);
        }

        let sorted = "struct S { m: FxHashMap<u16, u32> }\nfn f(s: &S) -> Vec<u16> {\n    let mut ks: Vec<u16> = s.m.keys().copied().collect();\n    ks.sort_unstable();\n    ks\n}\n";
        assert!(scan_one("crates/workloads/src/x.rs", sorted).is_empty());

        // Integration tests are exempt.
        assert!(scan_one("crates/workloads/tests/x.rs", bad).is_empty());

        // A `for` loop is clippy's `iter_over_hash_type`, not this rule.
        let for_loop = "struct S { m: FxHashMap<u16, u32> }\nfn f(s: &S, out: &mut Vec<u32>) {\n    for v in s.m.values() {\n        out.push(*v);\n    }\n}\n";
        assert!(scan_one("crates/workloads/src/x.rs", for_loop).is_empty());
    }

    #[test]
    fn rng_derivation_spares_plain_roots_and_the_rng_itself() {
        let cooked = "fn f(seed: u64) -> SimRng { SimRng::new(seed.wrapping_add(1)) }\n";
        let v = scan_one("crates/workloads/src/x.rs", cooked);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::RngDerivation);
        let plain = "fn f(seed: u64) -> SimRng { SimRng::new(seed) }\n";
        assert!(scan_one("crates/workloads/src/x.rs", plain).is_empty());
        assert!(scan_one("crates/simcore/src/rng.rs", cooked).is_empty());
    }

    #[test]
    fn stream_label_duplicates_and_computed() {
        let dup = "fn f(root: &SimRng) {\n    let a = root.stream(\"mob\");\n    let b = root.stream(\"mob\");\n}\n";
        let v = scan_one("crates/workloads/src/x.rs", dup);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::StreamLabel);
        assert_eq!(v[0].line, 3, "second derivation is the violation");

        // Same label in *different* functions re-derives the same
        // stream deliberately (e.g. a constructor and a reset) — fine.
        let two_fns =
            "fn f(r: &SimRng) { let _ = r.stream(\"mob\"); }\nfn g(r: &SimRng) { let _ = r.stream(\"mob\"); }\n";
        assert!(scan_one("crates/workloads/src/x.rs", two_fns).is_empty());

        // Different receivers in one function are distinct streams.
        let two_recv = "fn f(a: &SimRng, b: &SimRng) {\n    let x = a.stream(\"mob\");\n    let y = b.stream(\"mob\");\n}\n";
        assert!(scan_one("crates/workloads/src/x.rs", two_recv).is_empty());

        let computed = "fn f(root: &SimRng, which: &str) {\n    let s = root.stream(which);\n}\n";
        let v = scan_one("crates/workloads/src/x.rs", computed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::StreamLabel);

        // The RNG itself derives dynamically — exempt.
        let inner = "impl SimRng { fn via(&self, l: &str) -> SimRng { self.stream(l) } }\n";
        assert!(scan_one("crates/simcore/src/rng.rs", inner).is_empty());
    }

    #[test]
    fn float_ord_comparators() {
        let cmp = "fn f(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
        let v = scan_one("crates/model/src/x.rs", cmp);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::FloatOrd);
        assert_eq!(v[0].line, 2);

        let expect =
            "fn f(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).expect(\"NaN\"));\n}\n";
        assert_eq!(scan_one("crates/model/src/x.rs", expect).len(), 1);

        let total = "fn f(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.total_cmp(b));\n}\n";
        assert!(scan_one("crates/model/src/x.rs", total).is_empty());

        // A PartialOrd *definition* is not a comparator call.
        let def = "impl PartialOrd for K {\n    fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) }\n}\n";
        assert!(scan_one("crates/simcore/src/x.rs", def).is_empty());
    }

    #[test]
    fn snapshot_completeness_via_scan_sources() {
        let world = "\
#[derive(Clone)]
pub struct World {
    pub queue: MiniQueue,
    pub probe: Recorder,
}
#[derive(Clone)]
pub struct MiniQueue { pub depth: usize }
pub struct Recorder { pub frames: u64 }
";
        let files = vec![(
            PathBuf::from("crates/workloads/src/world.rs"),
            world.to_string(),
        )];
        let v = scan_sources(&files);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::SnapshotCompleteness);
        assert_eq!(v[0].line, 4, "violation lands on the referencing field");
    }
}
