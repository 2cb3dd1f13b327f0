//! `spider-lint` — the workspace's determinism / sans-IO semantic
//! analysis engine.
//!
//! Everything this repository claims rests on one property: a `World`
//! run is a pure function of `(config, seed)`, and a *forked* world is
//! bit-identical to a cold one (DESIGN.md §13). One stray
//! `SystemTime::now()`, one `std::collections::HashMap` iterated with
//! its per-process `RandomState`, one hand-written `Clone` that drops
//! a field of the forked state tree, and reproducibility silently
//! dies. rustc and clippy cannot express these project rules, so this
//! crate enforces them — with no external dependencies (the workspace
//! builds offline: no `syn`, no registry access).
//!
//! # Architecture
//!
//! * [`tokens`] — a hand-rolled Rust tokenizer (comments, nested block
//!   comments, string/char/raw literals carried across lines). Its
//!   per-line compact render drives the nine *line rules*; carrying
//!   literal state across newlines kills the old line-scanner's
//!   false-positive class where rule tokens inside multi-line strings
//!   fired as code.
//! * [`index`] — a workspace item index built from the token streams:
//!   structs with fields and derives, impl blocks, and `stream(..)`
//!   derivation call-sites.
//! * `semantic` — three cross-file rules over the index:
//!   `snapshot-completeness`, `stream-label`, `float-ord`.
//!
//! # Rule catalog
//!
//! | id             | rule |
//! |----------------|------|
//! | `wall-clock`   | no `Instant::now` / `SystemTime` / `thread_rng` / `rand::random` / `std::time` in simulation code |
//! | `env-var`      | no `std::env` reads outside `simcore::sweep` and the bench harness |
//! | `default-hash` | no `std::collections::HashMap`/`HashSet` with the default `RandomState`; use `FxHashMap`/`FxHashSet` or `BTreeMap` |
//! | `hash-iter`    | no unordered hash-map iteration feeding output/aggregation in `bench`/`workloads` unless sorted within two lines |
//! | `thread`       | no `std::thread` / channels outside `simcore::sweep` |
//! | `sans-io`      | no `println!`/`eprintln!`/file I/O in library crates (bins, examples, benches and `#[cfg(test)]` are exempt) |
//! | `forbid-unsafe`| every crate root must carry `#![forbid(unsafe_code)]` |
//! | `clone-nondet` | no `Clone` (derived or hand-written) on a type whose body carries a `lint:allow`-escaped determinism violation — the checkpoint engine (DESIGN.md §13) deep-clones worlds, and forking escaped nondeterministic state silently breaks fork/resume bit-identity |
//! | `rng-derivation` | no hand-cooked `SimRng::new(..)` seeds (XOR/splitmix/FNV arithmetic) outside `simcore::rng` — a cooked seed can collide with a labelled `stream`/`stream_indexed` derivation and silently alias two streams meant to be independent |
//! | `snapshot-completeness` | every struct/enum reachable from `World` state must `#[derive(Clone)]` — a hand-written Clone can drop a field, a derived one cannot — so the compiler proves fork/resume bit-identity |
//! | `stream-label` | no duplicate `stream("…")` labels per (function, receiver) — identical labels alias the same RNG stream — and no computed labels outside `simcore::rng` |
//! | `float-ord`    | no `partial_cmp(..).unwrap()` comparators or `f32`/`f64` container keys; NaN-capable ordering panics or silently reorders — use `total_cmp` |
//!
//! # Escapes
//!
//! A violation that is deliberate is allow-listed in the source:
//!
//! * `// lint:allow(rule)` on the offending line silences that rule
//!   there; on a comment line of its own, it silences the rule for the
//!   whole statement that follows (all continuation lines of a
//!   multi-line expression, until the statement terminates);
//! * `// lint:allow-file(rule)` anywhere in a file silences the rule
//!   for the whole file (used e.g. by the hashing shim, whose entire
//!   purpose is to wrap the std hash maps).
//!
//! Every escape should carry a justification in the surrounding
//! comment; reviewers treat a bare allow as a bug.

#![forbid(unsafe_code)]

pub mod index;
mod semantic;
pub mod tokens;

use crate::index::{parse_file, FileItems, ItemIndex};
use crate::tokens::{find_tok, tokenize, FileTokens};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule of the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Wall-clock or ambient randomness in simulation code.
    WallClock,
    /// Environment reads outside the sweep runner / bench harness.
    EnvVar,
    /// `std` hash containers with the nondeterministic default hasher.
    DefaultHash,
    /// Unordered hash-map iteration feeding aggregation.
    HashIter,
    /// Threads or channels outside `simcore::sweep`.
    Thread,
    /// I/O from library code.
    SansIo,
    /// Missing `#![forbid(unsafe_code)]` in a crate root.
    ForbidUnsafe,
    /// `Clone` on a type holding `lint:allow`-escaped nondeterministic
    /// state (checkpoint-engine hazard).
    CloneNondet,
    /// Hand-cooked `SimRng` seeds outside `simcore::rng` (a cooked seed
    /// can collide with a labelled stream's derived seed).
    RngDerivation,
    /// A type reachable from `World` state that does not derive `Clone`
    /// (checkpoint-engine hazard: a hand-written Clone can silently
    /// drop state on fork).
    SnapshotCompleteness,
    /// Duplicate or computed RNG stream labels (stream aliasing
    /// silently couples draws).
    StreamLabel,
    /// NaN-capable float ordering (`partial_cmp(..).unwrap()`, float
    /// container keys) on paths that need a total order.
    FloatOrd,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 12] = [
        Rule::WallClock,
        Rule::EnvVar,
        Rule::DefaultHash,
        Rule::HashIter,
        Rule::Thread,
        Rule::SansIo,
        Rule::ForbidUnsafe,
        Rule::CloneNondet,
        Rule::RngDerivation,
        Rule::SnapshotCompleteness,
        Rule::StreamLabel,
        Rule::FloatOrd,
    ];

    /// The identifier used in `lint:allow(...)` comments and reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::EnvVar => "env-var",
            Rule::DefaultHash => "default-hash",
            Rule::HashIter => "hash-iter",
            Rule::Thread => "thread",
            Rule::SansIo => "sans-io",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::CloneNondet => "clone-nondet",
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

/// Machine-readable report: byte-deterministic JSON (ordered keys,
/// sorted violations) for `spider-lint --json` and CI annotation.
pub fn violations_json(violations: &[Violation]) -> spider_simcore::json::Json {
    use spider_simcore::json::Json;
    Json::obj([
        ("version", Json::UInt(1)),
        (
            "violations",
            Json::arr(violations.iter().map(|v| {
                Json::obj([
                    (
                        "file",
                        Json::str(v.file.to_string_lossy().replace('\\', "/")),
                    ),
                    ("line", Json::UInt(v.line as u64)),
                    ("rule", Json::str(v.rule.id())),
                    ("message", Json::str(v.message.clone())),
                ])
            })),
        ),
        ("count", Json::UInt(violations.len() as u64)),
    ])
}

/// Where a file sits in the workspace, which decides rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileKind {
    /// Library source (`crates/*/src/**`, workspace `src/**`).
    Lib,
    /// Binary-adjacent source: `src/bin/**`, `main.rs`, examples,
    /// benches. Allowed to print, read the environment and time itself.
    Bin,
    /// Integration tests (`tests/**`). Allowed to do I/O, but still
    /// held to the determinism rules.
    Test,
}

/// Per-file scan context derived from its workspace-relative path.
#[derive(Debug, Clone)]
struct FileCtx {
    rel: PathBuf,
    crate_name: String,
    kind: FileKind,
}

/// Crates whose *library* code is exempt from the sans-IO and
/// environment rules: the bench harness exists to time things, print
/// tables and write CSVs, and this linter exists to read source trees.
const IO_EXEMPT_CRATES: &[&str] = &["bench", "lint"];

/// The one file allowed to read `SPIDER_JOBS` and spawn threads: the
/// parallel sweep runner (DESIGN.md §10).
const SWEEP_FILE: &str = "crates/simcore/src/sweep.rs";

/// The one file allowed to do seed arithmetic and dynamic stream
/// derivation: the RNG itself, whose `stream`/`stream_indexed` are the
/// single seed-mixing formula every stream goes through.
const RNG_FILE: &str = "crates/simcore/src/rng.rs";

/// Crates whose hash-map iteration feeds output/aggregation paths and
/// is therefore checked by `hash-iter`.
const HASH_ITER_CRATES: &[&str] = &["bench", "workloads"];

/// The crate name a workspace-relative path belongs to.
pub(crate) fn crate_of(rel: &Path) -> String {
    let parts: Vec<&str> = rel
        .components()
        .map(|c| c.as_os_str().to_str().unwrap_or(""))
        .collect();
    if parts.first() == Some(&"crates") && parts.len() > 1 {
        parts[1].to_string()
    } else {
        String::from("(workspace)")
    }
}

fn classify(rel: &Path) -> FileCtx {
    let parts: Vec<&str> = rel
        .components()
        .map(|c| c.as_os_str().to_str().unwrap_or(""))
        .collect();
    let crate_name = crate_of(rel);
    let file_name = parts.last().copied().unwrap_or("");
    let kind = if parts.contains(&"tests") {
        FileKind::Test
    } else if parts.contains(&"bin")
        || parts.contains(&"examples")
        || parts.contains(&"benches")
        || file_name == "main.rs"
        || file_name == "build.rs"
    {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    FileCtx {
        rel: rel.to_path_buf(),
        crate_name,
        kind,
    }
}

/// Parse `lint:allow(<rules>)` / `lint:allow-file(<rules>)` markers out
/// of comment text.
fn parse_allows(comment: &str, file_wide: &mut Vec<Rule>, here: &mut Vec<Rule>) {
    for (marker, sink) in [
        ("lint:allow-file(", &mut *file_wide),
        ("lint:allow(", &mut *here),
    ] {
        let mut rest = comment;
        while let Some(pos) = rest.find(marker) {
            let tail = &rest[pos + marker.len()..];
            if let Some(close) = tail.find(')') {
                for name in tail[..close].split(',') {
                    let name = name.trim();
                    if let Some(rule) = Rule::ALL.iter().find(|r| r.id() == name) {
                        sink.push(*rule);
                    }
                }
                rest = &tail[close..];
            } else {
                break;
            }
        }
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
    ctx: FileCtx,
    ft: FileTokens,
    items: FileItems,
    line_allows: Vec<Vec<Rule>>,
    file_allows: Vec<Rule>,
    in_test_region: Vec<bool>,
}

impl ScannedFile {
    fn allowed(&self, rule: Rule, line: usize) -> bool {
        self.file_allows.contains(&rule)
            || self
                .line_allows
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
    let ctx = classify(rel);
    let ft = tokenize(source);
    let n = ft.code_lines.len();
    let mut line_allows: Vec<Vec<Rule>> = vec![Vec::new(); n];
    let mut file_allows: Vec<Rule> = Vec::new();
    for (i, comment) in ft.comment_lines.iter().enumerate() {
        let mut here = Vec::new();
        parse_allows(comment, &mut file_allows, &mut here);
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
    let items = parse_file(rel, &ctx.crate_name, &ft.toks, &in_test_region);
    ScannedFile {
        ctx,
        ft,
        items,
        line_allows,
        file_allows,
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
                // `name: Type<...>` — walk back over the colon.
                let head = line[..pos].trim_end();
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

/// Token lists per rule. A single match reports once per line per rule.
const WALL_CLOCK_TOKENS: [&str; 5] = [
    "Instant::now",
    "SystemTime",
    "thread_rng",
    "rand::random",
    "std::time::",
];
const ENV_TOKENS: [&str; 2] = ["std::env", "env::var"];
const DEFAULT_HASH_TOKENS: [&str; 4] = [
    "std::collections::HashMap",
    "std::collections::HashSet",
    "HashMap::new()",
    "HashSet::new()",
];
const THREAD_TOKENS: [&str; 3] = ["std::thread", "thread::spawn", "mpsc"];
const SANS_IO_TOKENS: [&str; 10] = [
    "println!",
    "eprintln!",
    "print!(",
    "eprint!(",
    "dbg!(",
    "std::fs",
    "File::create",
    "File::open",
    "OpenOptions",
    "io::stdout",
];
const HASH_ITER_METHODS: [&str; 5] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
];

/// Run every per-file rule over one prepared file.
fn scan_file(sf: &ScannedFile, out: &mut Vec<Violation>) {
    let ctx = &sf.ctx;
    let code_lines = &sf.ft.code_lines;
    let in_test_region = &sf.in_test_region;

    let map_idents = if HASH_ITER_CRATES.contains(&ctx.crate_name.as_str()) {
        collect_map_idents(code_lines)
    } else {
        Vec::new()
    };

    let allowed = |rule: Rule, i: usize| -> bool { sf.allowed(rule, i) };
    let mut report = |rule: Rule, i: usize, msg: String| {
        out.push(Violation {
            file: ctx.rel.clone(),
            line: i + 1,
            rule,
            message: msg,
        });
    };

    let io_exempt_crate = IO_EXEMPT_CRATES.contains(&ctx.crate_name.as_str());
    let rel_slash = ctx.rel.to_string_lossy().replace('\\', "/");
    let is_sweep = rel_slash == SWEEP_FILE;
    let is_rng = rel_slash == RNG_FILE;

    for (i, code) in code_lines.iter().enumerate() {
        let test_here = ctx.kind == FileKind::Test || in_test_region[i];

        // wall-clock: simulation code (lib + tests) must not read time
        // or ambient randomness. Bins/examples/benches time themselves.
        if ctx.kind != FileKind::Bin && !io_exempt_crate && !allowed(Rule::WallClock, i) {
            if let Some(tok) = WALL_CLOCK_TOKENS.iter().find(|t| find_tok(code, t)) {
                report(Rule::WallClock, i, format!("`{tok}` in simulation code"));
            }
        }

        // env-var: only the sweep runner and the bench/lint harnesses
        // may consult the environment.
        if ctx.kind != FileKind::Bin
            && !io_exempt_crate
            && !is_sweep
            && !test_here
            && !allowed(Rule::EnvVar, i)
        {
            if let Some(tok) = ENV_TOKENS.iter().find(|t| find_tok(code, t)) {
                report(Rule::EnvVar, i, format!("`{tok}` outside sweep/bench"));
            }
        }

        // default-hash: library code must not build RandomState maps.
        // The path check also catches brace imports
        // (`use std::collections::{HashMap, ...}`).
        if ctx.kind == FileKind::Lib && !test_here && !allowed(Rule::DefaultHash, i) {
            let brace_import = find_tok(code, "std::collections::")
                && (find_tok(code, "HashMap") || find_tok(code, "HashSet"));
            if let Some(tok) = DEFAULT_HASH_TOKENS
                .iter()
                .find(|t| find_tok(code, t))
                .or(brace_import.then_some(&"std::collections::{Hash..}"))
            {
                report(
                    Rule::DefaultHash,
                    i,
                    format!("`{tok}` has a per-process RandomState; use FxHashMap/FxHashSet or BTreeMap"),
                );
            }
        }

        // thread: only the sweep runner may spawn or channel.
        if !is_sweep && !allowed(Rule::Thread, i) {
            if let Some(tok) = THREAD_TOKENS.iter().find(|t| find_tok(code, t)) {
                report(Rule::Thread, i, format!("`{tok}` outside simcore::sweep"));
            }
        }

        // sans-io: library code performs no I/O.
        if ctx.kind == FileKind::Lib && !test_here && !io_exempt_crate && !allowed(Rule::SansIo, i)
        {
            if let Some(tok) = SANS_IO_TOKENS.iter().find(|t| find_tok(code, t)) {
                report(Rule::SansIo, i, format!("`{tok}` in library code"));
            }
        }

        // hash-iter: unordered iteration over a known hash container in
        // an aggregation crate, with no sort in sight. Applies to the
        // experiment binaries too — they are where CSV rows are emitted.
        if ctx.kind != FileKind::Test
            && !test_here
            && !map_idents.is_empty()
            && !allowed(Rule::HashIter, i)
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
        if !is_rng && !allowed(Rule::RngDerivation, i) {
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

    // clone-nondet: a type whose definition body carries a `lint:allow`
    // escape for one of the determinism rules must not be cloneable.
    // The checkpoint engine (DESIGN.md §13) deep-clones live worlds to
    // fork them; state that had to be escaped from the determinism
    // rules would be silently duplicated into every fork, and
    // fork/resume bit-identity dies in a place no other rule watches.
    // Line-level escapes only: `lint:allow-file` marks a whole file
    // whose *purpose* is the exception (e.g. the hashing shim), not a
    // pocket of nondeterministic state smuggled into simulation types.
    if ctx.kind == FileKind::Lib {
        const NONDET_RULES: [Rule; 4] = [
            Rule::WallClock,
            Rule::EnvVar,
            Rule::DefaultHash,
            Rule::Thread,
        ];
        let contains_word = |line: &str, word: &str| -> bool {
            line.match_indices(word).any(|(pos, _)| {
                line[..pos].chars().next_back().is_none_or(|c| !is_ident(c))
                    && line[pos + word.len()..]
                        .chars()
                        .next()
                        .is_none_or(|c| !is_ident(c))
            })
        };
        for ty in &sf.items.types {
            if sf.in_test_region.get(ty.line).copied().unwrap_or(false) {
                continue;
            }
            let end = ty
                .fields
                .iter()
                .map(|f| f.line)
                .chain(ty.payload_idents.iter().map(|(_, l)| *l))
                .max()
                .unwrap_or(ty.line)
                + 1;
            let tainted = (ty.line..=end.min(code_lines.len().saturating_sub(1)))
                .any(|i| NONDET_RULES.iter().any(|r| sf.line_allows[i].contains(r)));
            if !tainted {
                continue;
            }
            if ty.derives.iter().any(|d| d == "Clone") {
                // `#[derive(.., Clone, ..)]` in the attribute block
                // above the definition.
                let derive_line = (0..ty.line)
                    .rev()
                    .take_while(|&j| {
                        let l = code_lines[j].trim_start();
                        l.starts_with('#') || l.is_empty()
                    })
                    .find(|&j| {
                        code_lines[j].contains("derive") && contains_word(&code_lines[j], "Clone")
                    });
                let at = derive_line.unwrap_or(ty.line);
                if !allowed(Rule::CloneNondet, at) {
                    report(
                        Rule::CloneNondet,
                        at,
                        format!(
                            "`{}` is Clone but its body carries a lint:allow-escaped \
                             determinism violation; the checkpoint engine would fork that state",
                            ty.name
                        ),
                    );
                }
            } else if let Some(at) = sf
                .items
                .impls
                .iter()
                .find(|im| im.trait_name.as_deref() == Some("Clone") && im.type_name == ty.name)
                .map(|im| im.line)
            {
                if !allowed(Rule::CloneNondet, at) {
                    report(
                        Rule::CloneNondet,
                        at,
                        format!(
                            "`{}` is Clone but its body carries a lint:allow-escaped \
                             determinism violation; the checkpoint engine would fork that state",
                            ty.name
                        ),
                    );
                }
            }
        }
    }

    // forbid-unsafe: crate roots must carry the attribute.
    let is_crate_root = {
        let parts: Vec<&str> = ctx
            .rel
            .components()
            .map(|c| c.as_os_str().to_str().unwrap_or(""))
            .collect();
        parts.last() == Some(&"lib.rs")
            && (parts.as_slice() == ["src", "lib.rs"]
                || (parts.first() == Some(&"crates") && parts.get(2) == Some(&"src")))
    };
    // Checked against the token render so a doc comment or string
    // merely *mentioning* the attribute doesn't satisfy the rule.
    if is_crate_root
        && !sf.file_allows.contains(&Rule::ForbidUnsafe)
        && !code_lines
            .iter()
            .any(|l| l.contains("#![forbid(unsafe_code)]"))
    {
        out.push(Violation {
            file: ctx.rel.clone(),
            line: 1,
            rule: Rule::ForbidUnsafe,
            message: "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
        });
    }

    // Per-file semantic rules over the token stream / item inventory.
    semantic::stream_label(&sf.items, &ctx.rel, is_rng, sf, out);
    semantic::float_ord(&sf.ft.toks, &ctx.rel, sf, out);
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
    let index = ItemIndex::from_files(scanned.iter().map(|sf| clone_items(&sf.items)));
    let allows = TreeAllows(
        scanned
            .iter()
            .map(|sf| (sf.ctx.rel.as_path(), sf))
            .collect(),
    );
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

fn clone_items(items: &FileItems) -> FileItems {
    FileItems {
        types: items.types.clone(),
        impls: items.impls.clone(),
        streams: items.streams.clone(),
        fn_spans: items.fn_spans.clone(),
    }
}

/// Recursively list `.rs` files under `dir`, sorted for determinism.
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
    fn wall_clock_fires_in_lib_not_bin() {
        let src = "fn t() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(scan_one("crates/simcore/src/x.rs", src).len(), 1);
        assert!(scan_one("crates/bench/src/bin/fig01.rs", src).is_empty());
        assert!(scan_one("examples/quickstart.rs", src).is_empty());
    }

    #[test]
    fn tokens_inside_multiline_strings_do_not_fire() {
        // The line-scanner false-positive class the tokenizer kills: a
        // multi-line string carrying rule tokens on its later lines.
        let src = "pub fn banner() -> &'static str {\n    \"release notes:\nuses std::time::Instant::now() internally — not!\nthread::spawn here is only prose\n\"\n}\n";
        assert!(scan_one("crates/simcore/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_region_is_exempt_from_io_rules() {
        let src = "\
pub fn f() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { println!(\"ok\"); }
}
";
        assert!(scan_one("crates/radio/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_on_same_line_and_next_line() {
        let same = "let _ = std::env::var(\"X\"); // lint:allow(env-var) test hook\n";
        assert!(scan_one("crates/radio/src/x.rs", same).is_empty());
        let next = "// deliberate: lint:allow(env-var)\nlet _ = std::env::var(\"X\");\n";
        assert!(scan_one("crates/radio/src/x.rs", next).is_empty());
        let bare = "let _ = std::env::var(\"X\");\n";
        assert_eq!(scan_one("crates/radio/src/x.rs", bare).len(), 1);
    }

    #[test]
    fn allow_covers_full_statement_span() {
        // The token may land on a continuation line of the statement
        // under the allow comment; the escape must still cover it.
        let src = "\
// deliberate, test hook: lint:allow(env-var)
let jobs =
    std::env::var(\"JOBS\")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
let other = std::env::var(\"X\");
";
        let v = scan_one("crates/radio/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 7, "the next statement is NOT covered");
    }

    #[test]
    fn allow_file_covers_everything() {
        let src = "// file-I/O shim: lint:allow-file(sans-io)\nuse std::fs::File;\nfn f() { let _ = File::open(\"x\"); }\n";
        assert!(scan_one("crates/workloads/src/cap.rs", src).is_empty());
    }

    #[test]
    fn hash_iter_needs_sort_or_allow() {
        let bad = "struct S { m: FxHashMap<u16, u32> }\nfn f(s: &S) -> Vec<u32> { s.m.values().copied().collect() }\n";
        let v = scan_one("crates/workloads/src/x.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::HashIter);

        let sorted = "struct S { m: FxHashMap<u16, u32> }\nfn f(s: &S) -> Vec<u16> {\n    let mut ks: Vec<u16> = s.m.keys().copied().collect();\n    ks.sort_unstable();\n    ks\n}\n";
        assert!(scan_one("crates/workloads/src/x.rs", sorted).is_empty());

        // Outside the aggregation crates the rule does not apply.
        assert!(scan_one("crates/netstack/src/x.rs", bad).is_empty());
    }

    #[test]
    fn forbid_unsafe_only_on_crate_roots() {
        let v = scan_one("crates/radio/src/lib.rs", "pub mod x;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ForbidUnsafe);
        assert!(scan_one("crates/radio/src/x.rs", "pub fn f() {}\n").is_empty());
        assert!(scan_one(
            "crates/radio/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod x;\n"
        )
        .is_empty());
    }

    #[test]
    fn clone_nondet_fires_on_derive_and_manual_impl() {
        let derived = "#[derive(Debug, Clone)]\npub struct Profiled {\n    depth: usize,\n    // profiling hook: lint:allow(wall-clock)\n    started: std::time::Instant,\n}\n";
        let v = scan_one("crates/simcore/src/x.rs", derived);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::CloneNondet);
        assert_eq!(v[0].line, 1, "should point at the derive line");

        let manual = "pub struct Knob {\n    // test hook: lint:allow(env-var)\n    jobs: Option<u32>,\n}\nimpl Clone for Knob {\n    fn clone(&self) -> Self {\n        Knob { jobs: self.jobs }\n    }\n}\n";
        let v = scan_one("crates/simcore/src/y.rs", manual);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::CloneNondet);
        assert_eq!(v[0].line, 5, "should point at the impl line");
    }

    #[test]
    fn clone_nondet_spares_clean_and_escaped_types() {
        // A Clone type with no escapes in its body is fine, even if the
        // file has escapes elsewhere (e.g. inside a free function).
        let clean = "#[derive(Clone)]\npub struct Plain { x: u32 }\nfn deadline() {\n    // watchdog: lint:allow(wall-clock)\n    let _ = std::time::Instant::now();\n}\n";
        assert!(scan_one("crates/simcore/src/x.rs", clean).is_empty());

        // A tainted type that is *not* Clone is also fine.
        let not_clone = "pub struct Probe {\n    // profiling hook: lint:allow(wall-clock)\n    started: std::time::Instant,\n}\n";
        assert!(scan_one("crates/simcore/src/y.rs", not_clone).is_empty());

        // And the rule has its own escape hatch.
        let escaped = "// never reaches a World: lint:allow(clone-nondet)\n#[derive(Clone)]\npub struct Probe {\n    // profiling hook: lint:allow(wall-clock)\n    started: std::time::Instant,\n}\n";
        assert!(scan_one("crates/simcore/src/z.rs", escaped).is_empty());
    }

    #[test]
    fn thread_rule_spares_only_sweep() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(scan_one("crates/workloads/src/x.rs", src).len(), 1);
        assert!(scan_one("crates/simcore/src/sweep.rs", src).is_empty());
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
    fn float_ord_comparators_and_keys() {
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

        let key = "struct S { by_rssi: FxHashMap<f64, u32> }\n";
        let v = scan_one("crates/spider/src/x.rs", key);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::FloatOrd);
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
