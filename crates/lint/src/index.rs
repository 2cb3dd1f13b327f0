//! The workspace item index: what the semantic rules reason over.
//!
//! Built in one pass over every file's token stream (`crate::tokens`),
//! the index records:
//!
//! * **Types** — every `struct`/`enum` with its name, generic
//!   parameters, `#[derive(..)]` list, named fields (name + type text +
//!   the identifiers inside the type, for reachability edges), and the
//!   type identifiers inside tuple-struct / enum-variant payloads.
//! * **Impl blocks** — `impl [Trait for] Type`, so `clone-nondet` can
//!   find a hand-written `Clone`.
//! * **Stream derivations** — every `.stream(..)` / `.stream_indexed(..)`
//!   call site with its label (when literal), receiver expression text,
//!   and enclosing function, for the `stream-label` aliasing rule.
//!
//! The parser is deliberately tolerant: it is a linear token walk with
//! balanced-bracket sub-consumption, not a grammar. Anything it cannot
//! parse it skips — a lint pass must degrade to fewer findings, never
//! to a crash — and `tests/item_index.rs` pins the inventory it
//! extracts from a known fixture tree so silent weakening fails loudly.

use crate::tokens::{tokenize, Tok, TokKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A named field of a struct (or struct-variant).
#[derive(Debug, Clone)]
pub struct FieldInfo {
    pub name: String,
    /// Compact render of the field's type, e.g. `Option<Capture>`.
    pub ty: String,
    /// Identifiers appearing in the type (excluding those after `dyn`),
    /// the raw material for reachability edges.
    pub ty_idents: Vec<String>,
    /// 0-based line of the field name.
    pub line: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeKind {
    Struct,
    Enum,
}

/// One `struct` or `enum` definition.
#[derive(Debug, Clone)]
pub struct TypeInfo {
    pub name: String,
    pub kind: TypeKind,
    pub crate_name: String,
    pub file: PathBuf,
    /// 0-based line of the `struct`/`enum` keyword.
    pub line: usize,
    pub generics: Vec<String>,
    pub derives: Vec<String>,
    /// Named fields (empty for tuple/unit structs and enums).
    pub fields: Vec<FieldInfo>,
    /// Type identifiers inside tuple-struct or enum-variant payloads,
    /// with the 0-based line each appeared on.
    pub payload_idents: Vec<(String, usize)>,
    /// Defined inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// One `impl` block.
#[derive(Debug, Clone)]
pub struct ImplInfo {
    /// Trait being implemented (`impl Clone for X` → `Some("Clone")`),
    /// `None` for inherent impls.
    pub trait_name: Option<String>,
    /// Base name of the self type (`World<C>` → `World`).
    pub type_name: String,
    pub crate_name: String,
    pub file: PathBuf,
    /// 0-based line of the `impl` keyword.
    pub line: usize,
}

/// One `.stream("…")` / `.stream_indexed("…", _)` derivation call site.
#[derive(Debug, Clone)]
pub struct StreamCall {
    pub file: PathBuf,
    /// 0-based line of the method name.
    pub line: usize,
    /// `"stream"` or `"stream_indexed"`.
    pub method: &'static str,
    /// The label when it is a string literal; `None` for computed
    /// labels (`.stream(&format!(..))`, `.stream(var)`).
    pub label: Option<String>,
    /// Compact text of the receiver expression (string literal values
    /// preserved, so `root.stream("a")` and `root.stream("b")` differ).
    pub receiver: String,
    /// Index of the enclosing function in [`FileItems::fn_spans`], or
    /// `usize::MAX` at file level.
    pub scope: usize,
}

/// Everything indexed from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub types: Vec<TypeInfo>,
    pub impls: Vec<ImplInfo>,
    pub streams: Vec<StreamCall>,
    /// `(name, start_line, end_line)` of every `fn` body, 0-based,
    /// innermost-last for nested functions/closures are not tracked.
    pub fn_spans: Vec<(String, usize, usize)>,
}

/// The aggregated workspace index.
#[derive(Debug, Default)]
pub struct ItemIndex {
    pub types: Vec<TypeInfo>,
    pub impls: Vec<ImplInfo>,
    pub streams: Vec<StreamCall>,
    /// name → indexes into `types`.
    by_name: BTreeMap<String, Vec<usize>>,
}

impl ItemIndex {
    /// Build the index from `(workspace-relative path, file items)`.
    pub fn from_files(files: impl IntoIterator<Item = FileItems>) -> ItemIndex {
        let mut ix = ItemIndex::default();
        for fi in files {
            for t in fi.types {
                ix.by_name
                    .entry(t.name.clone())
                    .or_default()
                    .push(ix.types.len());
                ix.types.push(t);
            }
            ix.impls.extend(fi.impls);
            ix.streams.extend(fi.streams);
        }
        ix
    }

    /// Convenience for tests and external tooling: parse + aggregate a
    /// set of in-memory sources.
    pub fn build_from_sources(files: &[(PathBuf, String)]) -> ItemIndex {
        ItemIndex::from_files(files.iter().map(|(rel, src)| {
            let ft = tokenize(src);
            let in_test = crate::test_regions(&ft.code_lines);
            parse_file(rel, &crate::crate_of(rel), &ft.toks, &in_test)
        }))
    }

    /// Resolve a type identifier to candidate definitions: same-crate
    /// matches win; otherwise every non-test definition of that name.
    pub fn resolve(&self, ident: &str, from_crate: &str) -> Vec<&TypeInfo> {
        let Some(idxs) = self.by_name.get(ident) else {
            return Vec::new();
        };
        let all: Vec<&TypeInfo> = idxs
            .iter()
            .map(|&i| &self.types[i])
            .filter(|t| !t.in_test)
            .collect();
        let local: Vec<&TypeInfo> = all
            .iter()
            .copied()
            .filter(|t| t.crate_name == from_crate)
            .collect();
        if local.is_empty() {
            all
        } else {
            local
        }
    }
}

/// Compact-join a token range: identifier-like neighbours get one
/// space, string/char literals render blank (type positions have none).
fn compact(toks: &[Tok]) -> String {
    let mut out = String::new();
    for t in toks {
        let rendered: String = match t.kind {
            TokKind::Str => "\"\"".into(),
            TokKind::Char => "''".into(),
            _ => t.text.clone(),
        };
        let prev = out
            .chars()
            .next_back()
            .is_some_and(crate::tokens::is_ident_char);
        let next = rendered
            .chars()
            .next()
            .is_some_and(crate::tokens::is_ident_char);
        if prev && next {
            out.push(' ');
        }
        out.push_str(&rendered);
    }
    out
}

/// Like [`compact`], but string literal bodies are preserved — used for
/// receiver expressions, where the label inside a chained
/// `.stream("x")` distinguishes receivers.
fn compact_lossless(toks: &[Tok]) -> String {
    let mut out = String::new();
    for t in toks {
        let rendered = t.to_string();
        let prev = out
            .chars()
            .next_back()
            .is_some_and(crate::tokens::is_ident_char);
        let next = rendered
            .chars()
            .next()
            .is_some_and(crate::tokens::is_ident_char);
        if prev && next {
            out.push(' ');
        }
        out.push_str(&rendered);
    }
    out
}

fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn is_kw(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

/// Consume a balanced bracket group; `i` points at the opening token.
/// Returns the index just past the matching closer (or `toks.len()`).
fn consume_group(toks: &[Tok], i: usize, open: &str, close: &str) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < toks.len() {
        if is_punct(&toks[j], open) {
            depth += 1;
        } else if is_punct(&toks[j], close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

/// Consume a generic parameter/argument list; `i` points at `<`.
/// Returns `(declared parameter names, index past the closing >)`.
/// A `>` preceded by `-` is the arrow of a fn type, not a closer.
fn consume_angles(toks: &[Tok], i: usize) -> (Vec<String>, usize) {
    let mut params = Vec::new();
    let mut depth = 0i64;
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if is_punct(t, "<") {
            depth += 1;
            // A parameter name directly follows `<` or a `,` at depth 1.
            if depth == 1 {
                if let Some(p) = param_at(toks, j + 1) {
                    params.push(p);
                }
            }
        } else if is_punct(t, ">") && !(j > 0 && is_punct(&toks[j - 1], "-")) {
            depth -= 1;
            if depth == 0 {
                return (params, j + 1);
            }
        } else if is_punct(t, ",") && depth == 1 {
            if let Some(p) = param_at(toks, j + 1) {
                params.push(p);
            }
        }
        j += 1;
    }
    (params, toks.len())
}

/// The parameter name starting at `i` in a generic list: `T`, `const N`,
/// or none for a lifetime.
fn param_at(toks: &[Tok], i: usize) -> Option<String> {
    let t = toks.get(i)?;
    if t.kind == TokKind::Lifetime {
        return None;
    }
    if is_kw(t, "const") {
        return toks
            .get(i + 1)
            .filter(|n| n.kind == TokKind::Ident)
            .map(|n| n.text.clone());
    }
    (t.kind == TokKind::Ident).then(|| t.text.clone())
}

/// Collect type identifiers from a type-position token range, skipping
/// the identifier immediately after `dyn` (trait objects are cloned via
/// their own machinery, e.g. `clone_box`) and after `as` / `impl`.
fn type_idents_of(toks: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    let mut skip_next = false;
    for t in toks {
        if t.kind == TokKind::Ident {
            if matches!(t.text.as_str(), "dyn" | "as" | "impl") {
                skip_next = true;
                continue;
            }
            if skip_next {
                skip_next = false;
                continue;
            }
            out.push(t.text.clone());
        }
    }
    out
}

/// Parse one file's token stream into its item inventory. `in_test`
/// flags each 0-based line inside a `#[cfg(test)]` region.
pub fn parse_file(rel: &Path, crate_name: &str, toks: &[Tok], in_test: &[bool]) -> FileItems {
    let mut items = FileItems::default();
    let test_at = |line: usize| -> bool { in_test.get(line).copied().unwrap_or(false) };

    // ---- Pass 1: fn spans (for stream-call scoping). ----
    {
        let mut depth = 0i64;
        let mut pending: Option<String> = None;
        // (name, start_line, entry depth)
        let mut stack: Vec<(String, usize, i64)> = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if is_kw(t, "fn") {
                if let Some(n) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    pending = Some(n.text.clone());
                }
            } else if is_punct(t, ";") {
                // Trait method declaration without a body.
                pending = None;
            } else if is_punct(t, "{") {
                if let Some(name) = pending.take() {
                    stack.push((name, t.line, depth));
                }
                depth += 1;
            } else if is_punct(t, "}") {
                depth -= 1;
                if stack.last().is_some_and(|&(_, _, d)| d == depth) {
                    let (name, start, _) = stack.pop().unwrap();
                    items.fn_spans.push((name, start, t.line));
                }
            }
            i += 1;
        }
        // Unclosed bodies (mid-edit file): close at EOF.
        let eof = toks.last().map(|t| t.line).unwrap_or(0);
        while let Some((name, start, _)) = stack.pop() {
            items.fn_spans.push((name, start, eof));
        }
        items.fn_spans.sort();
    }

    let enclosing_fn = |line: usize| -> usize {
        // Innermost = smallest span containing the line.
        let mut best: Option<(usize, usize)> = None; // (width, idx)
        for (idx, (_, s, e)) in items.fn_spans.iter().enumerate() {
            if *s <= line && line <= *e {
                let w = e - s;
                if best.is_none_or(|(bw, _)| w < bw) {
                    best = Some((w, idx));
                }
            }
        }
        best.map(|(_, idx)| idx).unwrap_or(usize::MAX)
    };

    // ---- Pass 2: types, impls, stream calls. ----
    let mut pending_derives: Vec<String> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        // Attribute: harvest derives, keep adjacency through `pub` etc.
        if is_punct(t, "#") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|u| is_punct(u, "!")) {
                j += 1;
            }
            if toks.get(j).is_some_and(|u| is_punct(u, "[")) {
                let end = consume_group(toks, j, "[", "]");
                let attr = &toks[j..end];
                if attr.iter().any(|a| is_kw(a, "derive")) {
                    pending_derives.extend(
                        attr.iter()
                            .skip(2) // `[` `derive`
                            .filter(|a| a.kind == TokKind::Ident)
                            .map(|a| a.text.clone()),
                    );
                }
                i = end;
                continue;
            }
        }
        if is_kw(t, "struct") || is_kw(t, "enum") {
            let kind = if t.text == "struct" {
                TypeKind::Struct
            } else {
                TypeKind::Enum
            };
            if let Some((ty, next)) = parse_type_def(
                toks,
                i,
                kind,
                rel,
                crate_name,
                std::mem::take(&mut pending_derives),
                test_at(t.line),
            ) {
                items.types.push(ty);
                i = next;
                continue;
            }
            pending_derives.clear();
        } else if is_kw(t, "impl") {
            if let Some((im, body_open)) = parse_impl_header(toks, i, rel, crate_name) {
                items.impls.push(im);
                // Walk *into* the body so nested items are indexed too.
                i = body_open + 1;
                pending_derives.clear();
                continue;
            }
        } else if t.kind == TokKind::Ident
            && (t.text == "stream" || t.text == "stream_indexed")
            && i > 0
            && is_punct(&toks[i - 1], ".")
            && toks.get(i + 1).is_some_and(|u| is_punct(u, "("))
        {
            let method: &'static str = if t.text == "stream" {
                "stream"
            } else {
                "stream_indexed"
            };
            let label = toks
                .get(i + 2)
                .filter(|u| u.kind == TokKind::Str)
                .map(|u| u.text.clone());
            let start = receiver_start(toks, i - 1);
            items.streams.push(StreamCall {
                file: rel.to_path_buf(),
                line: t.line,
                method,
                label,
                receiver: compact_lossless(&toks[start..i - 1]),
                scope: enclosing_fn(t.line),
            });
        } else if is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}") {
            pending_derives.clear();
        }
        i += 1;
    }

    items
}

/// Walk backwards from the `.` of a method call to the start of its
/// receiver expression: identifier chains, `::` paths, balanced call /
/// index groups, `&` / `?` / `!` adornments. Bounded to 40 tokens.
fn receiver_start(toks: &[Tok], dot: usize) -> usize {
    let mut start = dot;
    let mut k = dot as i64 - 1;
    let lim = dot.saturating_sub(40) as i64;
    while k >= lim {
        let t = &toks[k as usize];
        match t.kind {
            TokKind::Punct if t.text == ")" || t.text == "]" => {
                let (open, close) = if t.text == ")" {
                    ("(", ")")
                } else {
                    ("[", "]")
                };
                let mut depth = 1i64;
                k -= 1;
                while k >= 0 && depth > 0 {
                    let u = &toks[k as usize];
                    if is_punct(u, close) {
                        depth += 1;
                    } else if is_punct(u, open) {
                        depth -= 1;
                    }
                    k -= 1;
                }
                start = (k + 1) as usize;
            }
            TokKind::Ident | TokKind::Num | TokKind::Str | TokKind::Lifetime => {
                start = k as usize;
                k -= 1;
            }
            TokKind::Punct if matches!(t.text.as_str(), "." | ":" | "!" | "&" | "?") => {
                k -= 1;
            }
            _ => break,
        }
    }
    start
}

/// Parse a `struct` / `enum` definition starting at the keyword.
#[allow(clippy::too_many_arguments)]
fn parse_type_def(
    toks: &[Tok],
    kw: usize,
    kind: TypeKind,
    rel: &Path,
    crate_name: &str,
    derives: Vec<String>,
    in_test: bool,
) -> Option<(TypeInfo, usize)> {
    let name_tok = toks.get(kw + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let mut ty = TypeInfo {
        name: name_tok.text.clone(),
        kind,
        crate_name: crate_name.to_string(),
        file: rel.to_path_buf(),
        line: toks[kw].line,
        generics: Vec::new(),
        derives,
        fields: Vec::new(),
        payload_idents: Vec::new(),
        in_test,
    };
    let mut j = kw + 2;
    if toks.get(j).is_some_and(|t| is_punct(t, "<")) {
        let (params, next) = consume_angles(toks, j);
        ty.generics = params;
        j = next;
    }
    // Skip a where-clause: scan to the body/terminator, consuming
    // angle groups so bound arrows don't confuse the search.
    while j < toks.len() {
        let t = &toks[j];
        if is_punct(t, "{") || is_punct(t, ";") || is_punct(t, "(") {
            break;
        }
        if is_punct(t, "<") {
            let (_, next) = consume_angles(toks, j);
            j = next;
        } else {
            j += 1;
        }
    }
    match toks.get(j) {
        Some(t) if is_punct(t, ";") => Some((ty, j + 1)),
        Some(t) if is_punct(t, "(") => {
            // Tuple struct: payload idents from the paren group.
            let end = consume_group(toks, j, "(", ")");
            for tok in &toks[j + 1..end.saturating_sub(1)] {
                if tok.kind == TokKind::Ident
                    && !matches!(tok.text.as_str(), "pub" | "crate" | "dyn" | "super")
                    && !ty.generics.contains(&tok.text)
                {
                    ty.payload_idents.push((tok.text.clone(), tok.line));
                }
            }
            Some((ty, end))
        }
        Some(t) if is_punct(t, "{") => {
            let end = consume_group(toks, j, "{", "}");
            let body = &toks[j + 1..end.saturating_sub(1)];
            match kind {
                TypeKind::Struct => parse_named_fields(body, &mut ty),
                TypeKind::Enum => parse_enum_body(body, &mut ty),
            }
            Some((ty, end))
        }
        _ => None,
    }
}

/// Parse `name: Type, …` pairs inside a struct body (attributes and
/// visibility skipped).
fn parse_named_fields(body: &[Tok], ty: &mut TypeInfo) {
    let mut i = 0;
    while i < body.len() {
        let t = &body[i];
        if is_punct(t, "#") {
            let mut j = i + 1;
            if body.get(j).is_some_and(|u| is_punct(u, "[")) {
                j = consume_group(body, j, "[", "]");
            }
            i = j;
            continue;
        }
        if is_kw(t, "pub") {
            i += 1;
            if body.get(i).is_some_and(|u| is_punct(u, "(")) {
                i = consume_group(body, i, "(", ")");
            }
            continue;
        }
        if t.kind == TokKind::Ident && body.get(i + 1).is_some_and(|u| is_punct(u, ":")) {
            let name = t.text.clone();
            let line = t.line;
            // Type runs to the `,` at nesting depth 0 (or the end).
            let mut depth = 0i64;
            let mut j = i + 2;
            while j < body.len() {
                let u = &body[j];
                match u.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "<" if u.kind == TokKind::Punct => depth += 1,
                    ">" if u.kind == TokKind::Punct && !(j > 0 && is_punct(&body[j - 1], "-")) => {
                        depth -= 1
                    }
                    "," if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let ty_toks = &body[i + 2..j];
            let idents: Vec<String> = type_idents_of(ty_toks)
                .into_iter()
                .filter(|id| !ty.generics.contains(id))
                .collect();
            ty.fields.push(FieldInfo {
                name,
                ty: compact(ty_toks),
                ty_idents: idents,
                line,
            });
            i = j + 1;
            continue;
        }
        i += 1;
    }
}

/// Parse an enum body: variant payload type idents, field names and
/// discriminant expressions excluded.
fn parse_enum_body(body: &[Tok], ty: &mut TypeInfo) {
    let mut i = 0;
    while i < body.len() {
        let t = &body[i];
        if is_punct(t, "#") {
            let mut j = i + 1;
            if body.get(j).is_some_and(|u| is_punct(u, "[")) {
                j = consume_group(body, j, "[", "]");
            }
            i = j;
            continue;
        }
        if t.kind == TokKind::Ident {
            // Variant name; payload follows.
            let mut j = i + 1;
            if body
                .get(j)
                .is_some_and(|u| is_punct(u, "(") || is_punct(u, "{"))
            {
                let (open, close) = if is_punct(&body[j], "(") {
                    ("(", ")")
                } else {
                    ("{", "}")
                };
                let end = consume_group(body, j, open, close);
                let payload = &body[j + 1..end.saturating_sub(1)];
                let mut skip_next = false;
                for (k, tok) in payload.iter().enumerate() {
                    if tok.kind != TokKind::Ident {
                        continue;
                    }
                    if matches!(tok.text.as_str(), "dyn" | "as" | "impl") {
                        skip_next = true;
                        continue;
                    }
                    if skip_next {
                        skip_next = false;
                        continue;
                    }
                    // A struct-variant field name: ident followed by a
                    // single `:` (not a `::` path separator).
                    let single_colon = payload.get(k + 1).is_some_and(|u| is_punct(u, ":"))
                        && !payload.get(k + 2).is_some_and(|u| is_punct(u, ":"));
                    if single_colon {
                        continue;
                    }
                    // Part of a path after `::` — keep (base segments
                    // resolve or not; harmless).
                    if ty.generics.contains(&tok.text) {
                        continue;
                    }
                    ty.payload_idents.push((tok.text.clone(), tok.line));
                }
                j = end;
            } else if body.get(j).is_some_and(|u| is_punct(u, "=")) {
                // Discriminant: skip to `,` at depth 0.
                let mut depth = 0i64;
                while j < body.len() {
                    match body[j].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

/// Parse an `impl` header + body; returns the info and the index of the
/// body's opening brace.
fn parse_impl_header(
    toks: &[Tok],
    kw: usize,
    rel: &Path,
    crate_name: &str,
) -> Option<(ImplInfo, usize)> {
    let mut j = kw + 1;
    if toks.get(j).is_some_and(|t| is_punct(t, "<")) {
        let (_, next) = consume_angles(toks, j);
        j = next;
    }
    let (first_base, after_first) = consume_type_path(toks, j)?;
    let (trait_name, type_name, mut j) = if toks.get(after_first).is_some_and(|t| is_kw(t, "for")) {
        let (second_base, after_second) = consume_type_path(toks, after_first + 1)?;
        (Some(first_base), second_base, after_second)
    } else {
        (None, first_base, after_first)
    };
    // Skip where-clause to the body.
    while j < toks.len() && !is_punct(&toks[j], "{") {
        if is_punct(&toks[j], "<") {
            let (_, next) = consume_angles(toks, j);
            j = next;
        } else if is_punct(&toks[j], ";") {
            return None; // e.g. `impl Trait for X;` — not a body
        } else {
            j += 1;
        }
    }
    if j >= toks.len() {
        return None;
    }
    Some((
        ImplInfo {
            trait_name,
            type_name,
            crate_name: crate_name.to_string(),
            file: rel.to_path_buf(),
            line: toks[kw].line,
        },
        j,
    ))
}

/// Consume a type path (`a::b::C<D, E>`, `&'a mut X`, `Box<dyn T>`);
/// returns the base name (last plain segment before generic args) and
/// the index past the path.
fn consume_type_path(toks: &[Tok], start: usize) -> Option<(String, usize)> {
    let mut j = start;
    // Leading adornments.
    while j < toks.len() {
        let t = &toks[j];
        if is_punct(t, "&") || t.kind == TokKind::Lifetime || is_kw(t, "mut") || is_kw(t, "dyn") {
            j += 1;
        } else {
            break;
        }
    }
    let mut base: Option<String> = None;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokKind::Ident && !is_kw(t, "for") && !is_kw(t, "where") {
            base = Some(t.text.clone());
            j += 1;
            // `::` continuation?
            if toks.get(j).is_some_and(|u| is_punct(u, ":"))
                && toks.get(j + 1).is_some_and(|u| is_punct(u, ":"))
            {
                j += 2;
                continue;
            }
            break;
        }
        break;
    }
    let base = base?;
    // Generic args.
    if toks.get(j).is_some_and(|t| is_punct(t, "<")) {
        let (_, next) = consume_angles(toks, j);
        j = next;
    }
    Some((base, j))
}
