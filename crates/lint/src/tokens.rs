//! A hand-rolled Rust tokenizer: the semantic engine's front end.
//!
//! The original `spider-lint` was a *line* scanner: it stripped
//! comments and string literals per line and substring-matched rule
//! tokens against what was left. That architecture had one known
//! false-positive class — a string literal spanning several lines (a
//! multi-line `format!` template, a raw-string test vector) loses its
//! "inside a string" state at the first newline, so rule tokens inside
//! the string's later lines fired as if they were code.
//!
//! This module replaces the stripper with a whole-file tokenizer that
//! carries string/comment state across newlines and yields a flat
//! [`Tok`] stream with line numbers. Two derived views feed the rest of
//! the crate:
//!
//! * [`FileTokens::code_lines`] — a per-line *compact render* of the
//!   code tokens (string/char literal bodies blanked, one canonical
//!   space only between identifier-like neighbours). The line rules
//!   (`hash-iter`, `rng-derivation`) run over this render.
//! * [`FileTokens::comment_lines`] — comment text per line, where
//!   `lint:allow` markers live.
//!
//! The item index (`crate::index`) consumes the raw token stream
//! directly.

use std::fmt;

/// Token classification — deliberately coarse; the rules need idents,
/// literals and punctuation, not the full Rust grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`World`, `struct`, `fn`, `r#type`).
    Ident,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// String literal of any flavour (`"…"`, `r"…"`, `r#"…"#`, `b"…"`).
    /// The token's `text` is the literal's *body* (between the quotes),
    /// so label rules can compare contents.
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Numeric literal (`42`, `0xFF`, `1.0e-3`).
    Num,
    /// A single punctuation character (`{`, `<`, `#`, …). Multi-char
    /// operators appear as consecutive tokens; the compact render
    /// re-joins them without spaces.
    Punct,
}

/// One token with its 0-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 0-based line of the token's first character.
    pub line: usize,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TokKind::Str => write!(f, "\"{}\"", self.text),
            TokKind::Char => write!(f, "'{}'", self.text),
            _ => f.write_str(&self.text),
        }
    }
}

/// The tokenization of one source file, plus the two per-line views the
/// rule engine consumes.
#[derive(Debug)]
pub struct FileTokens {
    pub toks: Vec<Tok>,
    /// Compact code render per line (see module docs). String/char
    /// literal bodies are blanked to `""` / `''`; a literal spanning
    /// multiple lines renders only on its first line, so its interior
    /// lines are empty — no rule can fire inside a literal.
    pub code_lines: Vec<String>,
    /// Comment text per line (line + block, concatenated).
    pub comment_lines: Vec<String>,
}

/// True for characters that can continue an identifier.
pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Tokenize `source`. Never fails: unterminated literals and comments
/// are tolerated (the scan must degrade gracefully on mid-edit trees).
pub fn tokenize(source: &str) -> FileTokens {
    let chars: Vec<char> = source.chars().collect();
    let n_lines = source.lines().count().max(1);
    let mut toks: Vec<Tok> = Vec::new();
    let mut comment_lines: Vec<String> = vec![String::new(); n_lines];
    let mut line = 0usize;
    let mut i = 0usize;

    // Push `c` into the comment text of `line`, growing if the file
    // ends without a trailing newline.
    let note_comment = |comment_lines: &mut Vec<String>, line: usize, c: char| {
        if line >= comment_lines.len() {
            comment_lines.resize(line + 1, String::new());
        }
        if c != '\n' {
            comment_lines[line].push(c);
        }
    };

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            // Line comment.
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    note_comment(&mut comment_lines, line, chars[i]);
                    i += 1;
                }
            }
            // Block comment — Rust block comments nest.
            '/' if chars.get(i + 1) == Some(&'*') => {
                let mut depth = 1;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        } else {
                            note_comment(&mut comment_lines, line, chars[i]);
                        }
                        i += 1;
                    }
                }
            }
            // String literal (escape-aware, may span lines).
            '"' => {
                let start_line = line;
                let mut body = String::new();
                i += 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => {
                            body.push('\\');
                            if let Some(&e) = chars.get(i + 1) {
                                body.push(e);
                                if e == '\n' {
                                    line += 1;
                                }
                            }
                            i += 2;
                        }
                        '"' => {
                            i += 1;
                            break;
                        }
                        ch => {
                            if ch == '\n' {
                                line += 1;
                            }
                            body.push(ch);
                            i += 1;
                        }
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: body,
                    line: start_line,
                });
            }
            // Raw string: r"…" / r#"…"# / r##"…"## (after an `r` that
            // did not start an identifier; handled in the ident arm).
            // Char literal or lifetime.
            '\'' => {
                if chars.get(i + 1) == Some(&'\\') {
                    // Escaped char literal: '\n', '\'', '\u{..}', …
                    // Consume the escape pair first so an escaped quote
                    // is not mistaken for the closer.
                    let start_line = line;
                    let mut body = String::new();
                    body.push('\\');
                    if let Some(&e) = chars.get(i + 2) {
                        body.push(e);
                    }
                    i += 3;
                    while i < chars.len() && chars[i] != '\'' {
                        body.push(chars[i]);
                        i += 1;
                    }
                    i += 1; // closing quote
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text: body,
                        line: start_line,
                    });
                } else if chars.get(i + 2) == Some(&'\'')
                    && chars.get(i + 1).is_some_and(|&c| c != '\'')
                {
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text: chars[i + 1].to_string(),
                        line,
                    });
                    i += 3;
                } else {
                    // Lifetime: 'ident.
                    let start = i + 1;
                    let mut j = start;
                    while j < chars.len() && is_ident_char(chars[j]) {
                        j += 1;
                    }
                    let name: String = chars[start..j].iter().collect();
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: format!("'{name}"),
                        line,
                    });
                    i = j;
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut j = i + 1;
                while j < chars.len() && (is_ident_char(chars[j]) || chars[j] == '.') {
                    // `1..2` is a range, not a float; `1.max(…)` is a
                    // method call on an integer literal.
                    if chars[j] == '.' && !chars.get(j + 1).copied().unwrap_or(' ').is_ascii_digit()
                    {
                        break;
                    }
                    // Exponent sign: 1.0e-3 / 2E+9.
                    if (chars[j] == 'e' || chars[j] == 'E')
                        && matches!(chars.get(j + 1), Some(&'+') | Some(&'-'))
                        && chars.get(j + 2).copied().unwrap_or(' ').is_ascii_digit()
                    {
                        j += 2;
                    }
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Num,
                    text: chars[start..j].iter().collect(),
                    line,
                });
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                // Raw string with an `r`/`br` prefix?
                let raw_hash_start = match c {
                    'r' => Some(i + 1),
                    'b' if chars.get(i + 1) == Some(&'r') => Some(i + 2),
                    _ => None,
                };
                let raw = raw_hash_start.and_then(|mut j| {
                    let mut hashes = 0usize;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    (chars.get(j) == Some(&'"')).then_some((j + 1, hashes))
                });
                if let Some((body_start, hashes)) = raw {
                    let start_line = line;
                    let mut body = String::new();
                    let mut j = body_start;
                    'raw: while j < chars.len() {
                        if chars[j] == '"' {
                            // Close iff followed by `hashes` hash marks.
                            if (0..hashes).all(|k| chars.get(j + 1 + k) == Some(&'#')) {
                                j += 1 + hashes;
                                break 'raw;
                            }
                        }
                        if chars[j] == '\n' {
                            line += 1;
                        }
                        body.push(chars[j]);
                        j += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Str,
                        text: body,
                        line: start_line,
                    });
                    i = j;
                    continue;
                }
                // Byte string b"…" — `b` then a plain string literal.
                if c == 'b' && chars.get(i + 1) == Some(&'"') {
                    i += 1; // re-enter the loop at the quote
                    continue;
                }
                let start = i;
                let mut j = i + 1;
                while j < chars.len() && is_ident_char(chars[j]) {
                    j += 1;
                }
                let mut text: String = chars[start..j].iter().collect();
                // Raw identifier r#type: the `r` arm above only consumed
                // ident chars, so `r` followed by `#` + ident is here.
                if text == "r" && chars.get(j) == Some(&'#') {
                    let mut k = j + 1;
                    while k < chars.len() && is_ident_char(chars[k]) {
                        k += 1;
                    }
                    text = chars[j + 1..k].iter().collect();
                    j = k;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    line,
                });
                i = j;
            }
            c if c.is_whitespace() => {
                i += 1;
            }
            c => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }

    let code_lines = render_code_lines(&toks, comment_lines.len().max(line + 1));
    if comment_lines.len() < code_lines.len() {
        comment_lines.resize(code_lines.len(), String::new());
    }
    FileTokens {
        toks,
        code_lines,
        comment_lines,
    }
}

/// Render the compact per-line code view: tokens joined with a single
/// space only where two identifier-like tokens would otherwise fuse
/// (`pub fn`, `let mut x`), literal bodies blanked.
fn render_code_lines(toks: &[Tok], n_lines: usize) -> Vec<String> {
    let mut lines = vec![String::new(); n_lines];
    for t in toks {
        if t.line >= lines.len() {
            lines.resize(t.line + 1, String::new());
        }
        let line = &mut lines[t.line];
        let rendered: String = match t.kind {
            TokKind::Str => "\"\"".to_string(),
            TokKind::Char => "''".to_string(),
            _ => t.text.clone(),
        };
        let prev_joins = line.chars().next_back().is_some_and(is_ident_char);
        let next_joins = rendered.chars().next().is_some_and(is_ident_char);
        if prev_joins && next_joins {
            line.push(' ');
        }
        line.push_str(&rendered);
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_not_code() {
        let ft = tokenize("let x = \"Instant::now\"; // lint:allow(thread)\n");
        assert!(!ft.code_lines[0].contains("Instant"));
        assert!(ft.comment_lines[0].contains("lint:allow(thread)"));
        let ft = tokenize("/* SystemTime */ let y = 1;\n");
        assert!(!ft.code_lines[0].contains("SystemTime"));
        assert!(ft.code_lines[0].contains("let y=1;"));
    }

    #[test]
    fn multi_line_string_does_not_leak_tokens() {
        // The line-scanner false-positive class this tokenizer kills: a
        // string spanning lines must not surface its body as code.
        let src = "let t = \"row one\nInstant::now() inside a template\nrow three\";\nlet u = 1;\n";
        let ft = tokenize(src);
        assert!(!ft.code_lines[1].contains("Instant"), "{:?}", ft.code_lines);
        assert!(ft.code_lines[3].contains("let u=1;"));
    }

    #[test]
    fn raw_strings_span_lines_and_hashes() {
        let src = "let s = r#\"SystemTime \" inner\nstd::env::var second line\"#;\nlet v = 2;\n";
        let ft = tokenize(src);
        assert!(!ft.code_lines[0].contains("SystemTime"));
        assert!(!ft.code_lines[1].contains("env"));
        assert!(ft.code_lines[2].contains("let v=2;"));
        let strs: Vec<&Tok> = ft.toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("inner"));
    }

    #[test]
    fn nested_block_comments() {
        let ft = tokenize("/* outer /* inner */ SystemTime */ let z = 3;\n");
        assert!(!ft.code_lines[0].contains("SystemTime"));
        assert!(ft.code_lines[0].contains("let z=3;"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let ft = tokenize("fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert!(ft
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert!(ft.code_lines[0].contains("fn f<'a>"));
    }

    #[test]
    fn string_literal_values_are_kept() {
        let ft = tokenize("root.stream(\"beacon-phase\")\n");
        let s = ft
            .toks
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("string token");
        assert_eq!(s.text, "beacon-phase");
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let ft = tokenize("for i in 0..10 { let x = 1.max(2); let y = 1.5e-3; }\n");
        let nums: Vec<&str> = ft
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, ["0", "10", "1", "2", "1.5e-3"]);
    }
}
