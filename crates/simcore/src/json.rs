//! Hand-rolled JSON: a value tree, a writer, and a parser.
//!
//! Campaign artifacts — minimized failing fault schedules, SLO
//! reports, per-run summaries — need to live on disk as *diffable*
//! files that replay bit-identically. The workspace builds offline (no
//! serde), so this module is the serialization layer: a few hundred
//! lines covering exactly the JSON subset the artifacts use.
//!
//! Round-trip guarantees, because replays depend on them:
//!
//! * integers up to `u64::MAX` are emitted verbatim and parsed back
//!   exactly (no `f64` round trip — [`Json::UInt`] is its own arm);
//! * `f64`s are emitted with Rust's shortest-round-trip `Display`, so
//!   `parse(emit(x)) == x` bit-for-bit for every finite float — this is
//!   what makes a serialized `LossBurst { extra }` replay exactly;
//! * object keys keep insertion order (no hashing anywhere), so
//!   emitting the same value twice yields identical bytes.
//!
//! Non-goals: unicode escapes beyond the mandatory set, arbitrary
//! precision, streaming. Artifacts are small and ASCII.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (emitted without decimal point).
    UInt(u64),
    /// A float (emitted via shortest-round-trip `Display`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Look up a key in an object (`None` for non-objects / missing).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen; may lose precision above
    /// 2^53, which is why times serialize as [`Json::UInt`] microseconds).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize with two-space indentation and a trailing newline —
    /// the diff-friendly artifact format.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                use fmt::Write;
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                use fmt::Write;
                if x.is_finite() {
                    // Rust's f64 Display is shortest-round-trip; force a
                    // decimal point so the parser reads it back as Num.
                    let s = format!("{x}");
                    let _ = write!(out, "{s}");
                    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no NaN/inf; artifacts never contain them
                    // (the debug-build invariant layer guards simulation outputs).
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Returns a descriptive error with a byte
    /// offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                offset: pos,
                message: "trailing garbage after document".into(),
            });
        }
        Ok(value)
    }
}

/// A parse error: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn err(pos: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        offset: pos,
        message: message.into(),
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected `{}`", b as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]` in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}` in object")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected `{lit}`")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| err(*pos, "\\u escape not a scalar value"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this
                // is always well-formed).
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| err(*pos, "invalid utf-8"))?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number");
    if text.is_empty() || text == "-" {
        return Err(err(start, "expected a value"));
    }
    if !fractional {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, format!("bad number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::UInt(0),
            Json::UInt(u64::MAX),
            Json::Num(1.5),
            Json::Num(-0.25),
            Json::Str("hello \"world\"\n\t\\".into()),
            Json::Str("unicode: λ → ∞".into()),
        ] {
            let text = v.pretty();
            assert_eq!(Json::parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn u64_max_survives_without_float_damage() {
        let text = Json::UInt(u64::MAX).pretty();
        assert_eq!(text.trim(), "18446744073709551615");
        assert_eq!(
            Json::parse(&text).unwrap().as_u64(),
            Some(u64::MAX),
            "must not detour through f64"
        );
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        // Shortest-round-trip Display + std parse: exact for every
        // finite double. Probe awkward values.
        let mut rng_state = 0x1234_5678_9abc_def0u64;
        let mut cases = vec![
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -1e-300,
            2.225e-308,
            0.3 + 0.3 + 0.3,
        ];
        for _ in 0..200 {
            // xorshift-ish bits reinterpreted as a double, filtered to
            // finite values.
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            let x = f64::from_bits(rng_state);
            if x.is_finite() {
                cases.push(x);
            }
        }
        for x in cases {
            let text = Json::Num(x).pretty();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj([
            ("name", Json::str("campaign")),
            ("trials", Json::UInt(32)),
            (
                "episodes",
                Json::arr([
                    Json::obj([
                        ("kind", Json::str("loss-burst")),
                        ("extra", Json::Num(0.3217)),
                    ]),
                    Json::Null,
                ]),
            ),
            ("empty_arr", Json::arr([])),
            ("empty_obj", Json::Obj(Vec::new())),
        ]);
        let text = v.pretty();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn emission_is_deterministic() {
        let v = Json::obj([("b", Json::UInt(1)), ("a", Json::UInt(2))]);
        assert_eq!(v.pretty(), v.clone().pretty());
        // Key order is insertion order, not sorted.
        assert!(v.pretty().find("\"b\"").unwrap() < v.pretty().find("\"a\"").unwrap());
    }

    #[test]
    fn accessors() {
        let v = Json::obj([("x", Json::UInt(7)), ("s", Json::str("y"))]);
        assert_eq!(v.get("x").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("y"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::arr([Json::Null]).as_arr().map(<[Json]>::len), Some(1));
        assert_eq!(Json::UInt(3).as_f64(), Some(3.0));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,", "\"unterminated", "nul", "1.2.3", "{} extra"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_compact_forms() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5 , null ] } ").unwrap();
        assert_eq!(
            v,
            Json::obj([("a", Json::arr([Json::UInt(1), Json::Num(2.5), Json::Null]))])
        );
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(Vec::new()));
    }

    #[test]
    fn negative_and_exponent_numbers_parse_as_num() {
        assert_eq!(Json::parse("-4").unwrap(), Json::Num(-4.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
    }
}
