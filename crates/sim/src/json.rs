//! A minimal JSON document builder.
//!
//! The benchmark harness exports machine-readable metrics artifacts; the
//! container environment has no serde, so this module provides the small
//! subset needed: a value tree with insertion-ordered objects and a
//! serializer with correct string escaping and finite-number handling.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds a field to an object and returns `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            _ => panic!("with() on non-object"),
        }
        self
    }

    /// Looks up a field by key. Returns `None` when `self` is not an
    /// object or the key is absent — never panics, so callers can probe
    /// arbitrary documents (e.g. parsed artifacts) safely.
    pub fn field(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Test-only convenience: like [`Json::field`] but panics with a
    /// readable message when the key is missing. Production code should
    /// use `field()` and handle `None`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object or lacks `key`.
    #[track_caller]
    pub fn expect_field(&self, key: &str) -> &Json {
        self.field(key)
            .unwrap_or_else(|| panic!("expected field `{key}` in {}", self.compact()))
    }

    /// This value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// This value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a JSON document (the subset this module serializes: no
    /// exponent-free restrictions, `\uXXXX` escapes limited to the BMP).
    ///
    /// # Errors
    ///
    /// Returns a byte offset and message for malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes compactly.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, usize::MAX);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let compact = indent == usize::MAX;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    if *x == x.trunc() && x.abs() < 1e15 {
                        let _ = write!(out, "{}", *x as i64);
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
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
                    if !compact {
                        push_line(out, indent + 1);
                    }
                    item.write(out, if compact { indent } else { indent + 1 });
                }
                if !compact {
                    push_line(out, indent);
                }
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
                    if !compact {
                        push_line(out, indent + 1);
                    }
                    escape_into(k, out);
                    out.push(':');
                    if !compact {
                        out.push(' ');
                    }
                    v.write(out, if compact { indent } else { indent + 1 });
                }
                if !compact {
                    push_line(out, indent);
                }
                out.push('}');
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
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
                expect_byte(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
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
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("invalid number `{text}` at byte {start}"))
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("invalid \\u escape `{hex}`"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid code point {code:#x}"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(&b) => {
                // Consume one multi-byte UTF-8 scalar. Decode only the
                // scalar's own bytes — validating the whole remaining
                // input per character would make parsing quadratic.
                let width = match b {
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    0xF0..=0xF7 => 4,
                    _ => return Err(format!("invalid utf-8 lead byte at {}", *pos)),
                };
                let chunk = bytes.get(*pos..*pos + width).ok_or("unterminated string")?;
                let s = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
                out.push(s.chars().next().ok_or("unterminated string")?);
                *pos += width;
            }
        }
    }
}

/// Starts a new pretty-printed line at nesting depth `depth` (two spaces
/// per level), without allocating.
fn push_line(out: &mut String, depth: usize) {
    const SPACES: &str = "                                                                ";
    out.push('\n');
    let mut width = 2 * depth;
    while width > 0 {
        let n = width.min(SPACES.len());
        out.push_str(&SPACES[..n]);
        width -= n;
    }
}

/// Writes `s` as a quoted JSON string. The runs between escapes are
/// copied whole, so a string that needs no escaping is one `push_str`.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    // Every byte that needs escaping is ASCII, so `i + 1` stays on a char
    // boundary.
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Option<f64>> for Json {
    fn from(x: Option<f64>) -> Json {
        x.map(Json::Num).unwrap_or(Json::Null)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object_round() {
        let j = Json::obj()
            .with("a", 1u64)
            .with("b", "x\"y")
            .with("c", Json::Arr(vec![Json::from(1.5), Json::Null]));
        assert_eq!(j.compact(), r#"{"a":1,"b":"x\"y","c":[1.5,null]}"#);
    }

    #[test]
    fn field_accessor_never_panics() {
        let j = Json::obj().with("a", 1u64);
        assert_eq!(j.field("a"), Some(&Json::Num(1.0)));
        assert_eq!(j.field("missing"), None);
        // Non-object values answer None instead of panicking.
        assert_eq!(Json::Null.field("a"), None);
        assert_eq!(Json::from(3.0).field("a"), None);
        assert_eq!(Json::Arr(vec![]).field("a"), None);
        assert_eq!(j.expect_field("a").as_num(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "expected field `b`")]
    fn expect_field_panics_with_key_name() {
        let j = Json::obj().with("a", 1u64);
        let _ = j.expect_field("b");
    }

    #[test]
    fn parse_round_trips_serialized_documents() {
        let j = Json::obj()
            .with("a", 1u64)
            .with("b", "x\"y\n\u{1}")
            .with("neg", -2.5)
            .with("flag", true)
            .with("nothing", Json::Null)
            .with("arr", Json::Arr(vec![Json::from(1.5), Json::Null]))
            .with("nested", Json::obj().with("k", "v"));
        for text in [j.compact(), j.pretty()] {
            let parsed = Json::parse(&text).unwrap();
            assert_eq!(parsed, j, "{text}");
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nope").is_err());
    }

    #[test]
    fn non_finite_serializes_null() {
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).compact(), "null");
    }

    #[test]
    fn integers_have_no_fraction() {
        assert_eq!(Json::Num(120.0).compact(), "120");
        assert_eq!(Json::Num(0.25).compact(), "0.25");
    }

    #[test]
    fn control_characters_escaped() {
        assert_eq!(Json::from("a\u{1}b\nc").compact(), "\"a\\u0001b\\nc\"");
    }

    #[test]
    fn pretty_is_indented() {
        let j = Json::obj().with("k", Json::Arr(vec![Json::from(1u64)]));
        let text = j.pretty();
        assert!(text.contains("\n  \"k\": [\n    1\n  ]\n"), "{text}");
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn deep_indentation_is_two_spaces_per_level() {
        // Depth 45 needs 90 spaces on the innermost line: more than one
        // copy of the writer's space run.
        let mut j = Json::from(7u64);
        for _ in 0..45 {
            j = Json::Arr(vec![j]);
        }
        let text = j.pretty();
        let mut expected = String::new();
        for depth in 0..45 {
            expected.push_str(&" ".repeat(2 * depth));
            expected.push_str("[\n");
        }
        expected.push_str(&" ".repeat(90));
        expected.push_str("7\n");
        for depth in (0..45).rev() {
            expected.push_str(&" ".repeat(2 * depth));
            expected.push_str("]\n");
        }
        assert_eq!(text, expected);
        let deep_obj = (0..40).fold(Json::Null, |v, _| Json::obj().with("k", v));
        let text = deep_obj.pretty();
        assert!(text.contains(&format!("\n{}\"k\": null\n", " ".repeat(80))));
        assert_eq!(Json::parse(&text).unwrap(), deep_obj);
    }

    #[test]
    fn strings_with_and_without_escapes() {
        // Nothing to escape: copied as is, non-ASCII and DEL included.
        assert_eq!(
            Json::from("plain é λ 🦀 \u{7f}").compact(),
            "\"plain é λ 🦀 \u{7f}\""
        );
        assert_eq!(Json::from("").compact(), "\"\"");
        // Escapes at the start, in the middle, at the end and back to back.
        assert_eq!(
            Json::from("\"a\\b\n\r\tc\u{1f}\u{0}").compact(),
            r#""\"a\\b\n\r\tc\u001f\u0000""#
        );
        assert_eq!(Json::from("é\"λ").compact(), "\"é\\\"λ\"");
        // Keys take the same path.
        assert_eq!(Json::obj().with("k\"ey", 1u64).compact(), r#"{"k\"ey":1}"#);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::obj().pretty(), "{}\n");
        assert_eq!(Json::Arr(vec![]).compact(), "[]");
    }
}
