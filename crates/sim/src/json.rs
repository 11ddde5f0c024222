//! JSON without serde: one streaming writer, self-writing documents and a
//! value tree.
//!
//! The container environment has no serde, so this module provides the
//! small subset the artifacts need. [`JsonWriter`] is the only
//! serializer: it streams values into a `String`, pretty or compact, and
//! owns every output rule (separators, indentation, empty containers,
//! the number rule, string escaping). Exported documents implement
//! [`WriteJson`] and write themselves field by field, so a large report
//! is serialized without building and freeing a tree; [`JsonDoc`] wraps
//! one with `pretty()`/`compact()` and converts into a [`Json`] value
//! where a caller embeds it in a larger tree. [`Json`] is the value tree
//! for documents that are assembled, probed or parsed
//! ([`Json::parse`]); it renders through the same writer, so both forms
//! of one document produce the same bytes.

use std::fmt::{self, Write as _};

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
        JsonDoc(self).pretty()
    }

    /// Serializes compactly.
    pub fn compact(&self) -> String {
        JsonDoc(self).compact()
    }
}

/// A document that serializes itself into a [`JsonWriter`]: one value
/// (usually one object), written in order with no tree in between.
pub trait WriteJson {
    /// Writes `self` as one JSON value.
    fn write_json(&self, w: &mut JsonWriter<'_>);
}

/// A self-writing document, rendered on demand.
///
/// Exporters return one of these instead of a [`Json`] tree: `pretty()`
/// and `compact()` stream the document straight into its output `String`,
/// and `Json::from` (so `Json::with(key, doc)`) parses the compact text
/// back into a tree that renders to the same bytes.
#[derive(Debug, Clone, Copy)]
pub struct JsonDoc<T>(pub T);

impl<T: WriteJson> JsonDoc<T> {
    /// Serializes with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.0.write_json(&mut JsonWriter::pretty(&mut out));
        out.push('\n');
        out
    }

    /// Serializes compactly.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.0.write_json(&mut JsonWriter::compact(&mut out));
        out
    }
}

impl<T: WriteJson> WriteJson for JsonDoc<T> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.0.write_json(w);
    }
}

impl<T: WriteJson> From<JsonDoc<T>> for Json {
    fn from(doc: JsonDoc<T>) -> Json {
        Json::parse(&doc.compact()).expect("a written document parses")
    }
}

/// The one JSON serializer: streams values into a `String`, in pretty
/// (newline plus two spaces per nesting level) or compact form.
///
/// It owns every output rule — separators, indentation, `{}`/`[]` for a
/// container that closed with no entry, the number rule (integers below
/// 1e15 print without a fraction, non-finite numbers print `null`) and
/// string escaping — so a [`Json`] tree and a [`WriteJson`] document that
/// describe the same value render to the same bytes.
///
/// ```
/// use vfpga_sim::{JsonWriter, WriteJson};
/// let mut out = String::new();
/// let mut w = JsonWriter::compact(&mut out);
/// w.obj(|w| {
///     w.field("a", 1u64).field("b", "x");
///     w.key("c").arr(|w| {
///         w.value(1.5).value(f64::NAN);
///     });
/// });
/// assert_eq!(out, r#"{"a":1,"b":"x","c":[1.5,null]}"#);
/// ```
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut String,
    pretty: bool,
    /// Open containers.
    depth: usize,
    /// The innermost open container has no entry yet.
    empty: bool,
    /// A key was just written: the next value completes its entry.
    after_key: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending pretty-printed JSON to `out`.
    pub fn pretty(out: &'a mut String) -> Self {
        JsonWriter::new(out, true)
    }

    /// A writer appending compact JSON to `out`.
    pub fn compact(out: &'a mut String) -> Self {
        JsonWriter::new(out, false)
    }

    fn new(out: &'a mut String, pretty: bool) -> Self {
        JsonWriter {
            out,
            pretty,
            depth: 0,
            empty: true,
            after_key: false,
        }
    }

    /// Starts the next entry of the innermost container: the comma, then
    /// in pretty mode the entry's own line. A value after its key and a
    /// top-level value start nothing.
    fn sep(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if self.depth == 0 {
            return;
        }
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        if self.pretty {
            push_line(self.out, self.depth);
        }
    }

    fn open(&mut self, bracket: char) {
        self.sep();
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty && self.pretty {
            push_line(self.out, self.depth);
        }
        self.out.push(bracket);
        // The closed container is an entry of its parent.
        self.empty = false;
    }

    /// Writes an object whose entries `body` writes (with [`field`] or
    /// [`key`] plus a value).
    ///
    /// [`field`]: JsonWriter::field
    /// [`key`]: JsonWriter::key
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.open('{');
        body(self);
        self.close('}');
        self
    }

    /// Writes an array whose elements `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.open('[');
        body(self);
        self.close(']');
        self
    }

    /// Writes an object key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        escape_into(key, self.out);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }

    /// Writes one object entry.
    pub fn field(&mut self, key: &str, value: impl WriteJson) -> &mut Self {
        self.key(key).value(value)
    }

    /// Writes one value: an array element, a key's value or the document.
    pub fn value(&mut self, value: impl WriteJson) -> &mut Self {
        value.write_json(self);
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.sep();
        self.out.push_str("null");
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.sep();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    /// Writes a number: without a fraction when it is an integer below
    /// 1e15 in magnitude, shortest round-trip decimal otherwise, `null`
    /// when it is not finite.
    pub fn num(&mut self, x: f64) -> &mut Self {
        self.sep();
        if !x.is_finite() {
            self.out.push_str("null");
        } else if x == x.trunc() && x.abs() < 1e15 {
            let n = x as i64;
            if n < 0 {
                self.out.push('-');
            }
            push_digits(self.out, n.unsigned_abs());
        } else {
            let _ = write!(self.out, "{x}");
        }
        self
    }

    /// Writes an unsigned integer with the same bytes as
    /// `num(x as f64)`, without the float round trip below 1e15.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        if x >= 1_000_000_000_000_000 {
            return self.num(x as f64);
        }
        self.sep();
        push_digits(self.out, x);
        self
    }

    /// Writes a string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.sep();
        escape_into(s, self.out);
        self
    }

    /// Writes a string formatted from `args` (`format_args!("task{id}")`),
    /// escaped as it is formatted, with no intermediate `String`.
    pub fn str_fmt(&mut self, args: fmt::Arguments<'_>) -> &mut Self {
        self.sep();
        self.out.push('"');
        let _ = Escaper(self.out).write_fmt(args);
        self.out.push('"');
        self
    }
}

impl WriteJson for Json {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(x) => w.num(*x),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => w.value(items),
            Json::Obj(pairs) => w.obj(|w| {
                for (k, v) in pairs {
                    w.field(k, v);
                }
            }),
        };
    }
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        (**self).write_json(w);
    }
}

impl<T: WriteJson> WriteJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            Some(v) => v.write_json(w),
            None => {
                w.null();
            }
        }
    }
}

impl<T: WriteJson> WriteJson for [T] {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.arr(|w| {
            for item in self {
                w.value(item);
            }
        });
    }
}

impl<T: WriteJson> WriteJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.as_slice().write_json(w);
    }
}

impl WriteJson for str {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.str(self);
    }
}

impl WriteJson for String {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.str(self);
    }
}

impl WriteJson for f64 {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.num(*self);
    }
}

impl WriteJson for u64 {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.u64(*self);
    }
}

impl WriteJson for usize {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.u64(*self as u64);
    }
}

impl WriteJson for bool {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.bool(*self);
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

/// Writes `s` as a quoted JSON string.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    escape_body(s, out);
    out.push('"');
}

/// Writes `s` escaped, without quotes. The runs between escapes are
/// copied whole, so a string that needs no escaping is one `push_str`.
fn escape_body(s: &str, out: &mut String) {
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
}

/// Escapes formatted text on its way into the output.
struct Escaper<'a>(&'a mut String);

impl fmt::Write for Escaper<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_body(s, self.0);
        Ok(())
    }
}

/// Appends the decimal digits of `x`.
fn push_digits(out: &mut String, mut x: u64) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[start..]).expect("ASCII digits"));
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

    /// A document written field by field, mirroring `tree()`.
    struct Nested;

    impl WriteJson for Nested {
        fn write_json(&self, w: &mut JsonWriter<'_>) {
            w.obj(|w| {
                w.key("empty_obj").obj(|_| {});
                w.key("empty_arr").arr(|_| {});
                w.key("list").arr(|w| {
                    w.obj(|_| {}).arr(|_| {}).u64(3);
                });
                w.field("last", "x");
            });
        }
    }

    fn tree() -> Json {
        Json::obj()
            .with("empty_obj", Json::obj())
            .with("empty_arr", Json::Arr(vec![]))
            .with(
                "list",
                Json::Arr(vec![Json::obj(), Json::Arr(vec![]), Json::from(3u64)]),
            )
            .with("last", "x")
    }

    #[test]
    fn nested_empty_containers_stay_inline() {
        let doc = JsonDoc(Nested);
        assert_eq!(
            doc.pretty(),
            "{\n  \"empty_obj\": {},\n  \"empty_arr\": [],\n  \"list\": [\n    {},\n    [],\n    3\n  ],\n  \"last\": \"x\"\n}\n"
        );
        assert_eq!(
            doc.compact(),
            r#"{"empty_obj":{},"empty_arr":[],"list":[{},[],3],"last":"x"}"#
        );
        assert_eq!(doc.pretty(), tree().pretty());
        assert_eq!(doc.compact(), tree().compact());
        assert_eq!(Json::from(doc), tree());
    }

    #[test]
    fn writer_numbers_follow_the_tree_rule() {
        let values = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            -7.0,
            0.25,
            999_999_999_999_999.0,
            1e15,
            -1e15,
            1e300,
            5e-324,
        ];
        let mut out = String::new();
        let mut w = JsonWriter::compact(&mut out);
        w.arr(|w| {
            for x in values {
                w.num(x);
            }
        });
        let tree = Json::Arr(values.iter().map(|&x| Json::Num(x)).collect());
        assert_eq!(out, tree.compact());
        assert!(
            out.starts_with("[null,null,null,0,-7,0.25,999999999999999,"),
            "{out}"
        );
        // Non-finite numbers become `null`, so the conversion yields nulls
        // that render the same bytes.
        assert_eq!(Json::from(JsonDoc(&tree)).compact(), out);
        for x in [0, 7, 999_999_999_999_999, 1_000_000_000_000_000, u64::MAX] {
            let mut a = String::new();
            JsonWriter::compact(&mut a).u64(x);
            assert_eq!(a, Json::from(x).compact(), "{x}");
        }
    }

    #[test]
    fn formatted_strings_are_escaped() {
        let mut out = String::new();
        JsonWriter::compact(&mut out).str_fmt(format_args!("tenant:{}", "a\"b\n"));
        assert_eq!(out, Json::from("tenant:a\"b\n").compact());
    }
}
