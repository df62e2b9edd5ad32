//! Dependency-free JSON: a [`Value`] tree, its compact and pretty writers,
//! a parser, the [`ToJson`] / [`FromJson`] codec traits for the primitive
//! and container types, and [`LineFramer`] for line-delimited streams.
//!
//! The build environment cannot reach a crates registry, so `serde` /
//! `serde_json` are unavailable; this module provides exactly the JSON the
//! workspace speaks — sweep requests and reports, the serve protocol,
//! telemetry streams and benchmark records. Structured types implement the
//! traits beside their definitions, objects keyed by field name as
//! `#[derive(serde::Serialize)]` would. On-disk caches use
//! [`crate::binio`] instead.

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number without a fractional part or exponent, kept exact.
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

/// Decode failure: what was expected and where it went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Value {
    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Result<&Value, JsonError> {
        match self {
            Value::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError(format!("missing field `{key}`"))),
            _ => err(format!("expected object with field `{key}`")),
        }
    }
}

// --------------------------------------------------------------------------
// Writer
// --------------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Num(n) => {
            if n.is_finite() {
                // `{}` prints the shortest representation that round-trips.
                out.push_str(&n.to_string());
            } else {
                // JSON has no NaN/Inf; `null` decodes back to NaN.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

fn write_value_pretty(out: &mut String, v: &Value, indent: usize) {
    const PAD: &str = "  ";
    match v {
        Value::Arr(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                out.push_str(&PAD.repeat(indent + 1));
                write_value_pretty(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&PAD.repeat(indent));
            out.push(']');
        }
        Value::Obj(fields) if !fields.is_empty() => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                out.push_str(&PAD.repeat(indent + 1));
                write_escaped(out, k);
                out.push_str(": ");
                write_value_pretty(out, val, indent + 1);
            }
            out.push('\n');
            out.push_str(&PAD.repeat(indent));
            out.push('}');
        }
        other => write_value(out, other),
    }
}

/// Serializes with 2-space indentation and a trailing newline — the format
/// for committed artifacts (`BENCH_*.json`) and `summary.json`, which are
/// meant to be read (and diffed) by humans in review.
pub fn to_vec_pretty<T: ToJson>(value: &T) -> Vec<u8> {
    let mut out = String::new();
    write_value_pretty(&mut out, &value.to_json(), 0);
    out.push('\n');
    out.into_bytes()
}

// --------------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, kw: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| JsonError("bad \\u escape".into()))?;
                            self.pos += 4;
                            // Surrogate pairs never occur in our own output;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return err("unknown escape"),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at `b`.
                    let start = self.pos - 1;
                    let len = match b {
                        _ if b < 0x80 => 1,
                        _ if b >> 5 == 0b110 => 2,
                        _ if b >> 4 == 0b1110 => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| JsonError("truncated utf-8".into()))?;
                    let text = std::str::from_utf8(chunk)
                        .map_err(|_| JsonError("invalid utf-8".into()))?;
                    s.push_str(text);
                    self.pos = start + len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError("invalid number".into()))?;
        if let Ok(i) = text.parse::<i128>() {
            return Ok(Value::Int(i));
        }
        match text.parse::<f64>() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => err(format!("invalid number `{text}`")),
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Value::Null),
            Some(b't') => self.eat_keyword("true", Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return err(format!("bad array at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.parse_value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return err(format!("bad object at byte {}", self.pos)),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => err(format!("unexpected byte at {}", self.pos)),
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed).
pub fn parse(bytes: &[u8]) -> Result<Value, JsonError> {
    let mut p = Parser { bytes, pos: 0 };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

// --------------------------------------------------------------------------
// Streamed line framing
// --------------------------------------------------------------------------

/// Accumulates bytes from a non-blocking stream and yields complete
/// newline-terminated frames — the framing layer of the line-delimited JSON
/// wire protocol the serve front-ends speak.
///
/// A socket read may end mid-line; [`push`](Self::push) buffers whatever
/// arrived and [`next_line`](Self::next_line) returns each completed line
/// (without its terminator, with a trailing `\r` stripped so `CRLF` clients
/// work) as soon as its `\n` shows up. Bytes after the last newline stay
/// buffered for the next read.
///
/// ```
/// use ditto_core::jsonio::LineFramer;
///
/// let mut f = LineFramer::new();
/// f.push(b"{\"id\":1}\n{\"id\"");
/// assert_eq!(f.next_line(), Some("{\"id\":1}".to_string()));
/// assert_eq!(f.next_line(), None);
/// f.push(b":2}\r\n");
/// assert_eq!(f.next_line(), Some("{\"id\":2}".to_string()));
/// ```
#[derive(Debug, Default)]
pub struct LineFramer {
    buf: Vec<u8>,
    /// Start of the first unconsumed byte in `buf`.
    start: usize,
    /// `buf[start..scanned]` is known to hold no `\n`: an incremental
    /// scan cursor, so a reactor polling [`next_line`](Self::next_line)
    /// after every socket read pays O(new bytes) per call instead of
    /// rescanning a long partial line from its beginning (quadratic on a
    /// multi-megabyte request).
    scanned: usize,
}

impl LineFramer {
    /// An empty framer.
    pub fn new() -> Self {
        LineFramer::default()
    }

    /// Appends freshly read bytes to the frame buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        // Reclaim consumed space before growing (keeps long-lived
        // connections from accumulating dead prefix bytes).
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
            self.scanned = 0;
        } else if self.start > 4096 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete line, if one is buffered. Invalid UTF-8 is
    /// replaced rather than erroring (the JSON parser downstream rejects
    /// such lines with a proper error response).
    pub fn next_line(&mut self) -> Option<String> {
        let Some(rel) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') else {
            self.scanned = self.buf.len();
            return None;
        };
        let nl = self.scanned + rel;
        let mut line = &self.buf[self.start..nl];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        let text = String::from_utf8_lossy(line).into_owned();
        self.start = nl + 1;
        self.scanned = self.start;
        Some(text)
    }

    /// Bytes buffered but not yet consumed as complete lines (callers use
    /// this to enforce a maximum line length on untrusted peers).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether a complete (newline-terminated) line is currently buffered
    /// — i.e. whether [`next_line`](Self::next_line) would return `Some`
    /// without consuming anything. Skips the already-scanned prefix, so
    /// this stays cheap on a stalled partial line too.
    pub fn has_line(&self) -> bool {
        self.buf[self.scanned..].contains(&b'\n')
    }
}

// --------------------------------------------------------------------------
// Encode / decode traits
// --------------------------------------------------------------------------

/// Types encodable to a JSON [`Value`].
pub trait ToJson {
    /// Encodes `self`.
    fn to_json(&self) -> Value;
}

/// Types decodable from a JSON [`Value`].
pub trait FromJson: Sized {
    /// Decodes a value of `Self`.
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

/// Serializes to bytes (compact, no trailing newline).
pub fn to_vec<T: ToJson>(value: &T) -> Vec<u8> {
    let mut out = String::new();
    write_value(&mut out, &value.to_json());
    out.into_bytes()
}

/// Deserializes from bytes.
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> Result<T, JsonError> {
    T::from_json(&parse(bytes)?)
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Int(*self as i128)
            }
        }

        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| JsonError(format!("{i} out of range for {}", stringify!($t)))),
                    _ => err(concat!("expected ", stringify!($t))),
                }
            }
        }
    )*};
}

impl_json_int!(u64, usize, i64);

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => err("expected bool"),
        }
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Num(n) => Ok(*n),
            // Integral f64s print without a fractional part and parse back
            // as Int; i128 → f64 is exact for every value we emit.
            Value::Int(i) => Ok(*i as f64),
            // JSON has no NaN/Inf; the writer emits `null` for them.
            Value::Null => Ok(f64::NAN),
            _ => err("expected number"),
        }
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Value {
        Value::Num(*self as f64)
    }
}

impl FromJson for f32 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Num(n) => Ok(*n as f32),
            Value::Int(i) => Ok(*i as f32),
            Value::Null => Ok(f32::NAN),
            _ => err("expected number"),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => err("expected string"),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_json).collect(),
            _ => err("expected array"),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_floats_become_null_then_nan() {
        let v = vec![f32::NAN, 0.999_7];
        assert!(to_vec(&v).starts_with(b"[null,"));
        let back: Vec<f32> = from_slice(&to_vec(&v)).unwrap();
        assert!(back[0].is_nan());
        assert_eq!(back[1], v[1]);
        // Finite floats come back bit for bit, the tiny ones included.
        let rows = vec![vec![-1.0f32, 0.0, 0.31, 21.88], vec![f32::MIN_POSITIVE, 4.83e-12]];
        assert_eq!(from_slice::<Vec<Vec<f32>>>(&to_vec(&rows)).unwrap(), rows);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse(b"{").is_err());
        assert!(parse(b"[1, 2,]").is_err());
        assert!(parse(b"nulls").is_err());
        assert!(parse(b"\"unterminated").is_err());
        assert!(from_slice::<Vec<u64>>(b"{\"model\": 3}").is_err());
        assert!(from_slice::<String>(b"3").is_err());
    }

    #[test]
    fn signed_ints_roundtrip() {
        for v in [0i64, -1, 42, i64::MIN, i64::MAX] {
            let bytes = to_vec(&v);
            let back: i64 = from_slice(&bytes).unwrap();
            assert_eq!(back, v);
        }
        assert!(from_slice::<i64>(b"170141183460469231731687303715884105727").is_err());
        assert!(from_slice::<u64>(b"-3").is_err());
        // Unsigned values past 2^53 stay exact, and `None` is `null`.
        for v in [Some(1u64 << 60), Some((1 << 53) + 1), Some(u64::MAX), None] {
            assert_eq!(from_slice::<Option<u64>>(&to_vec(&v)).unwrap(), v);
        }
        assert_eq!(to_vec(&None::<u64>), b"null");
    }

    #[test]
    fn line_framer_handles_partial_reads() {
        let mut f = LineFramer::new();
        f.push(b"abc");
        assert_eq!(f.next_line(), None);
        assert_eq!(f.buffered(), 3);
        f.push(b"\ndef\r\ngh");
        assert_eq!(f.next_line(), Some("abc".into()));
        assert_eq!(f.next_line(), Some("def".into()));
        assert_eq!(f.next_line(), None);
        assert_eq!(f.buffered(), 2);
        // One byte at a time still frames correctly.
        for &b in b"i\n" {
            f.push(&[b]);
        }
        assert_eq!(f.next_line(), Some("ghi".into()));
        assert_eq!(f.buffered(), 0);
        // Empty lines are yielded (the server skips blank requests itself).
        f.push(b"\n\nx\n");
        assert_eq!(f.next_line(), Some(String::new()));
        assert_eq!(f.next_line(), Some(String::new()));
        assert_eq!(f.next_line(), Some("x".into()));
        assert_eq!(f.next_line(), None);
    }

    #[test]
    fn line_framer_reclaims_consumed_space() {
        let mut f = LineFramer::new();
        for i in 0..2000 {
            f.push(format!("line-{i}\n").as_bytes());
            assert_eq!(f.next_line(), Some(format!("line-{i}")));
        }
        assert_eq!(f.buffered(), 0);
        f.push(b"tail");
        assert_eq!(f.buffered(), 4);
        assert_eq!(f.next_line(), None);
        f.push(b"\n");
        assert_eq!(f.next_line(), Some("tail".into()));
    }

    #[test]
    fn line_framer_scan_cursor_survives_compaction_and_has_line() {
        // A long partial line polled between every push: each next_line
        // miss advances the scan cursor, and the newline is still found
        // when it finally arrives (cursor never skips past unscanned
        // bytes, including across the start>4096 drain compaction).
        let mut f = LineFramer::new();
        f.push(format!("{}\n", "a".repeat(8192)).as_bytes());
        assert_eq!(f.next_line(), Some("a".repeat(8192)));
        assert!(!f.has_line());
        for _ in 0..64 {
            f.push(&[b'b'; 1024]);
            assert!(!f.has_line());
            assert_eq!(f.next_line(), None);
        }
        f.push(b"\rtail"); // CR without LF is ordinary payload so far
        assert_eq!(f.next_line(), None);
        f.push(b"\nrest\n");
        assert!(f.has_line());
        let long = f.next_line().expect("completed long line");
        assert_eq!(long.len(), 64 * 1024 + 5); // CR stripped only before LF
        assert!(long.ends_with("tail"));
        assert_eq!(f.next_line(), Some("rest".into()));
        assert_eq!(f.buffered(), 0);
    }

    #[test]
    fn pretty_printer_roundtrips_and_indents() {
        let v = Value::Obj(vec![
            ("a".to_string(), Value::Int(1)),
            ("b".to_string(), Value::Arr(vec![Value::Str("x".into()), Value::Null])),
            ("c".to_string(), Value::Obj(vec![])),
        ]);
        let pretty = String::from_utf8(to_vec_pretty(&v)).unwrap();
        assert!(pretty.ends_with('\n'));
        assert!(pretty.contains("\n  \"a\": 1"), "two-space indentation: {pretty}");
        assert!(pretty.contains("\"c\": {}"), "empty containers stay compact: {pretty}");
        assert_eq!(parse(pretty.trim_end().as_bytes()).unwrap(), v);
    }

    #[test]
    fn parser_accepts_whitespace_and_escapes() {
        let v = parse(b" { \"a\" : [ 1 , -2.5e3 , \"x\\u0041\\n\" ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Value::Arr(vec![Value::Int(1), Value::Num(-2500.0), Value::Str("xA\n".into()),])
        );
        let name = "conv \"quoted\"\nname".to_string();
        assert_eq!(to_vec(&name), br#""conv \"quoted\"\nname""#);
        assert_eq!(from_slice::<String>(&to_vec(&name)).unwrap(), name);
    }
}
