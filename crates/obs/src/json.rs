//! Hand-rolled JSON emitter and parser.
//!
//! The workspace's dependency policy rules out serde, so run reports are
//! rendered through this minimal tree model. Object fields keep insertion
//! order (stable schemas, diffable artifacts). Non-finite floats render
//! as `null`; floats otherwise use Rust's shortest round-trip form. The
//! parser exists so emitted artifacts can be round-trip-tested and so
//! downstream tooling inside the repo can read its own reports.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer above `i64::MAX` (e.g. 64-bit snapshot hashes).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered fields.
    Object(Vec<(String, Value)>),
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (UInt(a), UInt(b)) => a == b,
            (Int(a), UInt(b)) | (UInt(b), Int(a)) => *a >= 0 && *a as u64 == *b,
            (Float(a), Float(b)) => a == b,
            (Int(a), Float(b)) | (Float(b), Int(a)) => *a as f64 == *b,
            (UInt(a), Float(b)) | (Float(b), UInt(a)) => *a as f64 == *b,
            (Str(a), Str(b)) => a == b,
            (Array(a), Array(b)) => a == b,
            (Object(a), Object(b)) => a == b,
            _ => false,
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        if v <= i64::MAX as u64 {
            Value::Int(v as i64)
        } else {
            Value::UInt(v)
        }
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::from(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::Array(v)
    }
}

impl Value {
    /// Starts an insertion-ordered object.
    pub fn object() -> ObjectBuilder {
        ObjectBuilder(Vec::new())
    }

    /// Builds an array from anything convertible to values.
    pub fn array<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }

    /// Field lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String contents, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean contents, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Unsigned integer contents, if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            Value::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// Numeric contents as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Array contents, if an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation and a trailing newline
    /// (the run-report file format).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{i}"));
            }
            Value::UInt(u) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{u}"));
            }
            Value::Float(f) => {
                if f.is_finite() {
                    // `{:?}` is Rust's shortest round-trip float form and
                    // always keeps a decimal point or exponent.
                    let _ = fmt::Write::write_fmt(out, format_args!("{f:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, depth| {
                    items[i].write(out, indent, depth)
                })
            }
            Value::Object(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i, depth| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth)
                })
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error from [`parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, and a stack overflow aborts the process (it cannot be
/// caught), so a document from an untrusted client or file must not
/// choose the depth. The deepest document this workspace writes (the lint
/// SARIF report) nests 9 levels.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document (object field order is preserved).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, trailing garbage, or arrays
/// and objects nested more than 128 levels deep.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { offset: self.pos, message: message.to_owned() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object with `inner`, one level deeper.
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&first) {
                                // Surrogate pair.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let second = self.hex4()?;
                                    // A high surrogate must be followed by
                                    // a low one.
                                    (0xdc00..0xe000)
                                        .contains(&second)
                                        .then(|| {
                                            0x10000
                                                + (((first - 0xd800) as u32) << 10)
                                                + (second - 0xdc00) as u32
                                        })
                                        .and_then(char::from_u32)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(first as u32)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` at once.
                    // The input is a `&str` and both delimiters are ASCII,
                    // so the run is valid UTF-8 on its own.
                    let rest = &self.bytes[self.pos..];
                    let len =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u16::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>().map(Value::Float).map_err(|_| self.err("invalid number"))
    }
}

/// Builder for insertion-ordered objects.
pub struct ObjectBuilder(Vec<(String, Value)>);

impl ObjectBuilder {
    /// Appends a field.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> ObjectBuilder {
        self.0.push((key.to_owned(), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Value {
        Value::Object(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote\" backslash\\ newline\n tab\t cr\r nul\u{0} bell\u{7} é 日本 🦀";
        let v = Value::object().field("s", nasty).build();
        let text = v.render_compact();
        assert!(text.contains("\\\""));
        assert!(text.contains("\\\\"));
        assert!(text.contains("\\n"));
        assert!(text.contains("\\u0000"));
        let back = parse(&text).unwrap();
        assert_eq!(back.get("s").unwrap().as_str().unwrap(), nasty);
    }

    #[test]
    fn value_round_trips_compact_and_pretty() {
        let v = Value::object()
            .field("null", Value::Null)
            .field("bools", Value::Array(vec![Value::Bool(true), Value::Bool(false)]))
            .field("ints", Value::Array(vec![Value::Int(-3), Value::Int(0), Value::from(7u64)]))
            .field("big_hash", u64::MAX)
            .field("floats", Value::Array(vec![Value::Float(1.0), Value::Float(0.125e-3)]))
            .field("empty_arr", Value::Array(vec![]))
            .field("empty_obj", Value::Object(vec![]))
            .field("nested", Value::object().field("k", "v").build())
            .build();
        for text in [v.render_compact(), v.render_pretty()] {
            assert_eq!(parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn field_order_is_preserved() {
        let v = Value::object().field("zebra", 1u64).field("alpha", 2u64).build();
        let text = v.render_compact();
        assert!(text.find("zebra").unwrap() < text.find("alpha").unwrap());
        match parse(&text).unwrap() {
            Value::Object(fields) => {
                assert_eq!(fields[0].0, "zebra");
                assert_eq!(fields[1].0, "alpha");
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Value::Float(f64::NAN).render_compact(), "null");
        assert_eq!(Value::Float(f64::INFINITY).render_compact(), "null");
    }

    #[test]
    fn big_u64_survives() {
        let h = 0xdead_beef_dead_beefu64;
        let text = Value::from(h).render_compact();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(h));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\q\"", "{\"a\" 1}"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn strings_round_trip_every_escape_and_multibyte_run() {
        // Plain runs of 1-, 2-, 3- and 4-byte characters between escapes,
        // every two-character escape, a \u escape and a surrogate pair.
        let text = r#"["a€😀b\"c\\d\/e\bf\fg\nh\ri\tjék🦀l日本語", "", "\"", "🦀"]"#;
        let expect = "a€😀b\"c\\d/e\u{8}f\u{c}g\nh\ri\tjék🦀l日本語";
        let v = parse(text).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some(expect));
        assert_eq!(items[1].as_str(), Some(""));
        assert_eq!(items[2].as_str(), Some("\""));
        assert_eq!(items[3].as_str(), Some("🦀"));
        assert_eq!(parse(&v.render_compact()).unwrap(), v);
        // A long plain string (the journal case) parses whole.
        let long = "é".repeat(100_000);
        assert_eq!(parse(&format!("\"{long}\"")).unwrap().as_str(), Some(long.as_str()));
        let e = parse("\"abc").unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (4, "unterminated string"));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap(), Value::Str("Aé".into()));
        // Surrogate pair for 🦀 U+1F980.
        assert_eq!(parse(r#""\ud83e\udd80""#).unwrap(), Value::Str("🦀".into()));
        // A high surrogate followed by anything but a low one.
        for bad in [r#""\ud83e\u0041""#, r#""\ud83e\ud83e""#, r#""\ud83e""#] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
    }

    /// `depth` arrays, alternating with objects when `objects` is set,
    /// each holding the next; the innermost holds `0`.
    fn nested(depth: usize, objects: bool) -> String {
        let (mut open, mut close) = (String::new(), String::new());
        for level in 0..depth {
            if objects && level % 2 == 1 {
                open.push_str("{\"k\":");
                close.push('}');
            } else {
                open.push('[');
                close.push(']');
            }
        }
        open + "0" + &close.chars().rev().collect::<String>()
    }

    #[test]
    fn nesting_is_capped_at_128_levels() {
        for objects in [false, true] {
            let v = parse(&nested(MAX_DEPTH, objects)).expect("128 levels parse");
            assert_eq!(parse(&v.render_compact()).unwrap(), v);
            let e = parse(&nested(MAX_DEPTH + 1, objects)).unwrap_err();
            assert!(e.message.contains("nested deeper"), "{e}");
        }
        // Unbalanced and huge: the error comes at the cap, long before the
        // stack of a spawned thread (2 MiB by default) runs out.
        let deep = std::thread::spawn(|| {
            let opens = "[".repeat(1_000_000);
            (parse(&opens).unwrap_err(), parse(&nested(MAX_DEPTH + 1, true)).is_err())
        });
        let (e, objects_too) = deep.join().expect("parsing on a spawned thread returns");
        assert_eq!(e.offset, MAX_DEPTH);
        assert!(objects_too);
    }
}
