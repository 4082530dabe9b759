//! Hand-rolled JSON emitter and parser.
//!
//! The workspace's dependency policy rules out serde, so run reports are
//! rendered through this minimal tree model. Object fields keep insertion
//! order (stable schemas, diffable artifacts). Non-finite floats render
//! as `null`; floats otherwise use Rust's shortest round-trip form.
//!
//! Reading has one grammar, the pull [`Reader`]: it walks a text value by
//! value, hands out object keys borrowed from the text, and decodes
//! integers as it scans them, so a hot reader (the trial-journal decoder
//! in `microsampler-bench`) can fill its own types without building a
//! tree. [`parse`] is the reader filling a [`Value`], for round-trip tests
//! and for code that reads the repo's own reports. Both cap nesting at 128
//! levels, so untrusted input cannot overflow the stack. A hot writer can
//! likewise append straight to a `String`, escaping strings with
//! [`write_str`].

use std::borrow::Cow;
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
            Value::Int(i) => write_i64(out, *i),
            Value::UInt(u) => write_u64(out, *u),
            Value::Float(f) => {
                if f.is_finite() {
                    // `{:?}` is Rust's shortest round-trip float form and
                    // always keeps a decimal point or exponent.
                    let _ = fmt::Write::write_fmt(out, format_args!("{f:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_str(out, s),
            Value::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, depth| {
                    items[i].write(out, indent, depth)
                })
            }
            Value::Object(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i, depth| {
                    let (k, v) = &fields[i];
                    write_str(out, k);
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

/// Appends `s` to `out` as a JSON string literal: quoted, with `"`, `\`
/// and control characters escaped, exactly as [`Value`] renders strings.
///
/// ```
/// use microsampler_obs::json::{self, Value};
/// let mut out = String::from("id=");
/// json::write_str(&mut out, "a\"b\\c\n\u{1}é");
/// assert_eq!(out, r#"id="a\"b\\c\n\u0001é""#);
/// assert_eq!(&out[3..], Value::from("a\"b\\c\n\u{1}é").render_compact());
/// ```
pub fn write_str(out: &mut String, s: &str) {
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

/// Two-digit decimal strings `00` to `99`, back to back.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `v` to `out` in decimal, as `Display` writes it and [`Value`]
/// renders it, two digits per division.
///
/// ```
/// use microsampler_obs::json;
/// let mut out = String::from("n=");
/// json::write_u64(&mut out, 18446744073709551615);
/// assert_eq!(out, "n=18446744073709551615");
/// ```
pub fn write_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    // Only ASCII digits were written, so this cannot fail.
    if let Ok(digits) = std::str::from_utf8(&buf[at..]) {
        out.push_str(digits);
    }
}

/// Appends `v` to `out` in decimal, as `Display` writes it: a sign, then
/// [`write_u64`] of its magnitude.
pub fn write_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    write_u64(out, v.unsigned_abs());
}

/// Error from [`parse`] and [`Reader`].
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

/// Deepest array/object nesting [`parse`] and [`Reader`] accept. Reading
/// recurses once per level, and a stack overflow aborts the process (it
/// cannot be caught), so a document from an untrusted client or file must
/// not choose the depth. The deepest document this workspace writes (the
/// lint SARIF report) nests 9 levels.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document (object field order is preserved).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, trailing garbage, or arrays
/// and objects nested more than 128 levels deep.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut r = Reader::new(text);
    let v = r.read_value()?;
    r.finish()?;
    Ok(v)
}

/// Pull reader over one JSON text: the caller walks the document value by
/// value and decodes it straight into its own types, with no [`Value`]
/// tree in between. [`parse`] is this reader filling a [`Value`], so both
/// accept exactly the same grammar and report the same errors.
///
/// Objects and arrays are walked with [`begin_object`](Reader::begin_object)
/// / [`next_key`](Reader::next_key) and
/// [`begin_array`](Reader::begin_array) /
/// [`next_element`](Reader::next_element); after a key, or an element
/// announced by `next_element`, the caller reads or skips exactly one
/// value. Keys are borrowed from the text unless they hold an escape, and
/// integers are decoded as they are scanned. The 128-level nesting cap
/// holds however the document is walked.
///
/// ```
/// use microsampler_obs::json::Reader;
/// let mut r = Reader::new(r#"{"n": 7, "skip": [1, {"x": null}], "s": "hi"}"#);
/// let (mut n, mut s) = (None, None);
/// r.begin_object()?;
/// while let Some(key) = r.next_key()? {
///     match key.as_ref() {
///         "n" => n = r.read_u64()?,
///         "s" => s = r.read_str()?,
///         _ => r.skip_value()?,
///     }
/// }
/// r.finish()?;
/// assert_eq!((n, s.as_deref()), (Some(7), Some("hi")));
/// # Ok::<(), microsampler_obs::json::ParseError>(())
/// ```
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// Just past an opening bracket: the next item takes no comma.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0, depth: 0, first: false }
    }

    fn err(&self, message: &str) -> ParseError {
        ParseError { offset: self.pos, message: message.to_owned() }
    }

    #[inline]
    fn at(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips whitespace. Only the first test is inlined: compact text, as
    /// journals are, has none.
    #[inline]
    fn skip_ws(&mut self) {
        if matches!(self.at(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.skip_ws_run();
        }
    }

    fn skip_ws_run(&mut self) {
        while matches!(self.at(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.at() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(b))
        }
    }

    #[cold]
    fn expected(&self, b: u8) -> ParseError {
        self.err(&format!("expected `{}`", b as char))
    }

    /// The first byte of the next value (whitespace skipped, nothing
    /// consumed), or `None` at the end of the text.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.at()
    }

    /// Requires the end of the text, whitespace aside.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] when anything else follows.
    pub fn finish(mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(())
    }

    /// Opens an array or object, one level deeper.
    fn open(&mut self, bracket: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.at() == Some(bracket) && self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Consumes a closing bracket: the enclosing array or object, if any,
    /// has now read one item.
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
        self.first = false;
    }

    /// Consumes the separator before the next item of the open array or
    /// object: `Ok(true)` when an item follows, `Ok(false)` after the
    /// closing bracket.
    #[inline]
    fn next_item(&mut self, close: u8, message: &str) -> Result<bool, ParseError> {
        self.skip_ws();
        match self.at() {
            Some(b) if b == close => {
                self.close();
                return Ok(false);
            }
            Some(b',') if !self.first => {
                self.pos += 1;
                self.skip_ws();
            }
            _ if self.first => {}
            _ => return Err(self.err(message)),
        }
        self.first = false;
        Ok(true)
    }

    /// Opens an object; walk it with [`Reader::next_key`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] when the next value is not an object or
    /// would nest deeper than 128 levels.
    pub fn begin_object(&mut self) -> Result<(), ParseError> {
        self.open(b'{')
    }

    /// The next key of the open object, with the reader left at its
    /// value; `None` once the object is closed. The key borrows from the
    /// text unless it holds an escape.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on a malformed separator or key.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.next_item(b'}', "expected `,` or `}`")? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Opens an array; walk it with [`Reader::next_element`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] when the next value is not an array or
    /// would nest deeper than 128 levels.
    pub fn begin_array(&mut self) -> Result<(), ParseError> {
        self.open(b'[')
    }

    /// Whether the open array has another element; the caller then reads
    /// or skips it. `false` once the array is closed.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on a malformed separator.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, ParseError> {
        self.next_item(b']', "expected `,` or `]`")
    }

    /// The next value as [`Value::as_str`] sees it: its contents if it is
    /// a string, else `None` with the value skipped.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] when the value is malformed.
    pub fn read_str(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if self.peek() == Some(b'"') {
            return self.string().map(Some);
        }
        self.skip_value().map(|()| None)
    }

    /// The next value as [`Value::as_u64`] sees it: its value if it is a
    /// non-negative integer of at most `u64::MAX`, else `None` with the
    /// value skipped.
    ///
    /// ```
    /// use microsampler_obs::json::Reader;
    /// let mut r = Reader::new(r#"[18446744073709551615, -1, 1.5, 18446744073709551616, "7"]"#);
    /// let mut read = Vec::new();
    /// r.begin_array()?;
    /// while r.next_element()? {
    ///     read.push(r.read_u64()?);
    /// }
    /// r.finish()?;
    /// assert_eq!(read, [Some(u64::MAX), None, None, None, None]);
    /// # Ok::<(), microsampler_obs::json::ParseError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] when the value is malformed.
    #[inline]
    pub fn read_u64(&mut self) -> Result<Option<u64>, ParseError> {
        match self.peek() {
            Some(b'0'..=b'9') => {
                // Decode the digits as they are scanned: an integer while it
                // fits in a u64, and a float (so not a u64) once it does not.
                let start = self.pos;
                let (v, len) = leading_u64(&self.text.as_bytes()[start..]);
                self.pos += len;
                if matches!(self.at(), Some(b'.' | b'e' | b'E')) {
                    // A fraction or exponent: a float whatever its value.
                    self.pos = start;
                    return self.number().map(|_| None);
                }
                Ok(v)
            }
            Some(b'-') => self.number().map(|v| v.as_u64()),
            _ => self.skip_value().map(|()| None),
        }
    }

    /// Skips the next value, checking it as strictly as [`parse`] does.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] when the value is malformed.
    pub fn skip_value(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let (text, _) = self.number_token();
                if number_is_valid(text) {
                    Ok(())
                } else {
                    Err(self.err("invalid number"))
                }
            }
            _ => self.read_value().map(drop),
        }
    }

    /// Reads the next value into a [`Value`] tree.
    fn read_value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.read_value()?);
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut fields = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.read_value()?;
                    fields.push((key.into_owned(), value));
                }
                Ok(Value::Object(fields))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// A string, borrowed from the text when it holds no escape.
    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        let rest = &self.text.as_bytes()[start..];
        match quote_or_backslash(rest) {
            Some(len) if rest[len] == b'"' => {
                self.pos += len + 1;
                // Both ends are ASCII quotes, so they are char boundaries.
                Ok(Cow::Borrowed(&self.text[start..start + len]))
            }
            _ => self.escaped_string().map(Cow::Owned),
        }
    }

    /// The rest of a string that holds an escape (or is unterminated),
    /// decoded from just past its opening quote.
    fn escaped_string(&mut self) -> Result<String, ParseError> {
        let mut out = String::new();
        loop {
            match self.at() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.at() {
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
                                if self.at() == Some(b'\\') {
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
                    // Both delimiters are ASCII, so the run ends on a char
                    // boundary.
                    let rest = &self.text.as_bytes()[self.pos..];
                    let len = quote_or_backslash(rest).unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + len]);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        let end = self.pos + 4;
        let digits = self.text.get(self.pos..end).ok_or_else(|| {
            if end > self.text.len() {
                self.err("truncated \\u escape")
            } else {
                self.err("invalid \\u escape")
            }
        })?;
        // Exactly four hex digits: `u16::from_str_radix` would also take a
        // leading `+`.
        let v = digits
            .bytes()
            .try_fold(0u16, |v, b| Some(v << 4 | (b as char).to_digit(16)? as u16))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    /// Scans one number token: its text, and whether it has a fraction or
    /// an exponent.
    fn number_token(&mut self) -> (&'a str, bool) {
        let start = self.pos;
        let digits = |r: &mut Self| {
            while matches!(r.at(), Some(c) if c.is_ascii_digit()) {
                r.pos += 1;
            }
        };
        if self.at() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        let mut is_float = false;
        if self.at() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            digits(self);
        }
        if matches!(self.at(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.at(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        (&self.text[start..self.pos], is_float)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let (text, is_float) = self.number_token();
        self.number_value(text, is_float)
    }

    /// The value of a scanned number token: an integer when it has no
    /// fraction or exponent and fits, else a float.
    fn number_value(&self, text: &str, is_float: bool) -> Result<Value, ParseError> {
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

/// The eight bytes of `bytes` from `at` as one word, the first in the
/// lowest byte, or `None` when fewer than eight are left.
#[inline]
fn word_at(bytes: &[u8], at: usize) -> Option<u64> {
    bytes.get(at..at + 8).and_then(|w| w.try_into().ok()).map(u64::from_le_bytes)
}

/// The offset of the first `"` or `\` in `bytes`, searched eight bytes
/// at a time: a byte equal to the one sought is a zero byte of the word
/// xored with it, and the lowest zero byte flagged is always a true one.
#[inline]
fn quote_or_backslash(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let zero_bytes = |v: u64| v.wrapping_sub(ONES) & !v & HIGH;
    let mut at = 0;
    while let Some(word) = word_at(bytes, at) {
        let found = zero_bytes(word ^ (ONES * u64::from(b'"')))
            | zero_bytes(word ^ (ONES * u64::from(b'\\')));
        if found != 0 {
            return Some(at + found.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    bytes[at..].iter().position(|&b| b == b'"' || b == b'\\').map(|p| at + p)
}

/// The ASCII digits that `bytes` starts with: their value, `None` past
/// `u64::MAX` (as `str::parse::<u64>` gives it), and how many there are.
/// Digits are taken eight at a time while eight follow, for the first 16;
/// no 19 digits can overflow, so only the 20th and later are checked.
#[inline]
fn leading_u64(bytes: &[u8]) -> (Option<u64>, usize) {
    let mut v = 0u64;
    let mut len = 0;
    while len < 16 {
        match word_at(bytes, len) {
            Some(word) if eight_digits(word) => v = v * 100_000_000 + eight_digit_value(word),
            _ => break,
        }
        len += 8;
    }
    while len < 19 {
        match bytes.get(len) {
            Some(&d @ b'0'..=b'9') => v = v * 10 + u64::from(d - b'0'),
            _ => return (Some(v), len),
        }
        len += 1;
    }
    let mut v = Some(v);
    while let Some(&d @ b'0'..=b'9') = bytes.get(len) {
        v = v.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d - b'0')));
        len += 1;
    }
    (v, len)
}

/// Whether all eight bytes of `word` (first byte lowest) are ASCII digits:
/// each has high nibble 3, and still does with 6 added (`0x3a`-`0x3f`
/// carry into the high nibble; no byte carries into the next).
#[inline]
fn eight_digits(word: u64) -> bool {
    const HIGH: u64 = 0xf0f0_f0f0_f0f0_f0f0;
    const THREES: u64 = 0x3030_3030_3030_3030;
    word & HIGH == THREES && word.wrapping_add(0x0606_0606_0606_0606) & HIGH == THREES
}

/// The value of eight ASCII digits, the first in the lowest byte: pairs,
/// then quads, then the whole, each step one multiply.
#[inline]
fn eight_digit_value(word: u64) -> u64 {
    let d = word - 0x3030_3030_3030_3030;
    // Each even byte: ten times its digit plus the next one.
    let pairs = d.wrapping_mul(10).wrapping_add(d >> 8);
    let (lo, hi) = (pairs & 0x0000_00ff_0000_00ff, (pairs >> 16) & 0x0000_00ff_0000_00ff);
    lo.wrapping_mul(100 + (1_000_000 << 32)).wrapping_add(hi.wrapping_mul(1 + (10_000 << 32))) >> 32
}

/// Whether a token scanned by [`Reader::number_token`] is a number
/// [`Reader::read_value`] accepts, decided without converting it: the
/// mantissa needs a digit (before or after the point), and an exponent
/// needs a digit after its sign. That is what the integer and `f64`
/// parsers behind [`Reader::number_value`] accept of such a token.
fn number_is_valid(text: &str) -> bool {
    let (mantissa, exponent) = match text.find(['e', 'E']) {
        Some(at) => (&text[..at], Some(&text[at + 1..])),
        None => (text, None),
    };
    let has_digit = |s: &str| s.bytes().any(|b| b.is_ascii_digit());
    has_digit(mantissa) && exponent.is_none_or(has_digit)
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

    #[test]
    fn reader_typed_reads_agree_with_the_tree() {
        let texts = [
            "0",
            "7",
            "007",
            "-0",
            "-7",
            "9223372036854775807",
            "9223372036854775808",
            "18446744073709551615",
            "18446744073709551616",
            "123456789012345678901234567890",
            "1.0",
            "1.",
            "-.5",
            "1e3",
            "1E+2",
            "2e",
            "-",
            "\"x\"",
            "\"\\u0041\"",
            "\"\\q\"",
            "null",
            "true",
            "[1,{\"a\":[]}]",
            "{\"a\":1,}",
            "[",
            "nul",
            " 5 ",
        ];
        for text in texts {
            let tree = parse(text);
            let (mut a, mut b, mut c) = (Reader::new(text), Reader::new(text), Reader::new(text));
            let typed = a.read_u64().and_then(|n| a.finish().map(|()| n));
            assert_eq!(typed.ok(), tree.as_ref().ok().map(Value::as_u64), "read_u64 of {text:?}");
            let typed = b.read_str().and_then(|s| b.finish().map(|()| s));
            let want = tree.as_ref().ok().map(|v| v.as_str().map(str::to_owned));
            assert_eq!(typed.ok().map(|s| s.map(Cow::into_owned)), want, "read_str of {text:?}");
            let skipped = c.skip_value().and_then(|()| c.finish());
            assert_eq!(skipped.err(), tree.err(), "skip_value of {text:?}");
        }
    }

    #[test]
    fn reader_borrows_keys_without_escapes() {
        let mut r = Reader::new(r#"{"plain":1,"esc\u0061ped":2}"#);
        r.begin_object().unwrap();
        assert!(matches!(r.next_key().unwrap(), Some(Cow::Borrowed("plain"))));
        assert_eq!(r.read_u64().unwrap(), Some(1));
        assert!(matches!(r.next_key().unwrap(), Some(Cow::Owned(k)) if k == "escaped"));
        r.skip_value().unwrap();
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn reader_walks_nested_and_empty_values_by_hand() {
        let mut r = Reader::new(r#" [ [], {}, [1, [2]], {"k": {"j": [3]}, "n": null} ] "#);
        r.begin_array().unwrap();
        assert!(r.next_element().unwrap());
        r.begin_array().unwrap();
        assert!(!r.next_element().unwrap(), "empty array");
        assert!(r.next_element().unwrap());
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap(), None, "empty object");
        assert!(r.next_element().unwrap());
        r.begin_array().unwrap();
        assert!(r.next_element().unwrap());
        assert_eq!(r.read_u64().unwrap(), Some(1));
        assert!(r.next_element().unwrap());
        r.begin_array().unwrap();
        assert!(r.next_element().unwrap());
        assert_eq!(r.read_u64().unwrap(), Some(2));
        assert!(!r.next_element().unwrap());
        assert!(!r.next_element().unwrap());
        assert!(r.next_element().unwrap());
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("k"));
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("j"));
        r.skip_value().unwrap();
        assert_eq!(r.next_key().unwrap(), None);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("n"));
        assert_eq!(r.read_str().unwrap(), None, "null is not a string");
        assert_eq!(r.next_key().unwrap(), None);
        assert!(!r.next_element().unwrap());
        r.finish().unwrap();
        // Closing a value gives its level back: siblings may each nest to
        // the cap.
        let deep = nested(MAX_DEPTH - 1, true);
        assert!(parse(&format!("[{deep},{deep}]")).is_ok());
    }

    #[test]
    fn misplaced_separators_are_reported_at_their_byte_offset() {
        let cases = [
            ("", 0, "unexpected end of input"),
            ("[1", 2, "expected `,` or `]`"),
            ("[1 2]", 3, "expected `,` or `]`"),
            ("[,1]", 1, "unexpected character"),
            ("[1,,2]", 3, "unexpected character"),
            ("[1,]", 3, "unexpected character"),
            ("{\"a\":1 \"b\":2}", 7, "expected `,` or `}`"),
            ("{\"a\" 1}", 5, "expected `:`"),
            ("{1:2}", 1, "expected `\"`"),
            ("{\"a\":1,}", 7, "expected `\"`"),
            ("1 2", 2, "trailing characters"),
            ("nulL", 0, "expected `null`"),
        ];
        for (text, offset, message) in cases {
            let e = parse(text).unwrap_err();
            assert_eq!((e.offset, e.message.as_str()), (offset, message), "{text:?}");
        }
    }

    #[test]
    fn begin_object_and_begin_array_want_their_own_bracket() {
        let e = Reader::new("[1]").begin_object().unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (0, "expected `{`"));
        let e = Reader::new("  {}").begin_array().unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (2, "expected `[`"));
        let e = Reader::new("").begin_object().unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (0, "expected `{`"));
    }

    #[test]
    fn write_str_escapes_every_control_character_and_round_trips() {
        let chars: Vec<char> =
            (0u8..0x80).map(char::from).chain(['é', '日', '🦀', '\u{2028}']).collect();
        let all: String = chars.iter().collect();
        for s in chars.iter().map(|c| c.to_string()).chain([all]) {
            let mut out = String::new();
            write_str(&mut out, &s);
            assert!(!out.bytes().any(|b| b < 0x20), "raw control byte in {out:?}");
            assert_eq!(parse(&out).unwrap().as_str(), Some(s.as_str()), "{out}");
        }
    }

    #[test]
    fn unicode_escape_edge_cases() {
        // Upper-case hex digits, NUL, and an upper-case surrogate pair.
        assert_eq!(parse(r#""\u00E9\u0000""#).unwrap(), Value::Str("é\0".into()));
        assert_eq!(parse(r#""\uD83E\uDD80""#).unwrap(), Value::Str("🦀".into()));
        let cases = [
            // A low surrogate with no high one before it.
            (r#""\udc00""#, "invalid \\u escape"),
            (r#""\u00e""#, "invalid \\u escape"),
            (r#""\u00"#, "truncated \\u escape"),
            // The four bytes after `\u` end inside a multi-byte character.
            (r#""\u000é""#, "invalid \\u escape"),
            (r#""\ud83e\x""#, "expected `u`"),
        ];
        for (text, message) in cases {
            assert_eq!(parse(text).unwrap_err().message, message, "{text}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        // A sign is not a hex digit, although `from_str_radix` takes one;
        // the error is at the escape's digits, byte 3.
        for text in [r#""\u+041""#, r#""\u-041""#] {
            let e = parse(text).unwrap_err();
            assert_eq!((e.offset, e.message.as_str()), (3, "invalid \\u escape"), "{text}");
            let e = Reader::new(text).skip_value().unwrap_err();
            assert_eq!((e.offset, e.message.as_str()), (3, "invalid \\u escape"), "{text}");
        }
        assert_eq!(parse(r#""\u0041\uaBcD""#).unwrap(), Value::Str("A\u{abcd}".into()));
    }

    /// Pieces of number-like tokens: signs, integer parts (beyond `u64`
    /// too), fractions, exponents (up to 30 digits) and what may follow.
    const INTS: [&str; 7] =
        ["", "0", "7", "012", "18446744073709551616", "-", "99999999999999999999999999999999"];
    const FRACS: [&str; 5] = ["", ".", ".5", ".000", ".0123456789"];
    const EXPS: [&str; 9] = [
        "",
        "e",
        "E",
        "e+",
        "e-",
        "e5",
        "E-7",
        "e123456789012345678901234567890",
        "e+000000000000000000000000000001",
    ];
    const AFTER: [&str; 6] = ["", ",", " ", "x", "]", "."];

    /// The outcome of skipping or reading one value of `text`: the result
    /// and where the reader stopped.
    fn skip_and_read(text: &str) -> [(Result<(), ParseError>, usize); 2] {
        let (mut skip, mut read) = (Reader::new(text), Reader::new(text));
        let skipped = skip.skip_value();
        let read_result = read.read_value().map(drop);
        [(skipped, skip.pos), (read_result, read.pos)]
    }

    #[test]
    fn skip_value_takes_the_numbers_read_value_takes() {
        for text in ["-", "1.", "1e", "1e+", "-.5", "-e5", "1.e5", "-0", "1E400"] {
            let [skipped, read] = skip_and_read(text);
            assert_eq!(skipped, read, "{text}");
        }
        assert!(Reader::new("-").skip_value().is_err());
        assert!(Reader::new("1e+").skip_value().is_err());
        assert!(Reader::new("1.").skip_value().is_ok());
        assert!(Reader::new("-.5").skip_value().is_ok());
    }

    proptest::proptest! {
        /// `skip_value` accepts and rejects exactly what `read_value` does
        /// on number-like tokens, with the same error, and stops at the
        /// same byte: tokens assembled from `INTS`, `FRACS`, `EXPS` and
        /// `AFTER`, and strings over the token alphabet.
        #[test]
        fn skip_value_matches_read_value_on_number_tokens(
            parts in (0usize..INTS.len(), 0usize..FRACS.len(), 0usize..EXPS.len(), 0usize..AFTER.len()),
            neg in proptest::prelude::any::<bool>(),
            chars in proptest::collection::vec(0usize..15, 0..12),
        ) {
            let (i, f, e, a) = parts;
            let sign = if neg { "-" } else { "" };
            let token = format!("{sign}{}{}{}{}", INTS[i], FRACS[f], EXPS[e], AFTER[a]);
            let alphabet = b"-0123456789.eE+";
            let free: String = chars.iter().map(|&c| alphabet[c] as char).collect();
            for text in [token, free] {
                let [skipped, read] = skip_and_read(&text);
                proptest::prop_assert_eq!(skipped, read, "{}", text);
            }
        }
    }

    #[test]
    fn peek_and_finish_look_past_whitespace() {
        let mut r = Reader::new(" \t\r\n 5 \n");
        assert_eq!(r.peek(), Some(b'5'));
        assert_eq!(r.peek(), Some(b'5'), "peeking consumes nothing");
        assert_eq!(r.read_u64().unwrap(), Some(5));
        assert_eq!(r.peek(), None);
        r.finish().unwrap();
        let mut r = Reader::new("5 x");
        assert_eq!(r.read_u64().unwrap(), Some(5));
        assert_eq!(r.peek(), Some(b'x'));
        let e = r.finish().unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (2, "trailing characters"));
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
        // Skipping a value is held to the same cap.
        let e = Reader::new(&nested(MAX_DEPTH + 1, true)).skip_value().unwrap_err();
        assert!(e.message.contains("nested deeper"), "{e}");
    }

    /// `read_u64` on `digits` followed by `after`: the value, and the
    /// offset the reader stopped at.
    fn read_u64_at(digits: &str, after: &str) -> (Option<u64>, usize) {
        let text = format!("{digits}{after}");
        let mut r = Reader::new(&text);
        let v = r.read_u64().expect("digits are a valid number");
        (v, r.pos)
    }

    #[test]
    fn read_u64_reads_every_digit_count_up_to_and_past_u64_max() {
        let max = u64::MAX.to_string();
        let cases = [
            "0",
            "9999999999999999999",   // 19 digits: the most that cannot overflow
            "1000000000000000000",   // 19 digits
            "10000000000000000000",  // 20 digits, fits
            "99999999999999999999",  // 20 digits, overflows
            &max,                    // u64::MAX
            "18446744073709551616",  // u64::MAX + 1
            "18446744073709551625",  // overflows in the last add
            "184467440737095516150", // overflows in the multiply
            "0000000000000000000018446744073709551615",
            "0000000000000000000018446744073709551616",
            "12345678",
            "123456789012345678",
        ];
        for digits in cases {
            for after in ["", ",", "]", " ", "x", ":"] {
                assert_eq!(
                    read_u64_at(digits, after),
                    (digits.parse::<u64>().ok(), digits.len()),
                    "{digits:?} then {after:?}"
                );
            }
        }
    }

    #[test]
    fn write_u64_and_write_i64_match_display() {
        let written = |v: u64| {
            let mut out = String::new();
            write_u64(&mut out, v);
            out
        };
        let written_i = |v: i64| {
            let mut out = String::new();
            write_i64(&mut out, v);
            out
        };
        let mut values = vec![0, 1, 9, u64::MAX, u64::MAX - 1, i64::MAX as u64];
        for power in (0..20).map(|e| 10u64.pow(e)) {
            values.extend([power, power - 1, power + 1]);
        }
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Random magnitudes as well as random bits.
            values.push(state >> (state % 64));
        }
        for v in values {
            assert_eq!(written(v), v.to_string());
            assert_eq!(written_i(v as i64), (v as i64).to_string());
            assert_eq!(Value::UInt(v).render_compact(), v.to_string());
        }
        for v in [i64::MIN, i64::MIN + 1, -1, -10, -99, -100, i64::MAX] {
            assert_eq!(written_i(v), v.to_string());
            assert_eq!(Value::Int(v).render_compact(), v.to_string());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        /// `read_u64` against `str::parse::<u64>` on digit strings of 1 to
        /// 25 digits, some with leading zeros and some with a byte after
        /// them: the same value, `None` exactly where `parse` overflows,
        /// and the reader stops after the last digit.
        #[test]
        fn read_u64_matches_str_parse(
            zeros in 0usize..8,
            digits in proptest::collection::vec(0u8..10, 1..26),
            after in 0usize..7,
        ) {
            let mut text: String = "0".repeat(zeros);
            text.extend(digits.iter().map(|&d| char::from(b'0' + d)));
            text.truncate(25);
            // `:` is one past `9`.
            let after = ["", ",", "]", "}", " ", "x", ":"][after];
            proptest::prop_assert_eq!(
                read_u64_at(&text, after),
                (text.parse::<u64>().ok(), text.len()),
                "{:?} then {:?}",
                text,
                after
            );
        }
    }
}
