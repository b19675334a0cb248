//! The workspace's one JSON codec: a value type, a parser and a writer,
//! with no dependencies.
//!
//! Every JSON document FireMarshal reads goes through this parser: workload
//! specs and the install manifest (built straight into `marshal_config`'s
//! `Value`), journal lines and the Chrome trace export. All but
//! journal lines are written through [`Json::encode`]; the recorder writes
//! those by hand on its hot path, with the same string escaper.
//!
//! The parser accepts RFC 8259 plus two extensions users expect from
//! hand-written configuration files: `//` and `#` line comments, and
//! trailing commas in arrays and objects. It rejects duplicate object keys,
//! raw control characters and lone surrogates in strings, and nesting
//! deeper than [`MAX_DEPTH`]. Errors carry the line and column of the byte
//! where parsing stopped.
//!
//! The parser builds any [`JsonTree`]. [`Json`] is one: objects keep
//! insertion order, so encoding is deterministic (golden-file tests depend
//! on it), and every number is a [`Json::Num`]. A reader that needs exact
//! integers builds its own tree; `marshal_config` parses specs straight
//! into its `Value` this way. A writer emits an exact integer with
//! [`Json::Int`]; a whole [`Json::Num`] is written with a `.0`, so it reads
//! back as a float.

use std::fmt;

/// The deepest nesting of arrays and objects the parser accepts. Deeper
/// input is a parse error rather than a stack overflow.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, written exactly. It parses back as a [`Json::Num`].
    Int(i64),
    /// A number. The parser yields this for every number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A JSON syntax error and where it was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column, in bytes.
    pub column: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}:{}", self.message, self.line, self.column)
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a whole non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    /// The value as an `i64`, if it is a whole number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }

    /// Serializes the value to compact JSON.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(n) if n.fract() == 0.0 => out.push_str(&format!("{n:.1}")),
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document with [`parse_json`].
    ///
    /// # Errors
    ///
    /// The first syntax problem, with its line and column.
    ///
    /// ```rust
    /// use marshal_trace::Json;
    /// let v = Json::parse("{ \"name\": \"bench\", // a comment\n \"jobs\": [1, 2,] }")?;
    /// assert_eq!(v.get("name").and_then(Json::as_str), Some("bench"));
    /// assert_eq!(v.get("jobs"), Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])));
    /// assert!(Json::parse(r#"{"a": 1, "a": 2}"#).is_err());
    /// # Ok::<(), marshal_trace::ParseError>(())
    /// ```
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        parse_json(text)
    }
}

/// A document tree the parser builds, one node at a time, children first.
pub trait JsonTree: Sized {
    /// `null`.
    fn null() -> Self;
    /// `true` / `false`.
    fn bool(b: bool) -> Self;
    /// A number written without fraction or exponent that fits an `i64`.
    fn int(n: i64) -> Self;
    /// Any other number.
    fn float(n: f64) -> Self;
    /// A string.
    fn str(s: String) -> Self;
    /// An array.
    fn arr(items: Vec<Self>) -> Self;
    /// An object's fields in document order; no key repeats.
    fn obj(fields: Vec<(String, Self)>) -> Self;
}

impl JsonTree for Json {
    fn null() -> Self {
        Json::Null
    }
    fn bool(b: bool) -> Self {
        Json::Bool(b)
    }
    fn int(n: i64) -> Self {
        Json::Num(n as f64)
    }
    fn float(n: f64) -> Self {
        Json::Num(n)
    }
    fn str(s: String) -> Self {
        Json::Str(s)
    }
    fn arr(items: Vec<Self>) -> Self {
        Json::Arr(items)
    }
    fn obj(fields: Vec<(String, Self)>) -> Self {
        Json::Obj(fields)
    }
}

/// Parses a complete JSON document into `T`; anything but whitespace and
/// comments after it is an error.
///
/// # Errors
///
/// The first syntax problem, with its line and column. Arrays and objects
/// nested more than 128 deep are an error too.
pub fn parse_json<T: JsonTree>(text: &str) -> Result<T, ParseError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(v)
}

/// Writes a JSON string literal with escaping.
pub(crate) fn write_str(s: &str, out: &mut String) {
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

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    /// An error at the current position. Line and column are counted only
    /// here, so the happy path never tracks them.
    fn error(&self, message: impl Into<String>) -> ParseError {
        let before = &self.text.as_bytes()[..self.pos];
        ParseError {
            line: before.iter().filter(|&&b| b == b'\n').count() + 1,
            column: before.iter().rev().take_while(|&&b| b != b'\n').count() + 1,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let found = self.peek() == Some(b);
        self.pos += usize::from(found);
        found
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    /// Skips whitespace and `//` or `#` line comments.
    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\n' | b'\r') => self.pos += 1,
                Some(b'#') => self.skip_line(),
                Some(b'/') if self.text[self.pos..].starts_with("//") => self.skip_line(),
                _ => return,
            }
        }
    }

    fn skip_line(&mut self) {
        self.pos = self.text[self.pos..]
            .find('\n')
            .map_or(self.text.len(), |i| self.pos + i + 1);
    }

    fn value<T: JsonTree>(&mut self) -> Result<T, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(T::str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'n') => self.literal("null").map(|()| T::null()),
            Some(b't') => self.literal("true").map(|()| T::bool(true)),
            Some(b'f') => self.literal("false").map(|()| T::bool(false)),
            Some(_) => {
                let c = self.text[self.pos..].chars().next().unwrap_or_default();
                Err(self.error(format!("unexpected character `{c}`")))
            }
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    /// Parses the comma-separated items of an array or object, from its
    /// opening bracket through `close`. A trailing comma is allowed.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        loop {
            self.skip_ws();
            if self.eat(close) {
                break;
            }
            item(self)?;
            self.skip_ws();
            if !self.eat(b',') {
                if self.eat(close) {
                    break;
                }
                return Err(self.error(format!("expected `,` or `{}`", close as char)));
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn array<T: JsonTree>(&mut self) -> Result<T, ParseError> {
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(T::arr(items))
    }

    fn object<T: JsonTree>(&mut self) -> Result<T, ParseError> {
        let mut fields: Vec<(String, T)> = Vec::new();
        self.items(b'}', |p| {
            let key = p.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(p.error(format!("duplicate key `{key}`")));
            }
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            fields.push((key, p.value()?));
            Ok(())
        })?;
        Ok(T::obj(fields))
    }

    /// Consumes a run of ASCII digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number<T: JsonTree>(&mut self) -> Result<T, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        let mut ok = self.eat(b'0') || self.digits() > 0;
        if ok && self.eat(b'.') {
            ok = self.digits() > 0;
        }
        if ok && (self.eat(b'e') || self.eat(b'E')) {
            let _ = self.eat(b'+') || self.eat(b'-');
            ok = self.digits() > 0;
        }
        if !ok {
            return Err(self.error("expected a digit"));
        }
        let text = &self.text[start..self.pos];
        // Only a plain integer parses as an `i64`.
        if let Ok(n) = text.parse() {
            return Ok(T::int(n));
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(T::float(n)),
            _ => Err(self.error(format!("number `{text}` out of range"))),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // escape or control byte in one go; those are all ASCII, so
            // the run ends on a character boundary.
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b @ (b'"' | b'\\' | b'/')) => char::from(b),
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => return self.unicode_escape(),
            _ => return Err(self.error("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Decodes a `\u` escape, joining a surrogate pair written as two
    /// escapes; a lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        self.pos += 1;
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        char::from_u32(code).ok_or_else(|| self.error("lone surrogate in \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.error("bad \\u escape"))?;
            self.pos += 1;
            code = code * 16 + digit;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every input with its compact encoding when it parses, or the
    /// `line:column` of its error. Every parsed number is a `Num`, so a
    /// whole one encodes with `.0`.
    #[test]
    fn codec_cases() {
        let cases = [
            // Numbers.
            ("42", Ok("42.0")),
            ("[-7,2.25]", Ok("[-7.0,2.25]")),
            ("1e3", Ok("1000.0")),
            ("-0.5E-1", Ok("-0.05")),
            ("9223372036854775808", Ok("9223372036854775808.0")),
            ("01", Err((1, 2))),
            ("-", Err((1, 2))),
            ("1.", Err((1, 3))),
            ("1e", Err((1, 3))),
            (".5", Err((1, 1))),
            ("-.5", Err((1, 2))),
            ("-e5", Err((1, 2))),
            ("1e999", Err((1, 6))),
            // Literals and documents.
            (" true ", Ok("true")),
            ("false", Ok("false")),
            ("null", Ok("null")),
            ("nul", Err((1, 1))),
            ("", Err((1, 1))),
            ("{} trailing", Err((1, 4))),
            // Strings and escapes.
            (r#""héllo""#, Ok(r#""héllo""#)),
            (r#""a\nb\t\"c\"\r\\\/""#, Ok(r#""a\nb\t\"c\"\r\\/""#)),
            (r#""\b\f\u0001""#, Ok(r#""\u0008\u000c\u0001""#)),
            (r#""\u0041\u00e9""#, Ok(r#""Aé""#)),
            (r#""\ud83d\ude00""#, Ok("\"\u{1f600}\"")),
            (r#""\uD83D\uDE00""#, Ok("\"\u{1f600}\"")),
            ("\"unterminated", Err((1, 14))),
            (r#""\x""#, Err((1, 3))),
            (r#""\u+041""#, Err((1, 4))),
            (r#""\u12""#, Err((1, 6))),
            ("\"tab\there\"", Err((1, 5))),
            ("\"nl\nx\"", Err((1, 4))),
            (r#""\ud83d""#, Err((1, 8))),
            (r#""\ud83d\u0041""#, Err((1, 14))),
            (r#""\ude00""#, Err((1, 8))),
            // Arrays and objects, with comments and trailing commas.
            ("[1, 2,]", Ok("[1.0,2.0]")),
            (
                r#"{"seq":3,"name":"a \"b\"","args":{"k":"v"},"ok":true,"none":null,"xs":[1,-2,3.5]}"#,
                Ok(
                    r#"{"seq":3.0,"name":"a \"b\"","args":{"k":"v"},"ok":true,"none":null,"xs":[1.0,-2.0,3.5]}"#,
                ),
            ),
            (
                r#"{"z": null, "a": {}, "xs": [[]]}"#,
                Ok(r#"{"z":null,"a":{},"xs":[[]]}"#),
            ),
            (
                "{\n  // a comment\n  \"a\": 1, # another\n  \"b\": [true],\n}\n",
                Ok(r#"{"a":1.0,"b":[true]}"#),
            ),
            ("{\"a\":}", Err((1, 6))),
            ("{\n  \"a\": }\n", Err((2, 8))),
            ("[1,2", Err((1, 5))),
            ("[1 2]", Err((1, 4))),
            ("[,]", Err((1, 2))),
            ("{a:1}", Err((1, 2))),
            (r#"{"a":1,"a":2}"#, Err((1, 11))),
        ];
        for (text, want) in cases {
            let got = Json::parse(text);
            match (&got, want) {
                (Ok(v), Ok(encoded)) => {
                    assert_eq!(v.encode(), encoded, "{text}");
                    assert_eq!(Json::parse(encoded).as_ref(), Ok(v), "{encoded}");
                }
                (Err(e), Err(at)) => assert_eq!((e.line, e.column), at, "{text}: {e}"),
                _ => panic!("{text}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.column, MAX_DEPTH + 1, "{err}");
        // Far deeper input is an error, not a stack overflow, even on a
        // small stack.
        let deep = std::thread::Builder::new().stack_size(2 << 20);
        let deep = deep.spawn(|| Json::parse(&"[".repeat(100_000)).is_err());
        assert!(deep.unwrap().join().unwrap());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n":3,"neg":-7,"f":2.5,"s":"x"}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("neg").and_then(Json::as_i64), Some(-7));
        assert_eq!(v.get("f").and_then(Json::as_i64), None);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Int(-7).as_i64(), Some(-7));
    }

    #[test]
    fn ints_are_written_exactly() {
        let v = Json::Arr(vec![Json::Int(i64::MAX), Json::Int(-1), Json::Num(1.0)]);
        assert_eq!(v.encode(), "[9223372036854775807,-1,1.0]");
    }
}
