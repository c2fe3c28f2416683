//! The workspace's one JSON reader: a bounded-depth recursive-descent
//! parser into a [`Value`] tree, typed accessors, the one string
//! [`escape`]r and a compact `Display` emitter. Documents are still
//! written with `format!`; every JSON *read* goes through [`parse`].
//!
//! Reads stay faithful to the wire: objects keep their members in
//! document order (duplicates included; [`Value::get`] answers with the
//! first), and numbers keep their source token, so an echoed `1.50` stays
//! `1.50` and re-emitting a compact document reproduces it byte for byte.
//! Nesting past [`MAX_DEPTH`] is refused, so no input can exhaust the
//! parsing thread's stack. A parsed tree borrows every number, key and
//! escape-free string from the text, so parsing allocates little more
//! than the container vectors.
//!
//! ```
//! use osarch_trace::json::{self, Value};
//!
//! let doc = json::parse(r#"{"id":1.50,"ok":true,"tags":["a\/b"]}"#).unwrap();
//! assert_eq!(doc["id"].as_f64(), Some(1.5));
//! assert_eq!(doc["ok"].as_bool(), Some(true));
//! assert_eq!(doc["tags"].as_array().map(<[Value]>::len), Some(1));
//! assert_eq!(doc.to_string(), r#"{"id":1.50,"ok":true,"tags":["a/b"]}"#);
//! assert!(json::parse(&"[".repeat(json::MAX_DEPTH + 1)).is_err());
//! ```

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts; the workspace's own
/// documents nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// One parsed JSON value, borrowing from the text it was parsed from.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its source token.
    Number(Cow<'a, str>),
    /// A string, escapes decoded.
    String(Cow<'a, str>),
    /// An array.
    Array(Vec<Value<'a>>),
    /// An object's members in document order, duplicates kept.
    Object(Vec<(Cow<'a, str>, Value<'a>)>),
}

/// Why [`parse`] refused a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    /// Byte offset of the first offending byte.
    pub offset: usize,
    /// The document nested deeper than [`MAX_DEPTH`] (rather than
    /// breaking the grammar).
    pub too_deep: bool,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = self.offset;
        if self.too_deep {
            write!(f, "JSON nested deeper than {MAX_DEPTH} levels at byte {at}")
        } else {
            write!(f, "invalid JSON at byte {at}")
        }
    }
}

impl<'a> Value<'a> {
    /// The first member named `key`, if this is an object that has one.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        let members = self.as_object()?;
        members.iter().find(|(name, _)| name == key).map(|(_, v)| v)
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a non-negative integer that fits a `u64`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64` (infinite when the token overflows).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members in document order, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(Cow<'a, str>, Value<'a>)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The JSON type name, for error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

static NULL: Value<'static> = Value::Null;

/// `value["key"]`: [`Value::get`], with `null` for a missing member or a
/// non-object, so lookups chain without checks.
impl<'a> std::ops::Index<&str> for Value<'a> {
    type Output = Value<'a>;

    fn index(&self, key: &str) -> &Value<'a> {
        self.get(key).unwrap_or(&NULL)
    }
}

/// Compact JSON: no whitespace, strings through [`escape`], numbers as
/// their source tokens.
impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(token) => f.write_str(token),
            Value::String(s) => write!(f, "\"{}\"", escape(s)),
            Value::Array(items) => {
                f.write_char('[')?;
                for (index, item) in items.iter().enumerate() {
                    let comma = if index > 0 { "," } else { "" };
                    write!(f, "{comma}{item}")?;
                }
                f.write_char(']')
            }
            Value::Object(members) => {
                f.write_char('{')?;
                for (index, (key, value)) in members.iter().enumerate() {
                    let comma = if index > 0 { "," } else { "" };
                    write!(f, "{comma}\"{}\":{value}", escape(key))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Escape a string for a JSON string literal (quotes not included):
/// `"`, `\` and every C0 control character.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Parse `text` as exactly one JSON value, optionally surrounded by
/// whitespace.
///
/// # Errors
///
/// Returns the offset of the first byte that breaks the grammar, or of
/// the bracket that opens nesting level [`MAX_DEPTH`] + 1.
pub fn parse(text: &str) -> Result<Value<'_>, Error> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    match parser.peek() {
        None => Ok(value),
        Some(_) => Err(parser.fail()),
    }
}

/// The hot loops index `bytes` directly rather than through iterator
/// adaptors: the client parses every reply, and tests run unoptimized.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn fail(&self) -> Error {
        Error {
            offset: self.pos,
            too_deep: false,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        let (bytes, mut pos) = (self.bytes, self.pos);
        while pos < bytes.len() && matches!(bytes[pos], b' ' | b'\t' | b'\n' | b'\r') {
            pos += 1;
        }
        self.pos = pos;
    }

    fn eat(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() != Some(byte) {
            return Err(self.fail());
        }
        self.pos += 1;
        Ok(())
    }

    /// One value; `depth` counts the arrays and objects enclosing it.
    fn value(&mut self, depth: usize) -> Result<Value<'a>, Error> {
        let (word, value) = match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                return Err(Error {
                    offset: self.pos,
                    too_deep: true,
                })
            }
            Some(b'{' | b'[') => return self.container(depth + 1),
            Some(b'"') => return self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            Some(b't') => ("true", Value::Bool(true)),
            Some(b'f') => ("false", Value::Bool(false)),
            Some(b'n') => ("null", Value::Null),
            _ => return Err(self.fail()),
        };
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.fail());
        }
        self.pos += word.len();
        Ok(value)
    }

    /// The object or array opening at the cursor; its members sit at
    /// `depth`.
    fn container(&mut self, depth: usize) -> Result<Value<'a>, Error> {
        let object = self.peek() == Some(b'{');
        let close = if object { b'}' } else { b']' };
        let (mut members, mut items) = (Vec::new(), Vec::new());
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                if object {
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    members.push((key, self.value(depth)?));
                } else {
                    items.push(self.value(depth)?);
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(byte) if byte == close => break,
                    _ => return Err(self.fail()),
                }
            }
        }
        self.pos += 1;
        Ok(if object {
            Value::Object(members)
        } else {
            Value::Array(items)
        })
    }

    /// `-? digits (. digits)? ([eE] [+-]? digits)?`, kept as its token.
    fn number(&mut self) -> Result<Value<'a>, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if !self.digits() {
            self.pos = start;
            return Err(self.fail());
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(self.fail());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(self.fail());
            }
        }
        Ok(Value::Number(Cow::Borrowed(&self.text[start..self.pos])))
    }

    fn digits(&mut self) -> bool {
        let (bytes, start) = (self.bytes, self.pos);
        let mut pos = start;
        while pos < bytes.len() && bytes[pos].is_ascii_digit() {
            pos += 1;
        }
        self.pos = pos;
        pos > start
    }

    /// The one string decoder. An escaped surrogate pair decodes to one
    /// character; a lone surrogate decodes to U+FFFD. A string without
    /// escapes is borrowed from the text.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.eat(b'"')?;
        let mut out = Cow::Borrowed("");
        loop {
            // Take the run up to the next quote, backslash or control byte
            // in one piece: every stop is ASCII, so the slice is UTF-8.
            let (bytes, run) = (self.bytes, self.pos);
            let mut pos = run;
            while pos < bytes.len() && !matches!(bytes[pos], b'"' | b'\\' | 0..=0x1f) {
                pos += 1;
            }
            self.pos = pos;
            let text = &self.text[run..pos];
            if out.is_empty() {
                out = Cow::Borrowed(text);
            } else {
                out.to_mut().push_str(text);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.pos += 1,
                // A raw control byte, or the end of input.
                _ => return Err(self.fail()),
            }
            let out = out.to_mut();
            let decoded = match self.peek() {
                Some(b'u') => {
                    out.push(self.unicode_escape()?);
                    continue;
                }
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                _ => return Err(self.fail()),
            };
            self.pos += 1;
            out.push(decoded);
        }
    }

    /// `uXXXX` at the cursor, plus a following `\uXXXX` when the two form
    /// a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let high = self.hex4()?;
        if (0xd800..0xdc00).contains(&high) && self.text[self.pos..].starts_with("\\u") {
            let resume = self.pos;
            self.pos += 1;
            let low = self.hex4()?;
            if (0xdc00..0xe000).contains(&low) {
                let code = 0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00);
                return Ok(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            // Not a low surrogate: it decodes on its own, next round.
            self.pos = resume;
        }
        Ok(char::from_u32(high).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        self.eat(b'u')?;
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| char::from(b).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.fail())?;
            self.pos += 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_is_accepted_at_the_cap_and_refused_past_it() {
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            Error {
                offset: MAX_DEPTH,
                too_deep: true
            }
        );
        // Objects count toward the same cap.
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());
        let deeper = format!("[{objects}]");
        assert!(parse(&deeper).unwrap_err().too_deep);
        // A huge unterminated run fails fast instead of recursing.
        assert!(parse(&"[".repeat(60_000)).unwrap_err().too_deep);
    }

    #[test]
    fn accepts_json_and_rejects_near_json() {
        for good in [
            "null",
            "-1.5e+3",
            "[]",
            "{}",
            "  {\"a\": [1, 2, {\"b\": \"c\\n\"}], \"d\": true}  ",
            "[[[]]]",
            "[[1,[2,[3,[4]]]],[]]",
            "{\"a\":[[1,2],[3,[true,null]]]}",
            "[ [ \"x\" , [ ] ] ]",
            "007",
        ] {
            assert!(parse(good).is_ok(), "{good}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "[1,2,]",
            "[[1,],2]",
            "{\"a\":[1,2,]}",
            "{\"a\":}",
            "01x",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "{a:1}",
            "{a:\"b\"}",
            "{'a':1}",
            "[,1]",
            "{,}",
            "NaN",
            "nan",
            "Infinity",
            "-Infinity",
            "inf",
            "{\"x\":NaN}",
            "[1,Infinity]",
            "{\"x\":-inf}",
            "-",
            "1.",
            "1e",
            "\"\\x\"",
            "\"\\u12\"",
            "\"a\u{1}b\"",
            "tru",
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn error_offsets_point_at_the_offending_byte() {
        for (bad, offset) in [
            ("", 0),
            ("[1,]", 3),
            ("{\"a\" 1}", 5),
            ("-x", 0),
            ("1.x", 2),
            ("1 2", 2),
            ("\"ab", 3),
            ("\"\\q\"", 2),
            ("\"\\u12z4\"", 5),
        ] {
            assert_eq!(parse(bad).unwrap_err().offset, offset, "{bad}");
        }
    }

    #[test]
    fn strings_decode_every_escape() {
        let doc = parse(r#""q\"b\\s\/\b\f\n\r\t\u0041\u00e9""#).unwrap();
        assert_eq!(doc.as_str(), Some("q\"b\\s/\u{8}\u{c}\n\r\tAé"));
        assert_eq!(parse("\"π … ok\"").unwrap().as_str(), Some("π … ok"));
    }

    #[test]
    fn surrogate_pairs_join_and_lone_surrogates_become_replacement() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
        assert_eq!(parse(r#""\ud800x""#).unwrap().as_str(), Some("\u{fffd}x"));
        assert_eq!(parse(r#""\udc00""#).unwrap().as_str(), Some("\u{fffd}"));
        assert_eq!(
            parse(r#""\ud800\u0041""#).unwrap().as_str(),
            Some("\u{fffd}A")
        );
    }

    #[test]
    fn numbers_keep_their_token() {
        for token in ["1.50", "-0", "007", "1e999", "-2.5E-3"] {
            let value = parse(token).unwrap();
            assert_eq!(value.to_string(), token);
        }
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.0").unwrap().as_u64(), None);
        assert_eq!(parse("1e999").unwrap().as_f64(), Some(f64::INFINITY));
    }

    #[test]
    fn accessors_and_index_read_first_duplicates() {
        let doc = parse(r#"{"a":1,"a":2,"s":"x","b":false,"l":[null]}"#).unwrap();
        assert_eq!(doc["a"].as_u64(), Some(1));
        assert_eq!(doc.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(doc["b"].as_bool(), Some(false));
        assert_eq!(doc["l"].as_array(), Some(&[Value::Null][..]));
        assert_eq!(doc["missing"]["deeper"], Value::Null);
        assert!(doc.get("missing").is_none());
        assert_eq!(doc["l"].kind(), "array");
        assert_eq!(doc.as_object().map(<[_]>::len), Some(5));
    }

    #[test]
    fn display_is_compact_and_round_trips() {
        let text = " { \"k\" : [ 1 , \"a\\u0001\\\"\" , { } , [ ] ] , \"t\" : true } ";
        let value = parse(text).unwrap();
        let compact = value.to_string();
        assert_eq!(compact, "{\"k\":[1,\"a\\u0001\\\"\",{},[]],\"t\":true}");
        assert_eq!(parse(&compact).unwrap(), value);
    }

    #[test]
    fn escape_covers_every_control_character() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        // Controls without a short form use \u00xx with lower-case hex:
        // every emitted document and spec digest depends on those bytes.
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            let escaped = escape(&c.to_string());
            assert!(escaped.starts_with('\\'), "U+{code:04X}: {escaped:?}");
            assert_eq!(
                parse(&format!("\"{escaped}\"")).unwrap().as_str(),
                Some(&*c.to_string())
            );
        }
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("\u{7}"), "\\u0007");
        assert_eq!(escape("\u{1f}"), "\\u001f");
        assert_eq!(escape("π … ok"), "π … ok");
    }
}
