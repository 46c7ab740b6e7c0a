//! Offline stand-in for the `serde_json` crate.
//!
//! Renders and parses the [`Value`] tree defined by the vendored `serde`
//! stand-in as JSON text. Covers the API surface this workspace uses:
//! [`to_string`], [`to_string_pretty`], [`from_str`], the [`json!`] macro,
//! [`Value`] indexing / `Display`, and an [`Error`] convertible into
//! `std::io::Error`.

pub use serde::{Number, Value};

use serde::{write_json_number, write_json_string, DeError, Deserialize, Serialize};
use std::fmt;

/// A serialization or deserialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.0)
    }
}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Serializes `value` to compact JSON.
///
/// # Errors
///
/// Never fails in this implementation; the `Result` mirrors serde_json's
/// signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_string())
}

/// Serializes `value` to pretty-printed JSON (2-space indent,
/// `"key": value` separators — serde_json's default style).
///
/// # Errors
///
/// Never fails in this implementation.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&value.to_value(), 0, &mut out);
    Ok(out)
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        Value::Object(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_json_string(k, out);
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
        Value::Array(_) => out.push_str("[]"),
        Value::Object(_) => out.push_str("{}"),
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_json_number(*n, out),
        Value::String(s) => write_json_string(s, out),
    }
}

fn push_indent(levels: usize, out: &mut String) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// Deserializes a `T` from JSON text.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON or when the parsed value does
/// not match `T` (including failed `try_from` re-validation).
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value(text)?;
    T::from_value(&value).map_err(Error::from)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Maximum `[` / `{` nesting depth [`from_str`] accepts; one level deeper
/// is an [`Error`] ("nesting too deep at byte N"), never a stack overflow.
///
/// The parser recurses once per level, and so do dropping, cloning and
/// printing the resulting [`Value`] tree, so the cap bounds every recursive
/// consumer. It sits between two measured figures:
///
/// * **Above** the deepest document this workspace writes. A certificate
///   snapshot nests two levels per branch-and-bound split plus a few
///   envelope levels, and the deepest split chain is bounded by the ReLU
///   count of the largest zoo model (CIFAR-10_DEEP, 736 ReLUs): at most
///   ~1,480 levels.
/// * **Below** what fits on a default 2 MiB spawned thread, which is what
///   each `serve --tcp` connection runs on. Parsing is the deepest of those
///   consumers: parse plus print, clone and drop of an `[`-chain fit there
///   up to ~4,200 levels in the test profile (~500 B of stack per level)
///   and ~7,200 in release, so the cap leaves half the stack to the
///   caller's own frames. The `nesting_cap_fits_a_default_thread_stack`
///   test pins the cap end.
pub const MAX_DEPTH: usize = 2048;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn parse_value(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        self.err_at(self.pos, msg)
    }

    fn err_at(&self, pos: usize, msg: &str) -> Error {
        Error::new(format!("{msg} at byte {pos}"))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = parse(self)?;
        self.depth -= 1;
        Ok(v)
    }

    fn array(&mut self) -> Result<Value, Error> {
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

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // character in one go. The input is a `&str` and every stop
            // byte is ASCII, so every run starts and ends on a char
            // boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // JSON admits U+0000–U+001F only as escapes.
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                _ => {
                    // A backslash: one escape sequence.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Decodes the code point of a `\u` escape whose four hex digits start
    /// at `pos`, joining a high surrogate with the low-surrogate escape
    /// that must follow it.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.err("lone surrogate"));
            }
            let lo_at = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err_at(lo_at, "invalid surrogate pair"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let mut code = 0;
        for &digit in &self.bytes[self.pos..self.pos + 4] {
            let Some(value) = char::from(digit).to_digit(16) else {
                return Err(self.err("invalid unicode escape"));
            };
            code = (code << 4) | value;
        }
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Number(Number::PosInt(n)));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Number(Number::NegInt(n)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::Float(f)))
            .map_err(|_| self.err("invalid number"))
    }
}

/// Helpers for the [`json!`] macro; not public API.
#[doc(hidden)]
pub mod __private {
    /// Converts any serializable expression to a [`crate::Value`].
    pub fn to_val<T: serde::Serialize + ?Sized>(v: &T) -> crate::Value {
        v.to_value()
    }
}

/// Builds a [`Value`] from JSON-like syntax.
///
/// Supports `null`, literals/expressions, arrays, and objects with string
/// literal keys. Each array element / object value must be a single token
/// tree (a literal, a `[...]`, or a `{...}`), which covers this
/// workspace's usage.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:tt),* $(,)? ]) => {
        $crate::Value::Array(<[_]>::into_vec(::std::boxed::Box::new([
            $( $crate::json!($elem) ),*
        ])))
    };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ({ $($key:literal : $val:tt),* $(,)? }) => {
        $crate::Value::Object(<[_]>::into_vec(::std::boxed::Box::new([
            $( (::std::string::String::from($key), $crate::json!($val)) ),*
        ])))
    };
    ({}) => { $crate::Value::Object(::std::vec::Vec::new()) };
    ($other:expr) => { $crate::__private::to_val(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_roundtrip() {
        let v = json!({
            "name": "net",
            "layers": [{"Dense": {"rows": 2}}, "Relu"],
            "eps": 0.125,
            "count": 7
        });
        let compact = v.to_string();
        assert_eq!(
            compact,
            r#"{"name":"net","layers":[{"Dense":{"rows":2}},"Relu"],"eps":0.125,"count":7}"#
        );
        let back: Value = from_str(&compact).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\"eps\": 0.125"), "pretty: {pretty}");
        let back2: Value = from_str(&pretty).unwrap();
        assert_eq!(back2, v);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        let xs = vec![
            0.1,
            -1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            -0.0,
            12345.678901234567,
        ];
        let json = to_string(&xs).unwrap();
        let back: Vec<f64> = from_str(&json).unwrap();
        for (a, b) in xs.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} failed to roundtrip");
        }
    }

    #[test]
    fn integers_stay_integers() {
        let json = to_string(&vec![0usize, 3, 1_000_000]).unwrap();
        assert_eq!(json, "[0,3,1000000]");
        let back: Vec<usize> = from_str(&json).unwrap();
        assert_eq!(back, vec![0, 3, 1_000_000]);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line\nbreak \"quoted\" back\\slash tab\t unicode \u{1F600} nul\u{0}".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
        // And we can parse foreign \u escapes, including surrogate pairs.
        let parsed: String = from_str(r#""A😀""#).unwrap();
        assert_eq!(parsed, "A\u{1F600}");
        let parsed: String = from_str(r#""\u0041\ud83d\ude00\u00e9""#).unwrap();
        assert_eq!(parsed, "A\u{1F600}\u{e9}");
    }

    #[test]
    fn high_surrogate_needs_a_low_surrogate_escape() {
        // A high surrogate must be followed by a `\u` escape in DC00–DFFF;
        // anything else once decoded to a wrong code point (or overflowed).
        for (text, at) in [
            (r#""\ud800\u0041""#, 7),
            (r#""\ud800\ue000""#, 7),
            (r#""\ud800\ud800""#, 7),
            (r#""x\udbff\uffff""#, 8),
        ] {
            let err = from_str::<String>(text).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("invalid surrogate pair at byte {at}")
            );
        }
        // The same rejection reaches a served request's id.
        let err = from_str::<Value>(r#"{"id":"\ud800\u0041"}"#).unwrap_err();
        assert_eq!(err.to_string(), "invalid surrogate pair at byte 13");
        // Both ends of the low range still pair.
        let lo: String = from_str(r#""\ud800\udc00""#).unwrap();
        assert_eq!(lo, "\u{10000}");
        let hi: String = from_str(r#""\udbff\udfff""#).unwrap();
        assert_eq!(hi, "\u{10FFFF}");
    }

    #[test]
    fn malformed_strings_keep_their_error_text_and_offset() {
        let cases: &[(&str, &str)] = &[
            (r#""abc"#, "unterminated string at byte 4"),
            (r#""\x""#, "invalid escape at byte 2"),
            (r#""\u12""#, "truncated unicode escape at byte 3"),
            (r#""\u12G4""#, "invalid unicode escape at byte 3"),
            (r#""\ud800""#, "lone surrogate at byte 7"),
            (r#""\ud800x""#, "lone surrogate at byte 7"),
            (r#""\ud800\u12""#, "truncated unicode escape at byte 9"),
            (r#""\udc00""#, "invalid unicode escape at byte 7"),
            ("\"é\\q\"", "invalid escape at byte 4"),
            ("\"日本", "unterminated string at byte 7"),
            (r#""abc\"#, "invalid escape at byte 5"),
            (r#""\u00e9"#, "unterminated string at byte 7"),
            (r#"{"a\"#, "invalid escape at byte 4"),
            (r#"{"k":1,"bad\z":2}"#, "invalid escape at byte 12"),
            (r#"["ok", "bad\z"]"#, "invalid escape at byte 12"),
            ("\"\\u00e9\u{1F600}\\", "invalid escape at byte 12"),
            (r#"{"a" 1}"#, "expected `:` at byte 5"),
            (r#"{1:2}"#, "expected `\"` at byte 1"),
            ("\"a\u{1}b\"", "control character in string at byte 2"),
            ("\"\u{0}\"", "control character in string at byte 1"),
            ("\"tab\there\"", "control character in string at byte 4"),
            ("\"é\n\"", "control character in string at byte 3"),
            ("{\"k\u{1f}\":1}", "control character in string at byte 3"),
            ("\"\\n\u{7}\"", "control character in string at byte 3"),
        ];
        for (text, want) in cases {
            let err = from_str::<Value>(text).unwrap_err();
            assert_eq!(err.to_string(), *want, "input {text:?}");
        }
        // A sign is not a hex digit (`from_str_radix` would take `+041`).
        let err = from_str::<Value>(r#""\u+041""#).unwrap_err();
        assert_eq!(err.to_string(), "invalid unicode escape at byte 3");
    }

    /// Runs `f` on a thread with the 2 MiB stack std gives spawned threads
    /// by default (what each `serve --tcp` connection runs on).
    fn on_default_thread_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn nesting_cap_fits_a_default_thread_stack() {
        on_default_thread_stack(|| {
            for open in ["[", "{\"k\":"] {
                let close = if open == "[" { "]" } else { "}" };
                let at_cap = format!("{}0{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
                let v: Value = from_str(&at_cap).unwrap();
                assert_eq!(v.to_string(), at_cap);
                drop(v);
                let over = format!(
                    "{}0{}",
                    open.repeat(MAX_DEPTH + 1),
                    close.repeat(MAX_DEPTH + 1)
                );
                let err = from_str::<Value>(&over).unwrap_err();
                let at = MAX_DEPTH * open.len();
                assert_eq!(err.to_string(), format!("nesting too deep at byte {at}"));
            }
            // Far past any stack: still a structured error.
            let err = from_str::<Value>(&"[".repeat(200_000)).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("nesting too deep at byte {MAX_DEPTH}")
            );
        });
    }

    #[test]
    fn nesting_depth_is_per_path_not_per_document() {
        // Many sibling containers at the cap are fine: depth is unwound
        // on every close.
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH - 1), "]".repeat(MAX_DEPTH - 1));
        let text = format!("[{deep},{deep},{deep}]");
        assert!(from_str::<Value>(&text).is_ok());
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;

        /// Pieces a generated string is built from: multi-byte chars,
        /// characters the writer escapes, and control characters, so that
        /// every one of them lands next to quotes and backslashes.
        #[rustfmt::skip]
        const PIECES: &[&str] = &[
            "a", "Z", " ", "\"", "\\", "/", "\\u", "\\\"", "\"\\", "\n", "\r", "\t",
            "\u{0}", "\u{1}", "\u{8}", "\u{c}", "\u{1f}", "\u{7f}", "é", "日本",
            "\u{1F600}", "\u{2028}", "\u{FFFF}", "\u{10FFFF}", "\u{D7FF}", "\u{E000}",
        ];

        fn text() -> impl Strategy<Value = String> {
            proptest::collection::vec(0..PIECES.len(), 0..48)
                .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn written_strings_parse_back_exactly(s in text(), key in text()) {
                let mut json = String::new();
                write_json_string(&s, &mut json);
                let back: String = from_str(&json).unwrap();
                prop_assert_eq!(back.as_bytes(), s.as_bytes());

                // Also as an object key and inside an array.
                let v = Value::Object(vec![(
                    key.clone(),
                    Value::Array(vec![Value::String(s.clone()), Value::String(key.clone())]),
                )]);
                let compact: Value = from_str(&v.to_string()).unwrap();
                prop_assert_eq!(&compact, &v);
                let pretty: Value = from_str(&to_string_pretty(&v).unwrap()).unwrap();
                prop_assert_eq!(&pretty, &v);
            }
        }
    }

    #[test]
    fn value_indexing_matches_serde_json() {
        let mut v = json!({"a": [1, 2], "b": {"c": true}});
        assert_eq!(v["a"][1], json!(2));
        assert_eq!(v["b"]["c"], Value::Bool(true));
        assert_eq!(v["missing"], Value::Null);
        v["b"]["c"] = Value::Bool(false);
        assert_eq!(v["b"]["c"], Value::Bool(false));
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Vec<f64>>("{\"a\":1}").is_err());
    }

    #[test]
    fn error_converts_to_io_error() {
        let e = from_str::<Value>("oops").unwrap_err();
        let io: std::io::Error = e.into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
    }
}
