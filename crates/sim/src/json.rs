//! The one JSON codec of the workspace (which deliberately has no JSON
//! dependency): every reader — trace lines, metrics samples, the
//! wall-clock ledger — goes through [`parse`] and the typed getters of
//! [`Field`], every writer escapes strings with [`write_str`].
//!
//! Rules, the same for every caller: non-negative integers that fit stay
//! exact [`Json::Int`]s, every other number is a finite `f64`; strings are
//! sliced out of the `&str` (UTF-8 survives) and understand the standard
//! escapes; raw control characters, duplicate keys, trailing bytes and
//! nesting deeper than [`MAX_DEPTH`] are ordinary errors, never panics.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest nesting [`parse`] accepts (a ledger is 3 deep, a sample 4).
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    Int(u64),
    /// Any other (finite) number.
    Num(f64),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; a key may appear once.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// This value under the name error messages should call it by.
    pub fn named<'a>(&'a self, name: &'a str) -> Field<'a> {
        Field { name, value: self }
    }
}

/// A value plus its name: the typed getters' errors say which field was
/// missing or had the wrong type.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a> {
    name: &'a str,
    value: &'a Json,
}

impl<'a> Field<'a> {
    fn expected<T>(self, what: &str) -> Result<T, String> {
        Err(format!(
            "{:?}: expected {what}, got {:?}",
            self.name, self.value
        ))
    }

    /// Member `key` of this object.
    pub fn get(self, key: &'a str) -> Result<Field<'a>, String> {
        match self.obj()?.get(key) {
            Some(value) => Ok(value.named(key)),
            None => Err(format!("{:?}: missing field {key:?}", self.name)),
        }
    }

    /// The members of this object, in key order.
    pub fn obj(self) -> Result<&'a BTreeMap<String, Json>, String> {
        match self.value {
            Json::Obj(members) => Ok(members),
            _ => self.expected("an object"),
        }
    }

    /// The elements of this array, each under the array's name.
    pub fn arr(self) -> Result<impl Iterator<Item = Field<'a>>, String> {
        match self.value {
            Json::Arr(items) => Ok(items.iter().map(move |v| v.named(self.name))),
            _ => self.expected("an array"),
        }
    }

    /// An exact unsigned integer: negative, fractional and out-of-range
    /// numbers are refused, not coerced.
    pub fn u64(self) -> Result<u64, String> {
        match self.value {
            Json::Int(n) => Ok(*n),
            _ => self.expected("an unsigned integer"),
        }
    }

    /// Any number.
    pub fn f64(self) -> Result<f64, String> {
        match self.value {
            Json::Int(n) => Ok(*n as f64),
            Json::Num(x) => Ok(*x),
            _ => self.expected("a number"),
        }
    }

    /// A boolean.
    pub fn bool(self) -> Result<bool, String> {
        match self.value {
            Json::Bool(b) => Ok(*b),
            _ => self.expected("a boolean"),
        }
    }

    /// A string.
    pub fn str(self) -> Result<&'a str, String> {
        match self.value {
            Json::Str(s) => Ok(s),
            _ => self.expected("a string"),
        }
    }
}

/// Appends `s` as a quoted JSON string: `"` and `\` escaped, control
/// characters as `\n` `\t` `\r` or `\u00XX`, so the result never spans lines.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a quoted JSON string ([`write_str`] for `format!` call sites).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

/// Parses one complete JSON value; surrounding whitespace is allowed,
/// anything else after the value is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing bytes after the value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += hit as usize;
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.err("bad literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut members = BTreeMap::new();
                while self.more(b'}', members.is_empty())? {
                    let key = self.parse_string()?;
                    self.skip_ws();
                    if !self.eat(b':') {
                        return Err(self.err("expected ':'"));
                    }
                    if members.insert(key, self.parse_value(depth + 1)?).is_some() {
                        return Err(self.err("duplicate key before"));
                    }
                }
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                while self.more(b']', items.is_empty())? {
                    items.push(self.parse_value(depth + 1)?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Steps over an opening bracket (`first`) or a comma to the next item
    /// of an object or array; false once `close` has been consumed.
    fn more(&mut self, close: u8, first: bool) -> Result<bool, String> {
        self.pos += first as usize;
        self.skip_ws();
        if self.eat(close) {
            return Ok(false);
        }
        if !first && !self.eat(b',') {
            return Err(self.err("expected ',' or the closing bracket"));
        }
        self.skip_ws();
        Ok(true)
    }

    fn parse_string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte as
            // one slice: all three are ASCII, so the cut is a char boundary.
            let rest = &self.text[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            match rest.as_bytes()[run] {
                b'"' => return Ok(out),
                b'\\' => out.push(self.escape()?),
                _ => return Err(self.err("raw control character before")),
            }
        }
    }

    /// The character an escape stands for, the backslash already consumed.
    fn escape(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' | b'\\' | b'/' => c as char,
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            // Four hex digits naming a scalar value: the writer only emits
            // `\u00XX`, so surrogate halves are refused rather than paired.
            b'u' => {
                let hex = self.text.get(self.pos..self.pos + 4);
                let code = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                let c = code.and_then(|h| u32::from_str_radix(h, 16).ok());
                let c = c.and_then(char::from_u32);
                let c = c.ok_or_else(|| self.err("bad \\u escape"))?;
                self.pos += 4;
                c
            }
            _ => return Err(self.err("unknown escape before")),
        })
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        if let (true, Ok(n)) = (token.bytes().all(|b| b.is_ascii_digit()), token.parse()) {
            return Ok(Json::Int(n));
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(format!("bad number {token:?} at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_stay_exact_and_everything_else_is_a_float() {
        assert_eq!(parse("18446744073709551615"), Ok(Json::Int(u64::MAX)));
        assert_eq!(parse("007"), Ok(Json::Int(7)));
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Json::Num(1.8446744073709552e19))
        );
        assert_eq!(parse("-1"), Ok(Json::Num(-1.0)));
        assert_eq!(parse("2.5"), Ok(Json::Num(2.5)));
        assert_eq!(parse("1e3"), Ok(Json::Num(1000.0)));
        for bad in ["1e999", "-", "1.2.3", "+1", ".5", "1e", "--1"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn typed_getters_refuse_to_coerce_and_name_the_field() {
        let doc = parse(r#"{"jobs":-1,"half":2.5,"big":1e30,"n":3,"s":"x","b":true,"a":[1]}"#);
        let doc = doc.expect("parses");
        let root = doc.named("ledger");
        for key in ["jobs", "half", "big", "s", "b", "a"] {
            let err = root.get(key).and_then(Field::u64).expect_err(key);
            assert!(err.contains(&format!("{key:?}")), "{err}");
        }
        assert_eq!(root.get("n").and_then(Field::u64), Ok(3));
        assert_eq!(root.get("n").and_then(Field::f64), Ok(3.0));
        assert_eq!(root.get("half").and_then(Field::f64), Ok(2.5));
        assert_eq!(root.get("s").and_then(Field::str), Ok("x"));
        assert_eq!(root.get("b").and_then(Field::bool), Ok(true));
        let items: Vec<_> = root.get("a").and_then(Field::arr).expect("array").collect();
        assert_eq!(items[0].u64(), Ok(1));
        let err = root.get("missing").expect_err("absent");
        assert!(
            err.contains("\"ledger\": missing field \"missing\""),
            "{err}"
        );
        assert!(
            root.get("n").and_then(|n| n.get("x")).is_err(),
            "not an object"
        );
    }

    #[test]
    fn strings_keep_utf8_and_round_trip_through_the_escaper() {
        assert_eq!(parse("\"café ✓\""), Ok(Json::Str("café ✓".into())));
        assert_eq!(
            parse(r#""\"\\\/\n\t\r\b\f\u0001é""#),
            Ok(Json::Str("\"\\/\n\t\r\u{8}\u{c}\u{1}é".into()))
        );
        assert_eq!(
            quote("a\"b\\c\n\t\r\u{1}é"),
            "\"a\\\"b\\\\c\\n\\t\\r\\u0001é\""
        );
        let samples = [
            "",
            "plain",
            "a\"b\\c",
            "line\nbreak\ttab\r",
            "\u{0}\u{1f}\u{7f}",
            "café",
        ];
        for s in samples {
            let quoted = quote(s);
            assert!(!quoted.contains('\n'), "one line: {quoted:?}");
            assert_eq!(parse(&quoted), Ok(Json::Str(s.into())));
        }
        let bad = [
            "\"open",
            "\"raw\nnewline\"",
            r#""\x""#,
            r#""\u12""#,
            r#""\ud800""#,
            "\"\\",
        ];
        for bad in bad {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn structure_errors_are_errors_not_panics() {
        let bad = [
            "",
            " ",
            "{",
            "[",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,]",
            "[,1]",
            "[1 2]",
            "{\"a\":1 \"b\":2}",
            "{\"a\":1,\"a\":2}",
            "{a:1}",
            "tru",
            "nul",
            "{} x",
            "[] []",
        ];
        for bad in bad {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(parse(" [ ] "), Ok(Json::Arr(vec![])));
        assert_eq!(parse("{ }"), Ok(Json::Obj(BTreeMap::new())));
        assert_eq!(
            parse("[null, true, false]"),
            Ok(Json::Arr(vec![
                Json::Null,
                Json::Bool(true),
                Json::Bool(false)
            ]))
        );
    }

    #[test]
    fn nesting_is_capped() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 2)).expect_err("too deep");
        assert!(err.contains("nesting too deep"), "{err}");
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }
}
