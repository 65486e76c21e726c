//! JSONL parsing — the read side of [`crate::export`].
//!
//! The campaign engine streams one flat JSON object per line through
//! [`crate::export::JsonlWriter`]; this module parses those lines back
//! so shard outputs can be reloaded, merged, and resumed. The grammar
//! is deliberately the subset the writer emits: a single-line object of
//! string keys mapping to strings, numbers, booleans, or `null` — no
//! nesting, no arrays.
//!
//! Values round-trip byte-exactly: a non-negative integer literal
//! parses to [`JsonValue::Uint`] (so `u64` seeds survive), any other
//! numeric literal to [`JsonValue::Num`], and re-rendering a parsed
//! float with Rust's shortest round-trip `Display` reproduces the
//! original bytes.

use std::fmt;
use std::str::Chars;

/// A parsed JSON scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no `.`, `e`, or sign).
    Uint(u64),
    /// Any other numeric literal.
    Num(f64),
    /// A string literal (escapes resolved).
    Str(String),
}

impl JsonValue {
    /// The value as an `f64`, if numeric ([`JsonValue::Uint`] widens).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Uint(u) => Some(u as f64),
            JsonValue::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as an `f64`, treating `null` as NaN (the writer
    /// renders non-finite floats as `null`).
    pub fn as_f64_or_nan(&self) -> Option<f64> {
        match *self {
            JsonValue::Null => Some(f64::NAN),
            _ => self.as_f64(),
        }
    }

    /// The value as a `u64`, if an integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::Uint(u) => Some(u),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A malformed JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed JSONL line: {}", self.message)
    }
}

impl std::error::Error for JsonParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, JsonParseError> {
    Err(JsonParseError {
        message: message.into(),
    })
}

struct Cursor<'a> {
    chars: std::iter::Peekable<Chars<'a>>,
}

impl Cursor<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(' ' | '\t')) {
            self.chars.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), JsonParseError> {
        self.skip_ws();
        match self.chars.next() {
            Some(c) if c == want => Ok(()),
            Some(c) => err(format!("expected `{want}`, found `{c}`")),
            None => err(format!("expected `{want}`, found end of line")),
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return err("unterminated string"),
                Some('"') => return Ok(out),
                Some('\\') => match self.chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.chars.next().and_then(|c| c.to_digit(16)).ok_or_else(
                                || JsonParseError {
                                    message: "bad \\u escape".to_string(),
                                },
                            )?;
                            code = code * 16 + d;
                        }
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return err("bad \\u code point"),
                        }
                    }
                    other => return err(format!("bad escape `\\{other:?}`")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        self.skip_ws();
        match self.chars.peek() {
            Some('"') => Ok(JsonValue::Str(self.string()?)),
            Some('t') | Some('f') | Some('n') => {
                let mut word = String::new();
                while let Some(&c) = self.chars.peek().filter(|c| c.is_ascii_alphabetic()) {
                    word.push(c);
                    self.chars.next();
                }
                match word.as_str() {
                    "true" => Ok(JsonValue::Bool(true)),
                    "false" => Ok(JsonValue::Bool(false)),
                    "null" => Ok(JsonValue::Null),
                    other => err(format!("unknown literal `{other}`")),
                }
            }
            Some(c) if *c == '-' || c.is_ascii_digit() => {
                let mut lit = String::new();
                let numeric =
                    |c: &&char| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E');
                while let Some(&c) = self.chars.peek().filter(numeric) {
                    lit.push(c);
                    self.chars.next();
                }
                let plain_int = !lit.is_empty() && lit.bytes().all(|b| b.is_ascii_digit());
                if plain_int {
                    if let Ok(u) = lit.parse::<u64>() {
                        return Ok(JsonValue::Uint(u));
                    }
                }
                match lit.parse::<f64>() {
                    Ok(n) => Ok(JsonValue::Num(n)),
                    Err(_) => err(format!("bad number `{lit}`")),
                }
            }
            Some(c) => err(format!("unexpected `{c}` at value position")),
            None => err("missing value"),
        }
    }
}

/// Parses one JSONL line into its `(key, value)` pairs, in document
/// order.
///
/// # Errors
///
/// Returns [`JsonParseError`] when the line is not a flat JSON object
/// of supported scalar values (including a line truncated mid-write).
pub fn parse_jsonl_line(line: &str) -> Result<Vec<(String, JsonValue)>, JsonParseError> {
    let mut cur = Cursor {
        chars: line.trim_end_matches(['\n', '\r']).chars().peekable(),
    };
    cur.expect('{')?;
    let mut fields = Vec::new();
    cur.skip_ws();
    if cur.chars.peek() == Some(&'}') {
        cur.chars.next();
    } else {
        loop {
            let key = cur.string()?;
            cur.expect(':')?;
            let value = cur.value()?;
            fields.push((key, value));
            cur.skip_ws();
            match cur.chars.next() {
                Some(',') => continue,
                Some('}') => break,
                Some(c) => return err(format!("expected `,` or `}}`, found `{c}`")),
                None => return err("unterminated object"),
            }
        }
    }
    cur.skip_ws();
    match cur.chars.next() {
        None => Ok(fields),
        Some(c) => err(format!("trailing `{c}` after object")),
    }
}

/// Looks up a field by key in a parsed line.
pub fn field<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::JsonlRow;

    #[test]
    fn parses_writer_output_back() {
        let row = JsonlRow::new()
            .str("cell", "cannon_lake/IccThreadCovert/quiet")
            .int("trial", 0)
            .int("seed", 0xCBF2_9CE4_8422_2325)
            .num("ber", 0.03125)
            .num("nan", f64::NAN)
            .bool("ok", true);
        let fields = parse_jsonl_line(&row.to_json()).expect("parses");
        assert_eq!(fields.len(), 6);
        assert_eq!(
            field(&fields, "cell").and_then(JsonValue::as_str),
            Some("cannon_lake/IccThreadCovert/quiet")
        );
        assert_eq!(
            field(&fields, "seed").and_then(JsonValue::as_u64),
            Some(0xCBF2_9CE4_8422_2325)
        );
        assert_eq!(
            field(&fields, "ber").and_then(JsonValue::as_f64),
            Some(0.03125)
        );
        assert!(field(&fields, "nan")
            .and_then(JsonValue::as_f64_or_nan)
            .expect("null maps to NaN")
            .is_nan());
        assert_eq!(field(&fields, "ok"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn floats_round_trip_byte_exactly() {
        for v in [0.19047619047619047, 2918.0, 1e-7, -0.5, 123456789.25] {
            let rendered = JsonlRow::new().num("v", v).to_json();
            let fields = parse_jsonl_line(&rendered).expect("parses");
            let back = field(&fields, "v").and_then(JsonValue::as_f64).unwrap();
            assert_eq!(JsonlRow::new().num("v", back).to_json(), rendered);
        }
    }

    #[test]
    fn string_escapes_resolve() {
        let rendered = JsonlRow::new().str("s", "a\"b\\c\nd\te").to_json();
        let fields = parse_jsonl_line(&rendered).expect("parses");
        assert_eq!(
            field(&fields, "s").and_then(JsonValue::as_str),
            Some("a\"b\\c\nd\te")
        );
        let unicode = parse_jsonl_line("{\"s\":\"\\u0041\"}").expect("parses");
        assert_eq!(field(&unicode, "s").and_then(JsonValue::as_str), Some("A"));
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse_jsonl_line("{}").expect("parses").is_empty());
    }

    #[test]
    fn truncated_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "{\"a\":",
            "{\"a\":1",
            "{\"a\":1,",
            "{\"a\":\"unterminated",
            "{\"a\":1}garbage",
            "[1,2]",
            "{\"a\":{}}",
        ] {
            assert!(parse_jsonl_line(bad).is_err(), "accepted {bad:?}");
        }
    }
}
