//! Offline shim for `serde_json`.
//!
//! Re-exports the shim serde crate's [`Value`]/[`Map`]/[`Number`] types and
//! provides the usual entry points: [`to_value`], [`to_string`],
//! [`to_string_pretty`], [`from_str`], [`from_value`], and the [`json!`]
//! macro. Output is deterministic: maps keep insertion order and the
//! printers make no locale- or hash-order-dependent choices.

pub use serde::{Error, Map, Number, Value};

/// Convert any [`serde::Serialize`] type into a [`Value`] tree.
///
/// Infallible in this shim (the value-tree model has no unserializable
/// states), but keeps the `Result` signature for drop-in compatibility.
pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value, Error> {
    Ok(value.serialize())
}

/// Reconstruct a typed value from a [`Value`] tree.
pub fn from_value<T: serde::Deserialize>(value: Value) -> Result<T, Error> {
    T::deserialize(&value)
}

/// Serialize to a compact JSON string.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    Ok(value.serialize().to_string())
}

/// Serialize to human-readable JSON (two-space indent, like serde_json).
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let v = value.serialize();
    let mut out = String::new();
    write_pretty(&v, 0, &mut out);
    Ok(out)
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    const STEP: usize = 2;
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&" ".repeat(indent + STEP));
                write_pretty(item, indent + STEP, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&" ".repeat(indent));
            out.push(']');
        }
        Value::Object(m) if !m.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in m.iter().enumerate() {
                out.push_str(&" ".repeat(indent + STEP));
                out.push_str(&Value::String(k.clone()).to_string());
                out.push_str(": ");
                write_pretty(val, indent + STEP, out);
                if i + 1 < m.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&" ".repeat(indent));
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

/// Parse a JSON document into a typed value.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse::parse(s)?;
    T::deserialize(&value)
}

mod parse {
    use super::{Error, Map, Value};

    pub fn parse(s: &str) -> Result<Value, Error> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(Error::custom(format!(
                "trailing characters at byte {pos} in JSON document"
            )));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err(Error::custom("unexpected end of JSON document")),
            Some(b'n') => lit(b, pos, "null", Value::Null),
            Some(b't') => lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => lit(b, pos, "false", Value::Bool(false)),
            Some(b'"') => string(b, pos).map(Value::String),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error::custom("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut m = Map::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Object(m));
                }
                loop {
                    skip_ws(b, pos);
                    let key = string(b, pos)?;
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b':') {
                        return Err(Error::custom("expected `:` after object key"));
                    }
                    *pos += 1;
                    m.insert(key, value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Object(m));
                        }
                        _ => return Err(Error::custom("expected `,` or `}` in object")),
                    }
                }
            }
            Some(_) => number(b, pos),
        }
    }

    fn lit(b: &[u8], pos: &mut usize, text: &str, v: Value) -> Result<Value, Error> {
        if b[*pos..].starts_with(text.as_bytes()) {
            *pos += text.len();
            Ok(v)
        } else {
            Err(Error::custom(format!("invalid JSON literal, expected {text}")))
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, Error> {
        if b.get(*pos) != Some(&b'"') {
            return Err(Error::custom("expected string"));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err(Error::custom("unterminated string")),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::custom("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::custom("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid \\u code point"))?,
                            );
                            *pos += 4;
                        }
                        _ => return Err(Error::custom("invalid escape sequence")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // The run up to the next quote or backslash, validated
                    // as one slice so a parse stays linear in the document;
                    // both bytes are ASCII, so the run ends on a scalar
                    // boundary.
                    let start = *pos;
                    while b.get(*pos).is_some_and(|&c| c != b'"' && c != b'\\') {
                        *pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&b[start..*pos])
                            .map_err(|_| Error::custom("invalid UTF-8 in string"))?,
                    );
                }
            }
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        let mut float = false;
        while let Some(&c) = b.get(*pos) {
            match c {
                b'0'..=b'9' => *pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    *pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&b[start..*pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(Error::custom("expected JSON value"));
        }
        if !float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(u.into()));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(i.into()));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(f.into()))
            .map_err(|_| Error::custom(format!("invalid number {text:?}")))
    }
}

/// Build a [`Value`] from a JSON-like literal, mirroring `serde_json::json!`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:tt),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($item) ),* ])
    };
    ({ $($key:tt : $val:tt),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut m = $crate::Map::new();
        $( m.insert($key, $crate::json!($val)); )*
        $crate::Value::Object(m)
    }};
    ($other:expr) => {
        $crate::to_value(&$other).unwrap()
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_compact() {
        let v = json!({"a": 1, "b": [true, null, "x"]});
        let s = to_string(&v).unwrap();
        assert_eq!(s, r#"{"a":1,"b":[true,null,"x"]}"#);
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_printing() {
        let v = json!({"k": [1, 2]});
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(s, "{\n  \"k\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v: Value = from_str(r#"{"s": "a\nbA", "u": "é→\"x", "n": -3, "f": 1.5}"#).unwrap();
        assert_eq!(v["s"], "a\nbA");
        assert_eq!(v["u"], "é→\"x");
        assert_eq!(v["n"], -3i64);
        assert_eq!(v["f"], 1.5);
    }

    #[test]
    fn json_macro_expr_form() {
        let flag = true;
        assert_eq!(json!(flag), Value::Bool(true));
        assert_eq!(json!(2 + 2), Value::from(4u64));
    }
}
