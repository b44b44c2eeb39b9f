//! Minimal JSON tree, parser, and writer — the wire format of the serve
//! protocol and of every bench report in the workspace (no JSON crate is
//! available offline).
//!
//! The parser accepts standard JSON, a superset of what the protocol and
//! the benches emit. The writer produces compact single-line documents;
//! numbers go through Rust's shortest-round-trip `f64` formatting, so a
//! written score parses back to the exact same bits — the serve layer's
//! cached/uncached/batched bit-identity guarantee survives the wire.
//! This module originated as `ssr_bench::check`'s private parser and moved
//! here so the server, the CLI's `--json` mode, and the perf gate share
//! one implementation (`ssr_bench::check` re-exports it).

use std::fmt::Write as _;

/// A parsed JSON value (objects keep insertion order via the pair list).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as `f64`; protocol ids fit exactly).
    Num(f64),
    /// String
    Str(String),
    /// Array
    Arr(Vec<Json>),
    /// Object, as an ordered pair list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (`None` elsewhere / when absent).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders the value as compact single-line JSON. Inverse of
    /// [`parse_json`] up to number formatting: `render ∘ parse ∘ render`
    /// is the identity, and every `f64` round-trips bit-exactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => render_num(*v, out),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Numbers render via Rust's shortest-round-trip formatting, which never
/// uses exponent notation for finite values, so the output is always valid
/// JSON. Non-finite values (which the protocol never produces) degrade to
/// `null` rather than emitting invalid tokens.
fn render_num(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse_json`] accepts. Every document
/// the workspace writes nests a few levels; the cap keeps a request line
/// of brackets from overflowing the parsing thread's stack, which would
/// abort the whole server.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Errors carry a byte offset and message.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth_left: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth_left == 0 => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let value = parse_value(b, pos, depth_left - 1)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth_left - 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    // Accumulate raw bytes and validate UTF-8 once at the end: unescaped
    // multi-byte sequences pass through intact (pushing each byte as its
    // own `char` would mangle any non-ASCII string).
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => {
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_string())
            }
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                let decoded = match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        char::from_u32(code).unwrap_or('\u{FFFD}')
                    }
                    other => return Err(format!("unsupported escape `\\{}`", other as char)),
                };
                out.extend_from_slice(decoded.encode_utf8(&mut [0u8; 4]).as_bytes());
            }
            other => out.push(other),
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
      "schema": "ssr-bench/allpairs/v1", "smoke": true, "threads": 1,
      "datasets": [
        {"name": "D05", "nodes": 10,
         "modes": {
            "serial":  {"runs": 3, "median_ms": 100.0, "p95_ms": 120.0},
            "blocked": {"runs": 3, "median_ms": 40.0, "p95_ms": 44.0}
         },
         "speedup_blocked_vs_serial": 2.50}
      ]
    }"#;

    #[test]
    fn parser_round_trips_sample() {
        let doc = parse_json(SAMPLE).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("ssr-bench/allpairs/v1"));
        let ds = doc.get("datasets").and_then(Json::as_arr).unwrap();
        assert_eq!(ds[0].get("name").and_then(Json::as_str), Some("D05"));
        let m = ds[0].get("modes").unwrap().get("serial").unwrap();
        assert_eq!(m.get("median_ms").and_then(Json::as_num), Some(100.0));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("not json").is_err());
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("{\"a\": 1} trailing").is_err());
        assert!(parse_json("[1, 2").is_err());
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        assert!(parse_json(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse_json(&"{\"a\":".repeat(1 << 20)).is_err());
    }

    #[test]
    fn render_parse_is_identity() {
        let doc = parse_json(SAMPLE).unwrap();
        let rendered = doc.render();
        assert_eq!(parse_json(&rendered).unwrap(), doc);
        // Compact form is stable under a second round trip.
        assert_eq!(parse_json(&rendered).unwrap().render(), rendered);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [0.0, 1.0, 0.1, 2.0 / 3.0, 1e-12, std::f64::consts::PI, f64::MIN_POSITIVE] {
            let rendered = Json::Num(v).render();
            let back = parse_json(&rendered).unwrap().as_num().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:e} via {rendered}");
        }
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = Json::Str("a\"b\\c\nd\te\u{1}".into());
        assert_eq!(parse_json(&s.render()).unwrap(), s);
    }

    #[test]
    fn non_ascii_strings_survive_the_wire() {
        // Unescaped multi-byte UTF-8 must pass through intact, not be
        // reinterpreted byte-by-byte as Latin-1.
        let s = Json::Str("gräph-ß-日本-🦀.tsv".into());
        assert_eq!(parse_json(&s.render()).unwrap(), s);
        assert_eq!(
            parse_json("\"gräph\"").unwrap().as_str(),
            Some("gräph"),
            "raw (unescaped) UTF-8 input"
        );
    }

    #[test]
    fn non_finite_numbers_degrade_to_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }
}
