//! Minimal JSON value for machine-readable telemetry and bench output.
//!
//! Hand-rolled because the workspace is offline (no serde), and every
//! record the stack emits — `BENCH_*.json`, metric snapshots, audit JSONL
//! lines, slow-query spans — is flat numbers/strings/arrays anyway.
//! [`Json::parse`] reads the same dialect back so bench runs can compare
//! themselves against committed or archived results. This is the one JSON
//! type of the workspace: the bench harness re-exports it, the service and
//! router serialize their snapshots with it.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// A float (serialized with full precision; NaN/∞ become `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered object.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
    /// JSON `null` (what non-finite numbers serialize to).
    Null,
}

/// Appends `s` escaped and quoted per the JSON spec — shared by string
/// values and object keys (both can carry hostile tenant/dataset names).
/// Every byte that needs an escape is ASCII, so runs between escapes are
/// copied whole.
fn write_string(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'\\' => out.push_str("\\\\"),
            b'"' => out.push_str("\\\""),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl Json {
    /// Convenience object constructor.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serializes to a JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends the serialization to `out`: the whole document is written
    /// into the one buffer, with no intermediate string per node.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => {
                let _ = if v.fract() == 0.0 && v.abs() < 9.0e15 {
                    write!(out, "{}", *v as i64)
                } else {
                    write!(out, "{v}")
                };
            }
            Json::Num(_) | Json::Null => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Obj(pairs) => {
                // Keys escape exactly like string values: a tenant or
                // dataset name carrying `"`, `\`, or a newline must not be
                // able to break a JSONL line.
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(out, k);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
        }
    }

    /// Writes the pretty-enough single-line serialization to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render() + "\n")
    }

    /// Escapes `s` as a JSON string literal (including the quotes) — the
    /// one escape routine shared by string values and object keys.
    pub fn escape_str(s: &str) -> String {
        let mut out = String::new();
        write_string(&mut out, s);
        out
    }

    /// Parses a JSON document (the full grammar: objects, arrays, strings
    /// with escapes, numbers, booleans as 0/1, `null`). Returns a
    /// description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// The value under `key` when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, when this is a (finite) number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Num(1.0)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Num(0.0)),
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match escape {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs never appear in this stack's
                            // output; map unpaired surrogates to the
                            // replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Consume the run up to the next quote or escape in one
                    // copy (multi-byte sequences pass through verbatim).
                    let start = self.pos;
                    while self.bytes.get(self.pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let doc = Json::obj(vec![
            ("name", Json::Str("q\"1\"\n".into())),
            ("qps", Json::Num(1234.5)),
            ("n", Json::Num(7.0)),
            ("arr", Json::Arr(vec![Json::Num(1.0), Json::Null])),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).expect("own output parses");
        assert_eq!(back.get("name").and_then(Json::as_str), Some("q\"1\"\n"));
        assert_eq!(back.get("qps").and_then(Json::as_f64), Some(1234.5));
        assert_eq!(back.get("n").map(Json::render).as_deref(), Some("7"));
        assert_eq!(back.get("arr").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("[1, 2").is_err());
    }

    #[test]
    fn booleans_parse_as_numbers() {
        let v = Json::parse("[true, false, null]").expect("parses");
        let arr = v.as_arr().expect("array");
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(0.0));
        assert!(matches!(arr[2], Json::Null));
    }

    #[test]
    fn hostile_object_keys_escape_and_round_trip() {
        // Regression: keys used to render unescaped, so a tenant name with
        // a quote or newline produced an unparseable JSONL line.
        let hostile = "evil\"name\\with\nnewline\tand\u{1}ctl";
        let doc = Json::Obj(vec![(hostile.to_string(), Json::Num(1.0))]);
        let rendered = doc.render();
        let parsed = Json::parse(&rendered).expect("hostile key renders parseable JSON");
        assert_eq!(parsed.get(hostile).and_then(Json::as_f64), Some(1.0));
        assert_eq!(Json::escape_str("a\"b"), "\"a\\\"b\"", "escape_str exposes the shared routine");
    }
}
