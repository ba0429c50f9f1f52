//! Minimal hand-rolled JSON output — and, since the streaming sweep engine,
//! input.
//!
//! The repository builds offline and therefore cannot depend on `serde` /
//! `serde_json`; the experiment harness only ever serializes flat row structs
//! of numbers and short strings, so a small writer trait is all that is
//! needed. Output is valid JSON (RFC 8259): strings are escaped, non-finite
//! floats become `null`.
//!
//! The reader side ([`parse`], [`JsonValue`], [`FromJson`]) exists for the
//! resumable sweep sidecars (`crate::stream`): a checkpointed run must read
//! its own records back and reassemble rows **byte-identically** to a fresh
//! run. Two representation choices make that exactness cheap:
//!
//! * numbers are kept as their *raw source text* ([`JsonValue::Num`]) and
//!   only parsed at field-extraction time, so a `u64` beyond 2^53 survives
//!   the round trip without detouring through `f64`;
//! * `f64` fields re-parse the shortest-representation text Rust's `{}`
//!   formatting emitted, which round-trips bit-exactly for every finite
//!   value, and `null` maps back to `NAN` (matching the writer, which emits
//!   `null` for non-finite floats).

/// A value that can write itself as JSON.
pub trait ToJson {
    /// Append the JSON encoding of `self` to `out`.
    fn write_json(&self, out: &mut String);

    /// The JSON encoding as a fresh string.
    fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for ch in self.chars() {
            match ch {
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
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for u64 {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

impl ToJson for usize {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&format!("{self}"));
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for (usize, usize) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n ");
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

/// A parsed JSON value. Numbers keep their raw source text so integer and
/// float fields can be extracted without a lossy `f64` round trip.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as the exact text that appeared in the input.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in source order (the harness never emits duplicate
    /// keys).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up a field of an object by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// How deeply arrays and objects may nest. The harness writes at most five
/// levels (`BENCH_fig8.json`); the cap turns a corrupt run of brackets into
/// an error instead of a stack overflow.
const MAX_DEPTH: usize = 64;

/// Parse a JSON document. Errors carry the byte offset they occurred at —
/// enough to diagnose a corrupt sidecar record; this is a reader for the
/// harness's own output, not a general-purpose validator.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(input, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", ch as char))
    }
}

/// Parse the value at `pos`, `depth` arrays and objects down.
fn parse_value(input: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(input, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(input, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(input, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(input, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).unwrap();
            // Validate once so extraction errors cannot hide a corrupt file.
            text.parse::<f64>()
                .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))?;
            Ok(JsonValue::Num(text.to_string()))
        }
        Some(c) => Err(format!("unexpected byte '{}' at byte {pos}", *c as char)),
    }
}

fn parse_string(input: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = input.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(format!("unterminated string at byte {pos}")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        // Four hex digits; `get` refuses a range that splits
                        // a multi-byte character.
                        let at = *pos - 1;
                        let ch = input
                            .get(*pos + 1..*pos + 5)
                            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                            .and_then(|hex| char::from_u32(u32::from_str_radix(hex, 16).ok()?))
                            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
                        out.push(ch);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape verbatim (the
                // writer never escapes non-ASCII). Both are ASCII, so the run
                // ends on a character boundary of `input`.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(bytes.len() - *pos);
                out.push_str(&input[*pos..*pos + run]);
                *pos += run;
            }
        }
    }
}

/// A value that can reconstruct itself from parsed JSON — the inverse of
/// [`ToJson`] for the row types the resumable sweep sidecars store.
pub trait FromJson: Sized {
    /// Build `Self` from a parsed value.
    fn from_json(v: &JsonValue) -> Result<Self, String>;
}

impl FromJson for u64 {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::Num(s) => s.parse().map_err(|e| format!("u64 {s:?}: {e}")),
            other => Err(format!("expected u64, got {other:?}")),
        }
    }
}

impl FromJson for usize {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::Num(s) => s.parse().map_err(|e| format!("usize {s:?}: {e}")),
            other => Err(format!("expected usize, got {other:?}")),
        }
    }
}

impl FromJson for f64 {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::Num(s) => s.parse().map_err(|e| format!("f64 {s:?}: {e}")),
            // The writer emits null for non-finite floats; NAN is the only
            // non-finite value the harness produces (ratio placeholders).
            JsonValue::Null => Ok(f64::NAN),
            other => Err(format!("expected f64, got {other:?}")),
        }
    }
}

impl FromJson for bool {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }
}

impl FromJson for String {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::Str(s) => Ok(s.clone()),
            other => Err(format!("expected string, got {other:?}")),
        }
    }
}

impl FromJson for (usize, usize) {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let items = v
            .as_arr()
            .ok_or_else(|| format!("expected pair, got {v:?}"))?;
        match items {
            [a, b] => Ok((usize::from_json(a)?, usize::from_json(b)?)),
            _ => Err(format!(
                "expected 2-element array, got {} elements",
                items.len()
            )),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::Null => Ok(None),
            some => T::from_json(some).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        v.as_arr()
            .ok_or_else(|| format!("expected array, got {v:?}"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

/// Extract and convert one object field (helper for [`crate::impl_from_json!`]).
pub fn field<T: FromJson>(v: &JsonValue, name: &str) -> Result<T, String> {
    let field = v
        .get(name)
        .ok_or_else(|| format!("missing field {name:?}"))?;
    T::from_json(field).map_err(|e| format!("field {name:?}: {e}"))
}

/// Implement [`ToJson`] for a plain struct by listing its fields.
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                out.push('{');
                let mut first = true;
                $(
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = first;
                    $crate::json::ToJson::write_json(stringify!($field), out);
                    out.push(':');
                    $crate::json::ToJson::write_json(&self.$field, out);
                )+
                out.push('}');
            }
        }
    };
}

/// Implement [`FromJson`] for a plain struct by listing its fields — the
/// mirror of [`impl_to_json!`], used by the row types the resumable sweep
/// sidecars restore.
#[macro_export]
macro_rules! impl_from_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::JsonValue) -> Result<Self, String> {
                Ok(Self {
                    $($field: $crate::json::field(v, stringify!($field))?,)+
                })
            }
        }
    };
}

/// Declare a JSON-round-tripping record once: the documented struct as
/// written, plus [`ToJson`] and [`FromJson`] over the same field list (in
/// declaration order — the field order of every sidecar record and
/// `--json` row). A result row names the `Row` trait
/// after the struct name (`pub struct BhRow: Row { .. }`) and must then end
/// in a `host_ms: f64` field, which the sweep engine stamps with the job's
/// host time; sweep metadata omits the marker.
#[macro_export]
macro_rules! row {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident $(: $row:ident)? {
            $($(#[$fattr:meta])* pub $field:ident: $ty:ty,)+
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone, PartialEq)]
        $vis struct $name {
            $($(#[$fattr])* pub $field: $ty,)+
        }
        $crate::impl_to_json!($name { $($field),+ });
        $crate::impl_from_json!($name { $($field),+ });
        $(impl $crate::stream::$row for $name {
            fn set_host_ms(&mut self, ms: f64) {
                self.host_ms = ms;
            }
        })?
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_strings_encode() {
        assert_eq!(5u64.to_json(), "5");
        assert_eq!(true.to_json(), "true");
        assert_eq!(false.to_json(), "false");
        assert_eq!(2.5f64.to_json(), "2.5");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!("a\"b\\c\nd".to_json(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!((3usize, 4usize).to_json(), "[3,4]");
    }

    struct Row {
        name: String,
        count: u64,
        ratio: f64,
    }
    impl_to_json!(Row { name, count, ratio });

    #[test]
    fn structs_and_vectors_encode() {
        let rows = vec![
            Row {
                name: "a".into(),
                count: 1,
                ratio: 0.5,
            },
            Row {
                name: "b".into(),
                count: 2,
                ratio: f64::INFINITY,
            },
        ];
        let json = rows.to_json();
        assert_eq!(
            json,
            "[{\"name\":\"a\",\"count\":1,\"ratio\":0.5},\n {\"name\":\"b\",\"count\":2,\"ratio\":null}]"
        );
    }

    impl_from_json!(Row { name, count, ratio });

    #[test]
    fn structs_round_trip_byte_identically() {
        // The resume invariant in miniature: serialize → parse → restore →
        // re-serialize must reproduce the exact bytes, including a u64 above
        // 2^53 (which would corrupt through an f64 detour), a
        // shortest-representation float, and a NAN→null placeholder.
        let row = Row {
            name: "mesh 4x4 \"q\"\n".into(),
            count: 9_007_199_254_740_993, // 2^53 + 1
            ratio: 0.1,
        };
        let json = row.to_json();
        let back = Row::from_json(&parse(&json).unwrap()).unwrap();
        assert_eq!(back.to_json(), json);
        let nan = Row {
            name: "x".into(),
            count: 1,
            ratio: f64::NAN,
        };
        let json = nan.to_json();
        let back = Row::from_json(&parse(&json).unwrap()).unwrap();
        assert!(back.ratio.is_nan());
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn parser_handles_the_harness_shapes() {
        let v = parse("{\"a\":[1,2.5,null],\"b\":\"x\\u0041\",\"c\":true,\"d\":{}}").unwrap();
        assert_eq!(v.get("b"), Some(&JsonValue::Str("xA".into())));
        assert_eq!(v.get("c"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("d"), Some(&JsonValue::Obj(vec![])));
        // Whitespace and the row-separator the Vec writer emits.
        parse("[{\"a\":1},\n {\"a\":2}]").unwrap();
        // Errors, not panics, on garbage.
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn a_unicode_escape_that_splits_a_character_is_an_error() {
        // The four bytes after `\u` end inside the two-byte 'é'.
        let err = parse("\"\\u000é\"").unwrap_err();
        assert!(err.contains("at byte 1"), "{err}");
        for bad in ["\"\\u00\"", "\"\\u+041\"", "\"\\ud800\""] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn multi_byte_characters_round_trip_anywhere_in_a_string() {
        for ch in ['é', '€', '𝄞'] {
            for text in [
                format!("{ch}ab"),
                format!("a{ch}b"),
                format!("ab{ch}"),
                format!("a\n{ch}b"),
                format!("\"{ch}{ch}\\"),
            ] {
                let json = text.to_json();
                assert_eq!(parse(&json), Ok(JsonValue::Str(text.clone())), "{json}");
            }
            let escaped = format!("\"\\u0041{ch}\"");
            assert_eq!(parse(&escaped), Ok(JsonValue::Str(format!("A{ch}"))));
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let deepest = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&deepest).is_ok());
        let err = parse(&format!("[{deepest}]")).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn field_extraction_reports_what_is_missing() {
        let v = parse("{\"a\":1}").unwrap();
        assert_eq!(field::<u64>(&v, "a").unwrap(), 1);
        let err = field::<u64>(&v, "b").unwrap_err();
        assert!(err.contains("missing field"), "{err}");
        let err = field::<String>(&v, "a").unwrap_err();
        assert!(err.contains("expected string"), "{err}");
    }

    #[test]
    fn pairs_round_trip() {
        let v = parse("[3,4]").unwrap();
        assert_eq!(<(usize, usize)>::from_json(&v).unwrap(), (3, 4));
        assert!(<(usize, usize)>::from_json(&parse("[3]").unwrap()).is_err());
    }
}
