//! Minimal JSON value, renderer and parser: the workspace's one JSON module.
//!
//! The workspace's `serde`/`serde_json` are offline no-op shims, so anything
//! that must actually move structured data through text goes through this
//! hand-rolled module instead: streamed [`RunReport`](crate::report::RunReport)
//! progress lines, checkpoint headers, job specs, the ensemble event bus and
//! the benchmark artifacts (`BENCH_*.json`) the bench binaries write and
//! `perf_gate` reads back. It is deliberately small: objects preserve
//! insertion order, numbers distinguish integers from floats, and floats
//! render with Rust's shortest-roundtrip `Display`, which parses back to the
//! identical bit pattern. `{}` renders compact JSON and `{:#}` the same
//! tree indented two spaces per level.

use std::fmt;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so without a bound a long run of `[`
/// overflows the stack: an abort, not an `Err`, which no caller can catch.
/// The deepest document the crate writes, a checkpoint header, nests a few
/// levels (a test checks it stays far below this bound).
pub const MAX_DEPTH: usize = 128;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fraction or exponent, kept exact.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on render.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Object member by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` (accepting `Int` losslessly for small magnitudes).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed, trailing
    /// garbage and nesting deeper than [`MAX_DEPTH`] rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Nesting depth: 0 for a scalar, one more per enclosing array or object.
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        let children: Vec<&Json> = match self {
            Json::Arr(items) => items.iter().collect(),
            Json::Obj(members) => members.iter().map(|(_, v)| v).collect(),
            _ => return 0,
        };
        1 + children.into_iter().map(Json::depth).max().unwrap_or(0)
    }
}

impl fmt::Display for Json {
    /// Compact JSON; with the alternate flag (`{:#}`), one member or item per
    /// line, indented two spaces per level. Empty containers stay `[]`/`{}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl Json {
    /// Render at nesting `depth` (only the indented form uses it).
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(x) => {
                if x.is_finite() {
                    // Shortest-roundtrip Display; force a marker so the
                    // value re-parses as Num, not Int.
                    let s = format!("{x}");
                    if s.contains(['.', 'e', 'E']) {
                        f.write_str(&s)
                    } else {
                        write!(f, "{s}.0")
                    }
                } else {
                    // JSON has no Inf/NaN; null is the conventional stand-in.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => write_seq(f, depth, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(members) => write_seq(
                f,
                depth,
                "{}",
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Render an array (keys `None`) or an object (keys `Some`) between
/// `brackets`, one item per line under the alternate flag.
fn write_seq<'a>(
    f: &mut fmt::Formatter<'_>,
    depth: usize,
    brackets: &str,
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) -> fmt::Result {
    let pretty = f.alternate();
    let newline = |f: &mut fmt::Formatter<'_>, depth: usize| {
        if pretty {
            write!(f, "\n{:1$}", "", 2 * depth)
        } else {
            Ok(())
        }
    };
    f.write_str(&brackets[..1])?;
    let mut empty = true;
    for (key, v) in items {
        if !empty {
            f.write_str(",")?;
        }
        empty = false;
        newline(f, depth + 1)?;
        if let Some(k) = key {
            write_escaped(f, k)?;
            f.write_str(if pretty { ": " } else { ":" })?;
        }
        v.write(f, depth + 1)?;
    }
    if !empty {
        newline(f, depth)?;
    }
    f.write_str(&brackets[1..])
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {}", *pos))
    }
}

/// Parse one value at `pos`, inside `depth` enclosing arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let start = *pos;
        while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
            *pos += 1;
        }
        out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid utf-8 in string")?);
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        *pos += 4;
                        // Surrogate pairs are not produced by our renderer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("unknown escape `\\{}`", esc as char)),
                }
            }
            Some(_) => unreachable!("scan stops only at quote or backslash"),
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
    if text.is_empty() || text == "-" {
        return Err(format!("expected value at byte {start}"));
    }
    if !is_float {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "42", "-7", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn floats_round_trip_bitwise() {
        for x in [0.1, -1e-310, 2.0 / 3.0, 6.02e23, f64::MIN_POSITIVE] {
            let rendered = Json::Num(x).to_string();
            let back = Json::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{rendered}");
        }
    }

    #[test]
    fn int_float_distinction_survives() {
        assert_eq!(Json::parse("3").unwrap(), Json::Int(3));
        assert_eq!(Json::parse("3.0").unwrap(), Json::Num(3.0));
        assert_eq!(Json::Num(3.0).to_string(), "3.0");
    }

    #[test]
    fn nested_structure_round_trips() {
        let text = r#"{"a":[1,2.5,{"b":"x\ny"}],"c":null,"d":{"e":true}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x\ny")
        );
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse(r#""tab\t quote\" ué""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\t quote\" u\u{e9}"));
        let s = Json::Str("a\"b\\c\nd\u{1}".into()).to_string();
        assert_eq!(Json::parse(&s).unwrap().as_str(), Some("a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        for text in ["[".repeat(1 << 20), "{\"a\":".repeat(1 << 18)] {
            let err = Json::parse(&text).unwrap_err();
            assert!(err.contains("nesting deeper"), "{err}");
        }
        let at_bound = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert_eq!(Json::parse(&at_bound).unwrap().depth(), MAX_DEPTH);
        let objects = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert_eq!(Json::parse(&objects).unwrap().depth(), MAX_DEPTH);
        let past = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&past).is_err());
    }

    #[test]
    fn renders_scalars_and_nesting() {
        let v = Json::obj(vec![
            ("name", Json::str("D3Q19")),
            ("mflups", Json::Num(12.5)),
            ("steps", Json::Int(8)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("arr", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"D3Q19","mflups":12.5,"steps":8,"ok":true,"none":null,"arr":[1,2]}"#
        );
    }

    #[test]
    fn escapes_strings_and_maps_nonfinite_to_null() {
        let v = Json::Arr(vec![
            Json::str("a\"b\\c\nd"),
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            Json::Num(f64::NEG_INFINITY),
        ]);
        assert_eq!(v.to_string(), r#"["a\"b\\c\nd",null,null,null]"#);
        assert_eq!(
            format!("{v:#}"),
            "[\n  \"a\\\"b\\\\c\\nd\",\n  null,\n  null,\n  null\n]"
        );
    }

    #[test]
    fn pretty_output_is_indented_and_reparsable_shape() {
        let v = Json::obj(vec![
            ("k", Json::Arr(vec![Json::Int(1)])),
            ("o", Json::obj(vec![("x", Json::Num(0.5))])),
        ]);
        // What the artifact writers put in a file: `{:#}` plus a newline.
        let s = format!("{v:#}\n");
        assert!(s.contains("\"k\": [\n"));
        assert!(s.ends_with("}\n"));
        assert_eq!(
            s,
            "{\n  \"k\": [\n    1\n  ],\n  \"o\": {\n    \"x\": 0.5\n  }\n}\n"
        );
        // Float roundtrip formatting keeps full precision.
        let f = Json::Num(0.1 + 0.2);
        assert_eq!(f.to_string(), format!("{:?}", 0.1f64 + 0.2f64));
    }

    #[test]
    fn empty_containers_stay_compact() {
        assert_eq!(format!("{:#}", Json::Arr(vec![])), "[]");
        assert_eq!(format!("{:#}", Json::Obj(vec![])), "{}");
        assert_eq!(Json::Obj(vec![]).to_string(), "{}");
        let nested = Json::obj(vec![("runs", Json::Arr(vec![]))]);
        assert_eq!(format!("{nested:#}"), "{\n  \"runs\": []\n}");
    }

    #[test]
    fn parse_roundtrips_rendered_artifacts() {
        let doc = Json::obj(vec![
            ("schema", Json::str("lbm-bench/kernels-mflups/v5")),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("n", Json::Int(-42)),
            ("x", Json::Num(0.7118)),
            ("tiny", Json::Num(7.697546304067752e-14)),
            ("huge", Json::Num(6.02e23)),
            (
                "summary",
                Json::obj(vec![(
                    "D3Q19",
                    Json::obj(vec![("aa_over_two_grid", Json::Num(0.86))]),
                )]),
            ),
            ("arr", Json::Arr(vec![Json::Int(1), Json::Num(2.5)])),
        ]);
        for rendered in [doc.to_string(), format!("{doc:#}\n")] {
            let back = Json::parse(&rendered).unwrap();
            assert_eq!(back, doc);
            assert_eq!(back.to_string(), doc.to_string());
        }
    }

    #[test]
    fn parse_accessors_walk_nested_objects() {
        let v =
            Json::parse(r#"{"summary":{"D3Q19":{"aa_over_two_grid":0.86,"name":"aa"}}}"#).unwrap();
        let entry = v.get("summary").and_then(|s| s.get("D3Q19")).unwrap();
        assert_eq!(
            entry.get("aa_over_two_grid").and_then(Json::as_f64),
            Some(0.86)
        );
        assert_eq!(entry.get("name").and_then(Json::as_str), Some("aa"));
        assert_eq!(v.get("missing").map(|_| ()), None);
    }

    #[test]
    fn parse_handles_escapes_and_rejects_garbage() {
        let v = Json::parse(r#"["a\"b\\c\nd", "\u0041"]"#).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some("a\"b\\c\nd"));
        assert_eq!(items[1].as_str(), Some("A"));
        assert!(Json::parse("{\"k\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("true false").is_err());
    }

    #[test]
    fn parse_distinguishes_ints_from_floats() {
        assert!(matches!(Json::parse("7").unwrap(), Json::Int(7)));
        assert!(matches!(Json::parse("-7").unwrap(), Json::Int(-7)));
        assert!(matches!(Json::parse("7.0").unwrap(), Json::Num(_)));
        assert!(matches!(Json::parse("1e3").unwrap(), Json::Num(_)));
        // i64-overflowing integers degrade to floats instead of failing.
        assert!(matches!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Num(_)
        ));
    }

    #[test]
    fn committed_kernel_artifact_reads_and_re_renders_losslessly() {
        let doc = Json::parse(include_str!("../../../BENCH_kernels.json")).unwrap();
        let summary = match doc.get("summary") {
            Some(Json::Obj(entries)) => entries,
            other => panic!("no summary object: {other:?}"),
        };
        // One finite value, at least, for each metric `perf_gate` compares.
        for metric in [
            "aa_over_two_grid",
            "fused_over_simd",
            "sparse_over_dense_per_fluid_cell",
        ] {
            let finite = summary
                .iter()
                .filter_map(|(_, e)| e.get(metric).and_then(Json::as_f64))
                .filter(|v| v.is_finite())
                .count();
            assert!(finite > 0, "{metric}: no finite value");
        }
        // The artifact was written with `{:?}` floats (exponent form for tiny
        // values); the indented re-render writes them out in full and must
        // read back to the same tree.
        let again = Json::parse(&format!("{doc:#}\n")).unwrap();
        assert_eq!(again, doc);
        assert_eq!(
            again.to_string(),
            doc.to_string(),
            "bitwise, signed zeros too"
        );
    }
}
