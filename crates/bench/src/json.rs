//! The workspace's one JSON codec: [`ToJson`] writes results and trajectory
//! files, [`parse_json`] reads them back.
//!
//! The writer emits the 2-space pretty layout (one value per line, object
//! keys in declaration order, `[]`/`{}` when empty). Floats are written
//! with `{:?}`, so they round-trip exactly and `1.0` stays `1.0`;
//! non-finite floats and `None` are written as `null`. [`json_struct!`]
//! defines a plain struct together with its `ToJson` impl, so each field
//! list is written once.

use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// A value that writes itself as pretty-printed JSON.
pub trait ToJson {
    /// Appends `self` to `out`. `depth` is the nesting level the value sits
    /// at; containers indent their entries one level (2 spaces) deeper and
    /// their closing bracket at `depth`.
    fn write_json(&self, out: &mut String, depth: usize);
}

/// `value` as a pretty-printed JSON document (no trailing newline).
pub fn to_json_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out, 0);
    out
}

/// Writes an object whose fields appear in the given order.
pub fn write_object<'a>(
    out: &mut String,
    depth: usize,
    fields: impl IntoIterator<Item = (&'a str, &'a dyn ToJson)>,
) {
    write_block(
        out,
        depth,
        ['{', '}'],
        fields.into_iter().map(|(k, v)| (Some(k), v)),
    );
}

fn write_block<'a>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    entries: impl Iterator<Item = (Option<&'a str>, &'a dyn ToJson)>,
) {
    out.push(open);
    let mut empty = true;
    for (key, value) in entries {
        out.push_str(if empty { "\n" } else { ",\n" });
        empty = false;
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            push_str(out, key);
            out.push_str(": ");
        }
        value.write_json(out, depth + 1);
    }
    if !empty {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// Appends `s` as a quoted JSON string.
fn push_str(out: &mut String, s: &str) {
    let _ = write!(out, "\"{}\"", tm_obs::json_escape(s));
}

macro_rules! to_json_display {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String, _depth: usize) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

to_json_display!(u64, usize, bool);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String, _depth: usize) {
        if self.is_finite() {
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String, _depth: usize) {
        push_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String, depth: usize) {
        self.as_str().write_json(out, depth);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String, depth: usize) {
        (**self).write_json(out, depth);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String, depth: usize) {
        match self {
            Some(v) => v.write_json(out, depth),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String, depth: usize) {
        write_block(
            out,
            depth,
            ['[', ']'],
            self.iter().map(|v| (None, v as &dyn ToJson)),
        );
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, depth: usize) {
        self.as_slice().write_json(out, depth);
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String, depth: usize) {
        self.as_slice().write_json(out, depth);
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String, depth: usize) {
        let items: [&dyn ToJson; 2] = [&self.0, &self.1];
        write_block(out, depth, ['[', ']'], items.into_iter().map(|v| (None, v)));
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn write_json(&self, out: &mut String, depth: usize) {
        write_object(
            out,
            depth,
            self.iter().map(|(k, v)| (k.as_str(), v as &dyn ToJson)),
        );
    }
}

/// Defines structs and their [`ToJson`] impls from one field list each;
/// fields are written in declaration order under their own names. The generated
/// `json_fields` lets a hand-written impl splice them into another object.
#[macro_export]
macro_rules! json_struct {
    ($(
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
        }
    )*) => {$(
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty),*
        }

        impl $name {
            /// The `(name, value)` fields, in declaration order.
            $vis fn json_fields(&self) -> Vec<(&'static str, &dyn $crate::json::ToJson)> {
                vec![$((stringify!($field), &self.$field as &dyn $crate::json::ToJson)),*]
            }
        }

        impl $crate::json::ToJson for $name {
            fn write_json(&self, out: &mut String, depth: usize) {
                $crate::json::write_object(out, depth, self.json_fields());
            }
        }
    )*};
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`; integers stay exact below 2⁵³, far
    /// beyond any counter here).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered pairs; duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

static NULL: Json = Json::Null;

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        *self == Json::Null
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object's `(key, value)` pairs, in document order.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// `value["key"]`: the field, or `null` when absent or not an object.
impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

/// `value[i]`: the element, or `null` when out of range or not an array.
impl std::ops::Index<usize> for Json {
    type Output = Json;
    fn index(&self, i: usize) -> &Json {
        self.as_arr().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.eat_lit("true", Json::Bool(true)),
            b'f' => self.eat_lit("false", Json::Bool(false)),
            b'n' => self.eat_lit("null", Json::Null),
            _ => self.number(),
        }
    }

    /// Parses `open entry (, entry)* close`, reading each entry with `entry`.
    fn seq(
        &mut self,
        [open, close]: [u8; 2],
        mut entry: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            entry(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    let close = close as char;
                    return Err(format!("expected ',' or '{close}' at byte {}", self.pos));
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.seq([b'{', b'}'], |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let val = p.value()?;
            if !pairs.iter().any(|(k, _)| *k == key) {
                pairs.push((key, val));
            }
            Ok(())
        })?;
        Ok(Json::Obj(pairs))
    }

    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        self.seq([b'[', b']'], |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or("unterminated escape")? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(
                                char::from_u32(code).ok_or("surrogate \\u escape unsupported")?,
                            );
                            self.pos += 4;
                        }
                        b => return Err(format!("bad escape \\{}", b as char)),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        token
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {token:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{CurvePoint, RunOutcome};

    crate::json_struct! {
        /// Every field shape the result structs use.
        struct Shapes {
            int: u64,
            size: usize,
            float: f64,
            whole: f64,
            nan: f64,
            text: String,
            label: &'static str,
            some: Option<f64>,
            none: Option<f64>,
            list: Vec<u64>,
            empty: Vec<u64>,
            pair: [f64; 2],
            tuple: (u64, f64),
            map: BTreeMap<String, Vec<(f64, f64)>>,
        }
    }

    fn shapes() -> Shapes {
        Shapes {
            int: 42,
            size: 7,
            float: 0.1,
            whole: 1.0,
            nan: f64::NAN,
            text: "quote \" slash \\ newline \n tab \t bell \u{7}".into(),
            label: "TMerge-B",
            some: Some(2.5),
            none: None,
            list: vec![1, 2, 3],
            empty: vec![],
            pair: [0.25, -3.0],
            tuple: (9, 1e-7),
            map: BTreeMap::from([
                ("b".to_string(), vec![(0.5, 1.5)]),
                ("a".to_string(), vec![]),
            ]),
        }
    }

    #[test]
    fn every_shape_round_trips_through_the_parser() {
        let v = parse_json(&to_json_pretty(&shapes())).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "int", "size", "float", "whole", "nan", "text", "label", "some", "none", "list",
                "empty", "pair", "tuple", "map"
            ],
            "fields are written in declaration order"
        );
        assert_eq!(v["int"].as_u64(), Some(42));
        assert_eq!(v["size"].as_u64(), Some(7));
        assert_eq!(v["float"].as_f64(), Some(0.1));
        assert_eq!(v["whole"].as_f64(), Some(1.0));
        assert!(v["nan"].is_null(), "non-finite floats are null");
        assert_eq!(v["text"].as_str(), Some(shapes().text.as_str()));
        assert_eq!(v["label"].as_str(), Some("TMerge-B"));
        assert_eq!(v["some"].as_f64(), Some(2.5));
        assert!(v["none"].is_null());
        assert_eq!(
            v["list"],
            Json::Arr(vec![Json::Num(1.0), Json::Num(2.0), Json::Num(3.0)])
        );
        assert_eq!(v["empty"], Json::Arr(vec![]));
        assert_eq!(v["pair"], Json::Arr(vec![Json::Num(0.25), Json::Num(-3.0)]));
        assert_eq!(v["tuple"][0].as_u64(), Some(9));
        assert_eq!(v["tuple"][1].as_f64(), Some(1e-7));
        let map = v["map"].as_obj().unwrap();
        assert_eq!(map[0].0, "a", "map keys are written in sorted order");
        assert_eq!(map[0].1, Json::Arr(vec![]));
        assert_eq!(v["map"]["b"][0][1].as_f64(), Some(1.5));
        assert!(v["missing"].is_null() && v["list"][9].is_null());
    }

    #[test]
    fn layout_is_two_space_pretty_with_debug_floats() {
        let point = CurvePoint {
            param: "tau=10".into(),
            outcome: RunOutcome {
                rec: 1.0,
                fps: 2.5,
                runtime_s: 0.0,
                distance_evals: 3,
                n_candidates: 4,
                inferences: 5,
                cache_hits: 6,
            },
        };
        let mut map = BTreeMap::new();
        map.insert("TMerge".to_string(), vec![point]);
        map.insert("none".to_string(), vec![]);
        assert_eq!(
            to_json_pretty(&map),
            r#"{
  "TMerge": [
    {
      "param": "tau=10",
      "rec": 1.0,
      "fps": 2.5,
      "runtime_s": 0.0,
      "distance_evals": 3,
      "n_candidates": 4,
      "inferences": 5,
      "cache_hits": 6
    }
  ],
  "none": []
}"#
        );
        assert_eq!(
            to_json_pretty(&(1u64, [0.5, f64::INFINITY])),
            "[\n  1,\n  [\n    0.5,\n    null\n  ]\n]"
        );
    }

    #[test]
    fn curve_point_flattens_every_outcome_field_after_param() {
        let outcome = RunOutcome {
            rec: 0.5,
            fps: 1.0,
            runtime_s: 2.0,
            distance_evals: 3,
            n_candidates: 4,
            inferences: 5,
            cache_hits: 6,
        };
        let flat = parse_json(&to_json_pretty(&CurvePoint {
            param: "p".into(),
            outcome,
        }))
        .unwrap();
        let nested = parse_json(&to_json_pretty(&outcome)).unwrap();
        let mut expected = vec![("param".to_string(), Json::Str("p".into()))];
        expected.extend(nested.as_obj().unwrap().iter().cloned());
        assert_eq!(flat, Json::Obj(expected));
    }
}
