//! The JSON row writer: one flat object per output line.
//!
//! The build environment is offline, so there is no `serde`; every line
//! the harness emits is a flat object whose values are numbers, booleans,
//! strings, or arrays of numbers, which `write_json` appends straight
//! into a caller's reused buffer. The one part that must be *correct*
//! rather than merely convenient is string escaping — labels contain
//! `<`, `>`, commas today and arbitrary text tomorrow — so
//! [`escape_json`] and its inverse [`unescape_json`] are round-trip
//! tested over the full control-character range.

use std::fmt::Write as _;

use ddp_core::FieldValue;

use crate::fields::{record_row, Column};
use crate::record::RunRecord;

/// Escapes a string for inclusion in a JSON string literal (RFC 8259):
/// quotes, backslashes, and all control characters below U+0020.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped per [`escape_json`].
fn push_escaped(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Inverse of [`escape_json`]: decodes the escape sequences of a JSON
/// string body (the text between the quotes). Returns `None` on a
/// malformed escape. Surrogate pairs are accepted for completeness even
/// though [`escape_json`] never emits them.
#[must_use]
pub fn unescape_json(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'b' => out.push('\u{08}'),
            'f' => out.push('\u{0C}'),
            'u' => {
                let mut code = read_hex4(&mut chars)?;
                if (0xD800..0xDC00).contains(&code) {
                    // High surrogate: a low surrogate escape must follow.
                    if chars.next()? != '\\' || chars.next()? != 'u' {
                        return None;
                    }
                    let low = read_hex4(&mut chars)?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return None;
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

fn read_hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
    let mut code = 0u32;
    for _ in 0..4 {
        code = code * 16 + chars.next()?.to_digit(16)?;
    }
    Some(code)
}

/// Appends a float's JSON text: the shortest round-trip representation
/// for finite values, `null` for NaN/infinities (which JSON cannot carry).
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `[a,b,...]`, each element written by `item`.
fn push_array<T>(out: &mut String, items: &[T], item: impl Fn(&mut String, &T)) {
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// Appends one column value's JSON text. Strings are quoted and escaped;
/// `(node, ns)` traces become `[[node,ns],...]`.
pub(crate) fn write_json_value(out: &mut String, value: &FieldValue<'_>) {
    match value {
        FieldValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(v) => push_f64(out, *v),
        FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        FieldValue::Str(v) => {
            out.push('"');
            push_escaped(out, v);
            out.push('"');
        }
        FieldValue::Pairs(v) => push_array(out, v, |out, (n, t)| {
            let _ = write!(out, "[{n},{t}]");
        }),
        FieldValue::U64s(v) => push_array(out, v, |out, x| {
            let _ = write!(out, "{x}");
        }),
        FieldValue::F64s(v) => push_array(out, v, |out, &x| push_f64(out, x)),
    }
}

/// Appends one row to `out` as a flat JSON object (no trailing newline),
/// columns in row order. Every `--json`, `--trace` and `--timeline` line
/// is written by this function.
pub(crate) fn write_json<'a>(out: &mut String, row: impl IntoIterator<Item = Column<'a>>) {
    out.push('{');
    for (i, (name, value)) in row.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        push_escaped(out, name);
        out.push_str("\":");
        write_json_value(out, &value);
    }
    out.push('}');
}

/// One row as a fresh JSON string: the `-> String` form of [`write_json`].
pub(crate) fn to_json<'a>(row: impl IntoIterator<Item = Column<'a>>) -> String {
    let mut out = String::new();
    write_json(&mut out, row);
    out
}

/// Serializes one run record as a single JSON object (one JSON-lines row):
/// the [`record_fields`](crate::fields::record_fields) columns — the
/// schema the CSV writer walks too, so the two formats cannot drift —
/// followed, for a sharded record, by its per-shard breakdown (JSON only;
/// see [`crate::fleet`]). Records contain only simulation output, so the
/// serialized form is byte-identical no matter how many threads executed
/// the sweep.
#[must_use]
pub fn record_to_json(r: &RunRecord) -> String {
    to_json(record_row(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_specials_and_controls() {
        let mut nasty =
            String::from("plain <model, label> \"quoted\" back\\slash\n\r\t\u{08}\u{0C}");
        for c in 0u32..0x20 {
            nasty.push(char::from_u32(c).unwrap());
        }
        nasty.push('\u{1F600}'); // astral, must pass through unescaped
        let escaped = escape_json(&nasty);
        assert!(!escaped.contains('\u{01}'), "control chars must be escaped");
        assert_eq!(unescape_json(&escaped).as_deref(), Some(nasty.as_str()));
    }

    #[test]
    fn unescape_decodes_surrogate_pairs_and_rejects_malformed() {
        assert_eq!(
            unescape_json("\\ud83d\\ude00").as_deref(),
            Some("\u{1F600}")
        );
        assert_eq!(unescape_json("\\u0041"), Some("A".to_string()));
        assert!(unescape_json("\\q").is_none());
        assert!(unescape_json("\\u00").is_none());
        assert!(unescape_json("\\ud83d alone").is_none());
        assert!(unescape_json("trailing \\").is_none());
    }

    /// One column's JSON value text.
    fn value(v: FieldValue<'_>) -> String {
        let mut out = String::new();
        write_json_value(&mut out, &v);
        out
    }

    #[test]
    fn json_f64_handles_non_finite() {
        assert_eq!(value(FieldValue::F64(1.5)), "1.5");
        assert_eq!(value(FieldValue::F64(f64::NAN)), "null");
        assert_eq!(value(FieldValue::F64(f64::INFINITY)), "null");
        let floats = [0.25, f64::NEG_INFINITY];
        assert_eq!(value(FieldValue::F64s(&floats)), "[0.25,null]");
    }

    #[test]
    fn row_writer_emits_every_variant_as_flat_json() {
        let (pairs, ints, floats) = ([(2, 100)], [1, 2], [0.5]);
        let line = to_json([
            ("a", FieldValue::Str("x\"y".into())),
            ("b", FieldValue::U64(7)),
            ("c", FieldValue::F64(0.25)),
            ("d", FieldValue::Bool(true)),
            ("e", FieldValue::Bool(false)),
            ("f", FieldValue::Pairs(&pairs)),
            ("g", FieldValue::U64s(&ints)),
            ("h", FieldValue::F64s(&floats)),
        ]);
        assert_eq!(
            line,
            r#"{"a":"x\"y","b":7,"c":0.25,"d":true,"e":false,"f":[[2,100]],"g":[1,2],"h":[0.5]}"#
        );
        assert_eq!(to_json([]), "{}");
    }

    #[test]
    fn row_writer_appends_to_the_buffer() {
        let mut out = String::from("kept");
        write_json(&mut out, [("k", FieldValue::U64(1))]);
        assert_eq!(out, r#"kept{"k":1}"#);
    }

    #[test]
    fn events_serialize_as_pair_arrays() {
        assert_eq!(value(FieldValue::Pairs(&[])), "[]");
        assert_eq!(
            value(FieldValue::Pairs(&[(2, 100), (3, 7)])),
            "[[2,100],[3,7]]"
        );
        assert_eq!(value(FieldValue::U64s(&[])), "[]");
    }
}
