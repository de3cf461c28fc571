//! The CSV row writer (`--csv PATH`).
//!
//! A `--csv` row is the [`record_fields`] schema — the exact field list
//! `--json` serializes, in the same order — so the two output formats
//! cannot drift. Quoting follows RFC 4180: a cell is quoted when it
//! contains a comma, a double quote, or a line break, and embedded quotes
//! are doubled. Every other value is its JSON text, so event traces
//! serialize as their JSON pair-array text (quoted, since it contains
//! commas), which keeps a CSV row lossless with respect to the JSON
//! record.

use ddp_core::FieldValue;

use crate::fields::{record_fields, Column};
use crate::json::write_json_value;
use crate::record::RunRecord;

/// Quotes the cell `out[start..]` in place per RFC 4180, if it needs it.
fn quote_from(out: &mut String, start: usize) {
    if out[start..].contains([',', '"', '\n', '\r']) {
        let cell = out.split_off(start);
        out.push('"');
        out.push_str(&cell.replace('"', "\"\""));
        out.push('"');
    }
}

/// Escapes one CSV cell per RFC 4180.
#[must_use]
pub fn escape_csv(cell: &str) -> String {
    let mut out = cell.to_string();
    quote_from(&mut out, 0);
    out
}

/// Appends one row to `out` as comma-separated cells (no trailing
/// newline), columns in row order. Strings are written raw and every
/// other value as its JSON text, each cell quoted if it needs it.
pub(crate) fn write_csv<'a>(out: &mut String, row: impl IntoIterator<Item = Column<'a>>) {
    for (i, (_, value)) in row.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let start = out.len();
        match &value {
            FieldValue::Str(v) => out.push_str(v),
            v => write_json_value(out, v),
        }
        quote_from(out, start);
    }
}

/// The CSV header line: the schema's field names, comma-joined. Field
/// names are data-independent, so the header comes from walking the
/// schema of a default-valued probe record.
#[must_use]
pub fn csv_header() -> String {
    let record = RunRecord::empty_schema_probe();
    record_fields(&record)
        .iter()
        .map(|(name, _)| escape_csv(name))
        .collect::<Vec<_>>()
        .join(",")
}

/// Serializes one run record as a CSV row (no trailing newline), columns
/// in [`csv_header`] order.
#[must_use]
pub fn record_to_csv(r: &RunRecord) -> String {
    let mut out = String::new();
    write_csv(&mut out, record_fields(r));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_quotes_only_when_needed() {
        assert_eq!(escape_csv("plain"), "plain");
        assert_eq!(escape_csv("a,b"), "\"a,b\"");
        assert_eq!(escape_csv("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(escape_csv("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn header_and_rows_share_the_schema_width() {
        let record = RunRecord::empty_schema_probe();
        let header_cols = csv_header().split(',').count();
        assert_eq!(header_cols, record_fields(&record).len());
        // A probe record has no commas outside quoted cells, so the row
        // splits to the same width.
        assert_eq!(record_to_csv(&record).split(',').count(), header_cols);
    }

    #[test]
    fn row_writer_emits_every_variant_as_a_cell() {
        let (pairs, one, ints, floats) = ([(2, 100)], [5], [1, 2], [0.5, f64::NAN]);
        let mut row = String::from("kept:");
        write_csv(
            &mut row,
            [
                ("a", FieldValue::Str("x\"y".into())),
                ("b", FieldValue::Str("plain".into())),
                ("c", FieldValue::U64(7)),
                ("d", FieldValue::F64(0.25)),
                ("e", FieldValue::F64(f64::INFINITY)),
                ("f", FieldValue::Bool(true)),
                ("g", FieldValue::Pairs(&pairs)),
                ("h", FieldValue::Pairs(&[])),
                ("i", FieldValue::U64s(&one)),
                ("j", FieldValue::U64s(&ints)),
                ("k", FieldValue::F64s(&floats)),
            ],
        );
        assert_eq!(
            row,
            r#"kept:"x""y",plain,7,0.25,null,true,"[[2,100]]",[],[5],"[1,2]","[0.5,null]""#
        );
    }

    #[test]
    fn hostile_label_round_trips_in_one_logical_row() {
        let mut record = RunRecord::empty_schema_probe();
        record.label = "a \"quoted\", label".to_string();
        let row = record_to_csv(&record);
        assert!(row.contains("\"a \"\"quoted\"\", label\""));
    }
}
