//! CSV output for run records (`--csv PATH`).
//!
//! The column list is the [`record_fields`] schema — the exact field list
//! `--json` serializes, in the same order — so the two output formats
//! cannot drift. Quoting follows RFC 4180: a cell is quoted when it
//! contains a comma, a double quote, or a line break, and embedded quotes
//! are doubled. Event traces serialize as their JSON pair-array text
//! (quoted, since it contains commas), which keeps a CSV row lossless
//! with respect to the JSON record.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use ddp_core::FieldValue;

use crate::fields::record_fields;
use crate::json::{json_events, json_f64};
use crate::record::RunRecord;

/// Escapes one CSV cell per RFC 4180.
#[must_use]
pub fn escape_csv(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') || cell.contains('\r') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
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
    record_fields(r)
        .iter()
        .map(|(_, value)| match value {
            FieldValue::U64(v) => v.to_string(),
            // `json_f64` gives the shortest round-trip float text (and
            // `null` for non-finite values), matching the JSON stream.
            FieldValue::F64(v) => json_f64(*v),
            FieldValue::Str(v) => escape_csv(v),
            FieldValue::Pairs(v) => escape_csv(&json_events(v)),
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// A CSV file writer: header on creation, one record per row, flushed
/// explicitly.
#[derive(Debug)]
pub struct CsvWriter {
    out: BufWriter<File>,
    path: PathBuf,
    rows: u64,
}

impl CsvWriter {
    /// Creates (truncating) the output file and writes the header line.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut out = BufWriter::new(File::create(&path)?);
        out.write_all(csv_header().as_bytes())?;
        out.write_all(b"\n")?;
        Ok(CsvWriter { out, path, rows: 0 })
    }

    /// Writes one run record as a row.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_record(&mut self, record: &RunRecord) -> io::Result<()> {
        self.out.write_all(record_to_csv(record).as_bytes())?;
        self.out.write_all(b"\n")?;
        self.rows += 1;
        Ok(())
    }

    /// Writes a batch of records, one row each, in slice order.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_records(&mut self, records: &[RunRecord]) -> io::Result<()> {
        for r in records {
            self.write_record(r)?;
        }
        Ok(())
    }

    /// Data rows written so far (the header is not counted).
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The path being written.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flushes buffered output.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
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
    fn hostile_label_round_trips_in_one_logical_row() {
        let mut record = RunRecord::empty_schema_probe();
        record.label = "a \"quoted\", label".to_string();
        let row = record_to_csv(&record);
        assert!(row.contains("\"a \"\"quoted\"\", label\""));
    }
}
