//! One output stream type for `--json`, `--csv`, `--trace` and
//! `--timeline`.
//!
//! Opening a [`Stream`] only checks that its path can be written, without
//! truncating it; the file is truncated when the first row is written, or
//! at [`Stream::finish`]. A run refused before it produces output — an
//! uncreatable later path, an invalid trial config — therefore leaves
//! every existing output file as it was.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::csv::{csv_header, write_csv};
use crate::fields::Column;
use crate::json::write_json;

/// How a [`Stream`] serializes its rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Format {
    /// One JSON object per line.
    Json,
    /// CSV run records, led by the [`csv_header`] line.
    Csv,
}

/// One output file: each row is serialized into a reused line buffer and
/// appended to the buffered file.
#[derive(Debug)]
pub(crate) struct Stream {
    flag: &'static str,
    path: PathBuf,
    format: Format,
    file: Option<BufWriter<File>>,
    line: String,
    rows: u64,
}

impl Stream {
    /// Checks that `path` can be opened for writing (creating it if it
    /// does not exist, never truncating it); the error names `flag` and
    /// the path.
    pub(crate) fn open(flag: &'static str, path: &Path, format: Format) -> Result<Self, String> {
        OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| format!("cannot create {flag} {}: {e}", path.display()))?;
        Ok(Stream {
            flag,
            path: path.to_path_buf(),
            format,
            file: None,
            line: String::new(),
            rows: 0,
        })
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Rows written so far (a CSV header is not counted).
    pub(crate) fn rows(&self) -> u64 {
        self.rows
    }

    /// The open file, truncating the path (and writing the CSV header) on
    /// first use.
    fn file(&mut self) -> io::Result<&mut BufWriter<File>> {
        if self.file.is_none() {
            let mut file = BufWriter::new(File::create(&self.path)?);
            if self.format == Format::Csv {
                file.write_all(csv_header().as_bytes())?;
                file.write_all(b"\n")?;
            }
            self.file = Some(file);
        }
        Ok(self.file.as_mut().expect("opened above"))
    }

    fn error(&self, e: &io::Error) -> String {
        format!("cannot write {} {}: {e}", self.flag, self.path.display())
    }

    /// Serializes one row as a line; the error names the flag, the path
    /// and the I/O error.
    pub(crate) fn write<'a>(
        &mut self,
        row: impl IntoIterator<Item = Column<'a>>,
    ) -> Result<(), String> {
        let mut line = std::mem::take(&mut self.line);
        line.clear();
        match self.format {
            Format::Json => write_json(&mut line, row),
            Format::Csv => write_csv(&mut line, row),
        }
        line.push('\n');
        let written = self.file().and_then(|f| f.write_all(line.as_bytes()));
        self.line = line;
        written.map_err(|e| self.error(&e))?;
        self.rows += 1;
        Ok(())
    }

    /// Flushes the stream, first truncating the path if no row was
    /// written (a CSV stream then holds its header alone).
    pub(crate) fn finish(&mut self) -> Result<(), String> {
        self.file()
            .and_then(Write::flush)
            .map_err(|e| self.error(&e))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ddp_core::FieldValue;

    /// A file under the system temp dir holding `old`, unique to this
    /// test process.
    pub(crate) fn existing_file(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("ddp-{}-{name}", std::process::id()));
        std::fs::write(&path, "old\n").expect("write existing file");
        path
    }

    #[test]
    fn opening_leaves_an_existing_file_intact_until_the_first_row() {
        let path = existing_file("intact.jsonl");
        let mut stream = Stream::open("--json", &path, Format::Json).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "old\n");
        stream.write([("k", FieldValue::U64(1))]).unwrap();
        stream.finish().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"k\":1}\n");
        assert_eq!(stream.rows(), 1);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn an_empty_csv_stream_holds_its_header() {
        let path = existing_file("empty.csv");
        let mut stream = Stream::open("--csv", &path, Format::Csv).unwrap();
        stream.finish().unwrap();
        let header = format!("{}\n", csv_header());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), header);
        assert_eq!(stream.rows(), 0);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_write_error_is_one_line_naming_flag_and_path() {
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let mut stream = Stream::open("--json", full, Format::Json).unwrap();
        // The buffered row reaches the device at the flush.
        let err = match stream.write([("k", FieldValue::U64(1))]) {
            Ok(()) => stream.finish().expect_err("/dev/full accepts no bytes"),
            Err(e) => e,
        };
        assert!(err.starts_with("cannot write --json /dev/full: "), "{err}");
        assert!(!err.contains('\n'), "{err}");
    }
}
