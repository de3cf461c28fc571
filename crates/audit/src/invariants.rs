//! Cross-file invariant checks: contracts that span crates and therefore
//! cannot be expressed as a single-file lint.
//!
//! * **trace-discriminants** — `TraceEventKind`
//!   (`crates/trace/src/record.rs`) must give every variant an explicit,
//!   unique discriminant, because trace consumers persist those numbers.
//! * **bench-ci-coverage** — every bench bin under
//!   `crates/bench/src/bin/` must be named in
//!   `.github/workflows/ci.yml`, so a new figure binary cannot silently
//!   skip CI smoke coverage.
//!
//! All checks are **presence-gated**: a check only runs when its anchor
//! file is in the audited set, so fixture tests can exercise one
//! invariant in isolation.

use crate::lexer::{lex, TokKind};
use crate::lints::Finding;
use crate::source::SourceFile;

/// Anchor paths (suffix-matched so fixtures can use the same shapes).
const TRACE_RECORD_RS: &str = "crates/trace/src/record.rs";
const CI_YML: &str = ".github/workflows/ci.yml";
const BENCH_BIN_DIR: &str = "crates/bench/src/bin/";

/// Finds a file by exact path or suffix.
fn file<'a>(files: &'a [SourceFile], path: &str) -> Option<&'a SourceFile> {
    files
        .iter()
        .find(|f| f.path == path || f.path.ends_with(path))
}

/// The trace-discriminants check.
fn trace_discriminants(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let Some(src) = file(files, TRACE_RECORD_RS) else {
        return;
    };
    let lexed = lex(&src.text);
    let toks = &lexed.tokens;
    let Some(start) = toks.windows(2).position(|w| {
        w[0].kind == TokKind::Ident && w[0].text == "enum" && w[1].text == "TraceEventKind"
    }) else {
        findings.push(Finding {
            path: src.path.clone(),
            line: 1,
            lint: "trace-discriminants",
            message: "enum TraceEventKind not found".to_string(),
        });
        return;
    };
    let mut j = start + 2;
    while toks.get(j).is_some_and(|t| t.text != "{") {
        j += 1;
    }
    j += 1;
    let mut seen: Vec<(u64, String)> = Vec::new();
    while let Some(t) = toks.get(j) {
        if t.text == "}" {
            break;
        }
        // Skip attribute groups on variants.
        if t.text == "#" && toks.get(j + 1).is_some_and(|t| t.text == "[") {
            while toks.get(j).is_some_and(|t| t.text != "]") {
                j += 1;
            }
            j += 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            let variant = t.text.clone();
            let line = t.line;
            let disc = (toks.get(j + 1).is_some_and(|t| t.text == "=")
                && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Num))
            .then(|| toks[j + 2].text.replace('_', "").parse::<u64>().ok())
            .flatten();
            match disc {
                None => findings.push(Finding {
                    path: src.path.clone(),
                    line,
                    lint: "trace-discriminants",
                    message: format!(
                        "TraceEventKind::{variant} has no explicit discriminant (trace consumers persist these numbers)"
                    ),
                }),
                Some(v) => {
                    if let Some((_, prev)) = seen.iter().find(|(sv, _)| *sv == v) {
                        findings.push(Finding {
                            path: src.path.clone(),
                            line,
                            lint: "trace-discriminants",
                            message: format!(
                                "TraceEventKind::{variant} reuses discriminant {v} (already {prev})"
                            ),
                        });
                    }
                    seen.push((v, variant));
                    j += 2; // past `= N`
                }
            }
            // Advance past the variant's trailing comma.
            while toks.get(j).is_some_and(|t| t.text != "," && t.text != "}") {
                j += 1;
            }
        }
        j += 1;
    }
}

/// True if `needle` occurs in `hay` delimited by non-word characters.
fn word_occurs(hay: &str, needle: &str) -> bool {
    let is_word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let h = hay.as_bytes();
    let mut from = 0;
    while let Some(at) = hay[from..].find(needle) {
        let start = from + at;
        let end = start + needle.len();
        let pre = start == 0 || !is_word(h[start - 1]);
        let post = end == h.len() || !is_word(h[end]);
        if pre && post {
            return true;
        }
        from = start + 1;
    }
    false
}

/// The bench-ci-coverage check.
fn bench_ci_coverage(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let bins: Vec<&SourceFile> = files
        .iter()
        .filter(|f| f.path.starts_with(BENCH_BIN_DIR) && f.path.ends_with(".rs"))
        .collect();
    if bins.is_empty() {
        return;
    }
    let Some(ci) = file(files, CI_YML) else {
        findings.push(Finding {
            path: CI_YML.to_string(),
            line: 1,
            lint: "bench-ci-coverage",
            message: "CI workflow missing while bench bins exist".to_string(),
        });
        return;
    };
    for bin in bins {
        let stem = bin
            .path
            .trim_start_matches(BENCH_BIN_DIR)
            .trim_end_matches(".rs");
        if !word_occurs(&ci.text, stem) {
            findings.push(Finding {
                path: bin.path.clone(),
                line: 1,
                lint: "bench-ci-coverage",
                message: format!("bench bin `{stem}` is not smoke-covered in {CI_YML}"),
            });
        }
    }
}

/// Runs every cross-file invariant over the audited set.
#[must_use]
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    trace_discriminants(files, &mut findings);
    bench_ci_coverage(files, &mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_boundaries_are_respected() {
        assert!(word_occurs("run --bin fig6 --quick", "fig6"));
        assert!(!word_occurs("run --bin fig6_stores", "fig6"));
        assert!(word_occurs("for b in fig6 fig7; do", "fig7"));
    }

    #[test]
    fn discriminants_must_be_explicit_and_unique() {
        let bad = SourceFile::new(
            "crates/trace/src/record.rs",
            "pub enum TraceEventKind { A = 0, B, C = 0 }",
        );
        let findings = check(&[bad]);
        let msgs: Vec<_> = findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(findings.len(), 2, "{msgs:?}");
        assert!(msgs[0].contains("no explicit discriminant"));
        assert!(msgs[1].contains("reuses discriminant 0"));
    }

    #[test]
    fn uncovered_bench_bin_is_reported() {
        let bin = SourceFile::new("crates/bench/src/bin/newfig.rs", "fn main() {}");
        let ci = SourceFile::new(".github/workflows/ci.yml", "run: cargo test");
        let findings = check(&[bin, ci]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "bench-ci-coverage");
    }
}
