//! The per-file lint pass: the disallowed-construct table, the
//! `audit:allow` escape grammar, and the unsafe inventory rules.
//!
//! # The escape grammar
//!
//! A finding is suppressed by an escape comment **on the same line** as
//! the offending token or **on the line directly above** it:
//!
//! ```text
//! // audit:allow(lint-name): reason the construct is sound here
//! ```
//!
//! The reason is mandatory — an allow without one is itself a finding
//! (`invalid-allow`), as is an allow naming an unknown or non-escapable
//! lint, and an allow that suppresses nothing (`unused-allow`). Escapes
//! therefore never rot silently. Doc comments (`///`, `//!`) are never
//! parsed as escapes: documentation may quote the grammar freely.

use crate::lexer::{lex, Comment, Lexed, TokKind};
use crate::source::{classify, CrateClass, SourceFile};

/// One audit finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Lint name (stable identifier, used in escape comments).
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// Renders a finding the way the binary prints it.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path, self.line, self.lint, self.message
        )
    }
}

/// A lint's table entry: name, whether an escape comment may suppress it,
/// and a one-line description (printed by `ddp-audit --list`).
#[derive(Clone, Copy, Debug)]
pub struct LintSpec {
    /// Stable lint name.
    pub name: &'static str,
    /// True if `// audit:allow(name): reason` may suppress it.
    pub escapable: bool,
    /// One-line description.
    pub summary: &'static str,
}

/// The full lint table.
pub const LINTS: &[LintSpec] = &[
    LintSpec {
        name: "hash-collections",
        escapable: true,
        summary: "std HashMap/HashSet (randomized iteration order) are banned; use BTreeMap/BTreeSet or the in-repo stores",
    },
    LintSpec {
        name: "wall-clock",
        escapable: true,
        summary: "Instant/SystemTime must not reach simulation or record code; sole legal island is the harness progress helper",
    },
    LintSpec {
        name: "ambient-randomness",
        escapable: true,
        summary: "thread_rng/OsRng/from_entropy/getrandom: all randomness must flow from the run seed",
    },
    LintSpec {
        name: "thread-spawn",
        escapable: true,
        summary: "std::thread is confined to the harness executor pool; simulation code is single-threaded by construction",
    },
    LintSpec {
        name: "unsafe-justification",
        escapable: false,
        summary: "every `unsafe` needs a `// SAFETY:` comment within the three lines above it",
    },
    LintSpec {
        name: "unsafe-in-sim",
        escapable: false,
        summary: "simulation crates forbid `unsafe` outright (also enforced by #![forbid(unsafe_code)])",
    },
    LintSpec {
        name: "hygiene-header",
        escapable: false,
        summary: "every crate root must carry #![forbid(unsafe_code)]",
    },
    LintSpec {
        name: "invalid-allow",
        escapable: false,
        summary: "audit:allow escapes need a known escapable lint name and a non-empty reason",
    },
    LintSpec {
        name: "unused-allow",
        escapable: false,
        summary: "an audit:allow that suppresses nothing must be removed",
    },
];

/// Looks a lint up by name.
#[must_use]
pub fn lint_spec(name: &str) -> Option<&'static LintSpec> {
    LINTS.iter().find(|l| l.name == name)
}

/// Identifiers that select a hash-randomized std collection.
const HASH_IDENTS: &[&str] = &["HashMap", "HashSet", "RandomState", "DefaultHasher"];

/// Identifiers that read the host clock.
const CLOCK_IDENTS: &[&str] = &["Instant", "SystemTime"];

/// Identifiers that pull ambient (non-seeded) randomness.
const RANDOM_IDENTS: &[&str] = &["thread_rng", "OsRng", "from_entropy", "getrandom"];

/// Qualified paths that spawn or query host threads. Matched as
/// `::`-joined identifier sequences over the token stream.
const THREAD_PATHS: &[&[&str]] = &[
    &["std", "thread"],
    &["thread", "spawn"],
    &["thread", "scope"],
    &["thread", "sleep"],
    &["thread", "Builder"],
    &["available_parallelism"],
];

/// True if the wall-clock lint applies to this class. The criterion shim
/// exists to time real benchmarks, so the whole `Shim` class is on the
/// per-crate allowlist for it.
fn wall_clock_applies(class: CrateClass) -> bool {
    class != CrateClass::Shim
}

/// True if `unsafe` is categorically banned (rather than
/// justification-gated) for this class.
fn unsafe_banned(class: CrateClass) -> bool {
    class == CrateClass::Sim
}

/// One parsed `audit:allow` escape.
#[derive(Debug)]
struct Allow {
    line: u32,
    lint: String,
    used: bool,
}

/// True for doc comments (`///`, `//!`, `/**`, `/*!`): documentation may
/// *describe* the escape grammar without invoking it, so doc comments are
/// never parsed as escapes.
fn is_doc_comment(text: &str) -> bool {
    text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
}

/// Scans a comment for an `audit:allow(...)` escape. Returns
/// `Some(Ok(allow))` for a well-formed escape, `Some(Err(finding))` for a
/// malformed one, `None` for an ordinary or doc comment.
fn parse_allow(path: &str, c: &Comment) -> Option<Result<Allow, Finding>> {
    if is_doc_comment(&c.text) {
        return None;
    }
    let marker = "audit:allow(";
    let at = c.text.find(marker)?;
    let rest = &c.text[at + marker.len()..];
    let bad = |message: String| {
        Some(Err(Finding {
            path: path.to_string(),
            line: c.line,
            lint: "invalid-allow",
            message,
        }))
    };
    let Some(close) = rest.find(')') else {
        return bad("unterminated audit:allow( escape".to_string());
    };
    let name = rest[..close].trim().to_string();
    let Some(spec) = lint_spec(&name) else {
        return bad(format!("audit:allow names unknown lint `{name}`"));
    };
    if !spec.escapable {
        return bad(format!("lint `{name}` cannot be escaped with audit:allow"));
    }
    let after = &rest[close + 1..];
    let reason_ok = after
        .strip_prefix(':')
        .is_some_and(|r| !r.trim().is_empty());
    if !reason_ok {
        return bad(format!(
            "audit:allow({name}) needs a reason: `// audit:allow({name}): why this is sound`"
        ));
    }
    Some(Ok(Allow {
        line: c.line,
        lint: name,
        used: false,
    }))
}

/// A candidate finding from a token scan, before escape suppression.
struct Candidate {
    line: u32,
    lint: &'static str,
    message: String,
}

/// Collects the token-level candidates for one file.
fn token_candidates(lexed: &Lexed, class: CrateClass) -> Vec<Candidate> {
    let mut out: Vec<Candidate> = Vec::new();
    let toks = &lexed.tokens;
    let mut push = |line: u32, lint: &'static str, message: String| {
        // One finding per (line, lint): `std::thread::spawn` should not
        // report both the `std::thread` and `thread::spawn` patterns.
        if !out.iter().any(|c| c.line == line && c.lint == lint) {
            out.push(Candidate {
                line,
                lint,
                message,
            });
        }
    };

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        if HASH_IDENTS.contains(&name) {
            push(
                t.line,
                "hash-collections",
                format!("`{name}` has a randomized layout; use an ordered collection"),
            );
        }
        if CLOCK_IDENTS.contains(&name) && wall_clock_applies(class) {
            push(
                t.line,
                "wall-clock",
                format!("`{name}` reads the host clock; simulated time only"),
            );
        }
        if RANDOM_IDENTS.contains(&name) {
            push(
                t.line,
                "ambient-randomness",
                format!("`{name}` draws ambient entropy; derive randomness from the run seed"),
            );
        }
        for path_pat in THREAD_PATHS {
            if match_path(toks, i, path_pat) {
                push(
                    t.line,
                    "thread-spawn",
                    format!("`{}` touches host threads", path_pat.join("::")),
                );
            }
        }
        if name == "unsafe" {
            if unsafe_banned(class) {
                push(
                    t.line,
                    "unsafe-in-sim",
                    "`unsafe` is forbidden in simulation crates".to_string(),
                );
            } else if !has_safety_comment(lexed, t.line) {
                push(
                    t.line,
                    "unsafe-justification",
                    "`unsafe` without a `// SAFETY:` justification within the 3 lines above"
                        .to_string(),
                );
            }
        }
    }
    out
}

/// True if the identifier at `i` starts the `::`-joined path `pat`.
fn match_path(toks: &[crate::lexer::Token], i: usize, pat: &[&str]) -> bool {
    let mut j = i;
    for (k, seg) in pat.iter().enumerate() {
        if k > 0 {
            // Expect `::` between segments.
            if !(toks.get(j).is_some_and(|t| t.text == ":")
                && toks.get(j + 1).is_some_and(|t| t.text == ":"))
            {
                return false;
            }
            j += 2;
        }
        match toks.get(j) {
            Some(t) if t.kind == TokKind::Ident && t.text == *seg => j += 1,
            _ => return false,
        }
    }
    true
}

/// True if a comment within the three lines above `line` (or on `line`
/// itself) contains `SAFETY:`.
fn has_safety_comment(lexed: &Lexed, line: u32) -> bool {
    lexed
        .comments
        .iter()
        .any(|c| c.line + 3 >= line && c.line <= line && c.text.contains("SAFETY:"))
}

/// The hygiene-header check: crate roots must `#![forbid(unsafe_code)]`.
fn hygiene_header(file: &SourceFile, lexed: &Lexed) -> Option<Finding> {
    if !file.is_crate_root() {
        return None;
    }
    let toks = &lexed.tokens;
    let has_forbid = toks.windows(4).any(|w| {
        w[0].kind == TokKind::Ident
            && w[0].text == "forbid"
            && w[1].text == "("
            && w[2].text == "unsafe_code"
            && w[3].text == ")"
    });
    (!has_forbid).then(|| Finding {
        path: file.path.clone(),
        line: 1,
        lint: "hygiene-header",
        message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
    })
}

/// Runs every per-file lint over one Rust source file.
#[must_use]
pub fn lint_file(file: &SourceFile) -> Vec<Finding> {
    let class = classify(&file.path);
    let lexed = lex(&file.text);
    let mut findings: Vec<Finding> = Vec::new();
    let mut allows: Vec<Allow> = Vec::new();
    for c in &lexed.comments {
        match parse_allow(&file.path, c) {
            Some(Ok(allow)) => allows.push(allow),
            Some(Err(finding)) => findings.push(finding),
            None => {}
        }
    }

    for cand in token_candidates(&lexed, class) {
        // An escape on the offending line or the line directly above
        // suppresses the finding and consumes the allow.
        let suppressed = allows.iter_mut().any(|a| {
            let covers = a.line == cand.line || a.line + 1 == cand.line;
            if covers && a.lint == cand.lint {
                a.used = true;
                true
            } else {
                false
            }
        });
        if !suppressed {
            findings.push(Finding {
                path: file.path.clone(),
                line: cand.line,
                lint: cand.lint,
                message: cand.message,
            });
        }
    }

    for a in &allows {
        if !a.used {
            findings.push(Finding {
                path: file.path.clone(),
                line: a.line,
                lint: "unused-allow",
                message: format!("audit:allow({}) suppresses nothing; remove it", a.lint),
            });
        }
    }

    if let Some(f) = hygiene_header(file, &lexed) {
        findings.push(f);
    }
    findings
}

/// One entry of the workspace escape/unsafe inventory
/// (`ddp-audit --inventory`).
#[derive(Clone, Debug)]
pub struct InventoryEntry {
    /// File the entry points into.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// `"allow"` or `"unsafe"`.
    pub kind: &'static str,
    /// The escape (lint name + reason) or the unsafe site's context.
    pub detail: String,
}

/// Collects every `audit:allow` escape and every `unsafe` token in the
/// file — the audited surface a reviewer wants listed in one place.
#[must_use]
pub fn inventory_file(file: &SourceFile) -> Vec<InventoryEntry> {
    let lexed = lex(&file.text);
    let mut out = Vec::new();
    for c in &lexed.comments {
        if c.text.contains("audit:allow(") && !is_doc_comment(&c.text) {
            out.push(InventoryEntry {
                path: file.path.clone(),
                line: c.line,
                kind: "allow",
                detail: c.text.trim_start_matches('/').trim().to_string(),
            });
        }
    }
    for t in &lexed.tokens {
        if t.kind == TokKind::Ident && t.text == "unsafe" {
            out.push(InventoryEntry {
                path: file.path.clone(),
                line: t.line,
                kind: "unsafe",
                detail: "unsafe block/function".to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(text: &str) -> SourceFile {
        SourceFile::new("crates/core/src/fixture.rs", text)
    }

    fn lints_of(f: &SourceFile) -> Vec<&'static str> {
        lint_file(f).into_iter().map(|f| f.lint).collect()
    }

    #[test]
    fn hash_collections_fire_on_code_not_comments() {
        let f = sim("use std::collections::HashMap;\n");
        assert_eq!(lints_of(&f), vec!["hash-collections"]);
        let c = sim("// no HashMap inside, honest\nlet x = 1;\n");
        assert!(lints_of(&c).is_empty());
    }

    #[test]
    fn allow_on_line_above_or_same_line_suppresses() {
        let above = sim("// audit:allow(hash-collections): fixture proves the escape works\nuse std::collections::HashMap;\n");
        assert!(lints_of(&above).is_empty());
        let trailing =
            sim("use std::collections::HashSet; // audit:allow(hash-collections): trailing form\n");
        assert!(lints_of(&trailing).is_empty());
    }

    #[test]
    fn allow_without_reason_or_unknown_lint_is_invalid() {
        let no_reason = sim("// audit:allow(hash-collections)\nuse std::collections::HashMap;\n");
        let lints = lints_of(&no_reason);
        assert!(lints.contains(&"invalid-allow"), "{lints:?}");
        assert!(lints.contains(&"hash-collections"), "{lints:?}");
        let unknown = sim("// audit:allow(no-such-lint): whatever\nlet x = 1;\n");
        assert_eq!(lints_of(&unknown), vec!["invalid-allow"]);
    }

    #[test]
    fn doc_comments_never_act_as_escapes() {
        // A doc comment quoting the grammar is not an (invalid or
        // effective) escape.
        let quoting = sim("/// The grammar is `// audit:allow(lint-name): reason`.\nlet x = 1;\n");
        assert!(lints_of(&quoting).is_empty());
        let not_an_escape =
            sim("/// audit:allow(hash-collections): docs cannot suppress\nuse std::collections::HashMap;\n");
        assert_eq!(lints_of(&not_an_escape), vec!["hash-collections"]);
    }

    #[test]
    fn unused_allow_is_flagged() {
        let f = sim("// audit:allow(wall-clock): nothing here actually needs it\nlet x = 1;\n");
        assert_eq!(lints_of(&f), vec!["unused-allow"]);
    }

    #[test]
    fn unsafe_rules_split_by_class() {
        let in_sim = sim("fn f() { unsafe { core::hint::unreachable_unchecked() } }\n");
        assert!(lints_of(&in_sim).contains(&"unsafe-in-sim"));
        let bare = SourceFile::new(
            "crates/bench/src/bin/fixture.rs",
            "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n",
        );
        assert!(lints_of(&bare).contains(&"unsafe-justification"));
        let justified = SourceFile::new(
            "crates/bench/src/bin/fixture.rs",
            "// SAFETY: fixture — the invariant is stated right here\nfn f() { unsafe { std::hint::unreachable_unchecked() } }\n",
        );
        assert!(!lints_of(&justified).contains(&"unsafe-justification"));
    }

    #[test]
    fn thread_paths_match_qualified_uses() {
        let f = sim("fn f() { std::thread::spawn(|| {}); }\n");
        let lints = lints_of(&f);
        assert_eq!(
            lints.iter().filter(|l| **l == "thread-spawn").count(),
            1,
            "one finding per line, not one per overlapping pattern: {lints:?}"
        );
        assert!(lints_of(&sim("use std::thread;\n")).contains(&"thread-spawn"));
        assert!(lints_of(&sim("let n = available_parallelism();\n")).contains(&"thread-spawn"));
    }

    #[test]
    fn shims_may_read_the_clock_but_not_hash() {
        let shim = SourceFile::new(
            "shims/criterion/src/lib.rs",
            "#![forbid(unsafe_code)]\nuse std::time::Instant;\n",
        );
        assert!(lints_of(&shim).is_empty());
        let shim_hash = SourceFile::new(
            "shims/criterion/src/lib.rs",
            "#![forbid(unsafe_code)]\nuse std::collections::HashMap;\n",
        );
        assert_eq!(lints_of(&shim_hash), vec!["hash-collections"]);
    }

    #[test]
    fn hygiene_header_required_on_crate_roots_only() {
        let root = SourceFile::new("crates/core/src/lib.rs", "//! docs\n");
        assert_eq!(lints_of(&root), vec!["hygiene-header"]);
        let ok = SourceFile::new("crates/core/src/lib.rs", "#![forbid(unsafe_code)]\n");
        assert!(lints_of(&ok).is_empty());
        let non_root = SourceFile::new("crates/core/src/stats.rs", "//! docs\n");
        assert!(lints_of(&non_root).is_empty());
    }
}
