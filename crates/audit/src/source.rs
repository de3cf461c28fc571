//! Source-file model: what the auditor audits and how files are classed.
//!
//! The audit runs over an in-memory file set ([`SourceFile`]) so tests can
//! lint synthetic fixtures without touching disk; [`load_workspace`] builds
//! that set from a real checkout with a deterministic (sorted) walk.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One file under audit: a workspace-relative path (always `/`-separated)
/// and its full text.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated (`crates/core/src/stats.rs`).
    pub path: String,
    /// Full file contents.
    pub text: String,
}

impl SourceFile {
    /// Builds a file from parts.
    #[must_use]
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> Self {
        SourceFile {
            path: path.into(),
            text: text.into(),
        }
    }

    /// True for files the lexer-based lints apply to.
    #[must_use]
    pub fn is_rust(&self) -> bool {
        self.path.ends_with(".rs")
    }

    /// True for crate-root files (the targets of the hygiene-header lint):
    /// every `src/lib.rs` in the workspace plus the flat `examples/lib.rs`.
    #[must_use]
    pub fn is_crate_root(&self) -> bool {
        self.path.ends_with("/src/lib.rs") || self.path == "examples/lib.rs"
    }
}

/// The determinism class of a crate — which lint scopes apply.
///
/// The boundary that matters is *whether the code can influence simulation
/// output*. Simulation crates must be bit-deterministic; the harness may
/// read wall-clock for stderr progress but never into records; drivers
/// (bench bins, tests, examples) consume records; shims stand in for
/// external dev-dependencies and timing real benchmarks is their job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrateClass {
    /// Deterministic simulation core: `core`, `sim`, `mem`, `net`,
    /// `store`, `workload`, `trace`. Everything here feeds records.
    Sim,
    /// The evaluation harness: deterministic output, wall-clock allowed
    /// only at explicitly annotated stderr-progress sites.
    Harness,
    /// Drivers: bench binaries, integration tests, examples.
    Driver,
    /// Offline dev-dependency shims (`shims/*`).
    Shim,
    /// The auditor itself.
    Audit,
}

/// Classifies a workspace-relative path.
#[must_use]
pub fn classify(path: &str) -> CrateClass {
    if path.starts_with("crates/audit/") {
        CrateClass::Audit
    } else if path.starts_with("crates/harness/") {
        CrateClass::Harness
    } else if path.starts_with("shims/") {
        CrateClass::Shim
    } else if path.starts_with("crates/bench/")
        || path.starts_with("tests/")
        || path.starts_with("examples/")
    {
        CrateClass::Driver
    } else {
        // Every other `crates/*` member is simulation substrate. New
        // crates default to the strictest class until classified here.
        CrateClass::Sim
    }
}

/// Directories whose contents hold auditable Rust sources.
const SOURCE_ROOTS: &[&str] = &["crates", "tests", "examples", "shims"];

/// Loads the auditable file set of a workspace checkout: every `.rs` file
/// under the source roots (skipping any `target/` directory), in sorted
/// path order so findings are deterministic.
///
/// # Errors
///
/// Propagates I/O errors other than a missing source root.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for top in SOURCE_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk_rs(&dir, &mut paths)?;
        }
    }
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = relative_unix(root, &p);
        files.push(SourceFile::new(rel, fs::read_to_string(&p)?));
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Recursively collects `.rs` files, sorted, skipping `target`.
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders `p` relative to `root` with `/` separators.
fn relative_unix(root: &Path, p: &Path) -> String {
    let rel = p.strip_prefix(root).unwrap_or(p);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walks up from `start` to the first directory whose `Cargo.toml` declares
/// a `[workspace]` — how the binary finds the workspace root regardless of
/// the invocation directory.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_the_workspace_map() {
        assert_eq!(classify("crates/core/src/stats.rs"), CrateClass::Sim);
        assert_eq!(classify("crates/sim/src/engine.rs"), CrateClass::Sim);
        assert_eq!(classify("crates/harness/src/exec.rs"), CrateClass::Harness);
        assert_eq!(classify("crates/bench/src/bin/fig6.rs"), CrateClass::Driver);
        assert_eq!(classify("tests/tests/audit.rs"), CrateClass::Driver);
        assert_eq!(classify("examples/banking.rs"), CrateClass::Driver);
        assert_eq!(classify("shims/criterion/src/lib.rs"), CrateClass::Shim);
        assert_eq!(classify("crates/audit/src/lints.rs"), CrateClass::Audit);
    }

    #[test]
    fn crate_roots_are_recognized() {
        assert!(SourceFile::new("crates/core/src/lib.rs", "").is_crate_root());
        assert!(SourceFile::new("examples/lib.rs", "").is_crate_root());
        assert!(!SourceFile::new("crates/core/src/stats.rs", "").is_crate_root());
        assert!(!SourceFile::new("examples/banking.rs", "").is_crate_root());
    }
}
