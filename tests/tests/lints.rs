//! The workspace's lint wiring, checked as plain text.
//!
//! The determinism rules themselves are enforced by the compiler
//! (`unsafe_code = "forbid"`) and by clippy (`clippy.toml`, run in CI with
//! `-D warnings`). What neither can see is whether a member opted out of
//! the workspace lints, or whether an escape from the clippy bans crept
//! out of the two places that need one. These tests hold both.

use std::fs;
use std::path::{Path, PathBuf};

/// The workspace root relative to the `tests` crate manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests crate sits inside the workspace")
        .to_path_buf()
}

/// Every member directory named by the root manifest's `members` list,
/// with `dir/*` globs expanded to the subdirectories holding a manifest.
fn members(root: &Path) -> Vec<PathBuf> {
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("read root manifest");
    let list = manifest
        .lines()
        .find_map(|l| l.trim().strip_prefix("members = ["))
        .expect("root manifest lists its members on one line");
    let mut dirs = Vec::new();
    for entry in list.trim_end_matches(']').split(',') {
        let entry = entry.trim().trim_matches('"');
        if entry.is_empty() {
            continue;
        }
        if let Some(parent) = entry.strip_suffix("/*") {
            let mut found: Vec<PathBuf> = fs::read_dir(root.join(parent))
                .expect("read member glob directory")
                .map(|e| e.expect("dir entry").path())
                .filter(|p| p.join("Cargo.toml").is_file())
                .collect();
            found.sort();
            dirs.extend(found);
        } else {
            dirs.push(root.join(entry));
        }
    }
    dirs
}

/// Every `.rs` file under `dir`, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read source directory") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let root = workspace_root();
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("read root manifest");
    for line in [
        "[workspace.lints.rust]",
        "unsafe_code = \"forbid\"",
        "allow_attributes = \"deny\"",
        "allow_attributes_without_reason = \"deny\"",
    ] {
        assert!(
            manifest.lines().any(|l| l.trim() == line),
            "root Cargo.toml lost `{line}`"
        );
    }

    let members = members(&root);
    assert!(members.len() >= 10, "member list not parsed: {members:?}");
    for dir in members {
        let path = dir.join("Cargo.toml");
        let text = fs::read_to_string(&path).expect("read member manifest");
        assert!(
            text.contains("[lints]\nworkspace = true"),
            "{} must carry `[lints]\\nworkspace = true`, or the unsafe forbid and the \
             escape lints skip it",
            path.display()
        );
    }
}

#[test]
fn workspace_inventory_is_small_and_justified() {
    // The only code that may read host time or start host threads is the
    // harness progress module and the criterion shim. Each escape is a
    // review event: grow this list deliberately.
    const ESCAPE: &str = "clippy::disallowed_";
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in members(&root) {
        rust_files(&dir, &mut files);
    }
    let mut sites = Vec::new();
    for path in &files {
        if path.ends_with("tests/tests/lints.rs") {
            continue; // this file names the escape to search for it
        }
        let text = fs::read_to_string(path).expect("read source");
        let rel = path.strip_prefix(&root).expect("inside the workspace");
        for (i, line) in text.lines().enumerate() {
            if line.contains(ESCAPE) {
                sites.push(format!("{}:{}", rel.display(), i + 1));
            }
        }
    }
    assert!(!sites.is_empty(), "the walk found no escapes at all");
    for site in &sites {
        assert!(
            site.starts_with("crates/harness/src/progress.rs:")
                || site.starts_with("shims/criterion/"),
            "clippy determinism escape outside the sanctioned islands: {site}"
        );
    }
    assert!(
        sites.len() <= 6,
        "escape count crept up to {}: {sites:?}",
        sites.len()
    );
}
