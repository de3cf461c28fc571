//! Tier-1 wrapper around `ddp-audit`: the workspace-is-clean gate plus
//! known-bad fixtures proving every lint of both families (determinism
//! and the unsafe inventory) actually fires, and that its sanctioned
//! escape actually suppresses.
//!
//! The fixtures are in-memory [`SourceFile`]s, so these tests never touch
//! disk except for the end-to-end audit of the real checkout. The
//! mutation test takes the *real* workspace file set and breaks it in
//! memory — dropping a `HashMap` into a sim crate — to prove the audit
//! would catch exactly the regression it was built for.

use std::path::Path;

use ddp_audit::{audit, audit_workspace, inventory, lint_spec, SourceFile, LINTS};

/// The workspace root relative to the `tests` crate manifest.
fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

fn lints_of(files: &[SourceFile]) -> Vec<&'static str> {
    audit(files).into_iter().map(|f| f.lint).collect()
}

fn one(path: &str, text: &str) -> Vec<SourceFile> {
    vec![SourceFile::new(path, text)]
}

// ---------------------------------------------------------------------
// The gate: the checkout itself is clean.
// ---------------------------------------------------------------------

#[test]
fn workspace_is_clean() {
    let findings = audit_workspace(workspace_root()).expect("workspace walk");
    let rendered: Vec<String> = findings.iter().map(ddp_audit::Finding::render).collect();
    assert!(
        findings.is_empty(),
        "the workspace must pass its own audit:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn workspace_inventory_is_small_and_justified() {
    // Every escape and unsafe site in the workspace, in one list. The
    // audited surface should stay tiny: grow this bound deliberately.
    let files = ddp_audit::load_workspace(workspace_root()).expect("workspace walk");
    let inv = inventory(&files);
    let allows = inv.iter().filter(|e| e.kind == "allow").count();
    let unsafes = inv.iter().filter(|e| e.kind == "unsafe").count();
    assert!(
        allows <= 8,
        "escape count crept up to {allows}; each new audit:allow is a review event"
    );
    assert_eq!(
        unsafes, 0,
        "the workspace has no unsafe code today; a new unsafe site must be a deliberate decision"
    );
    // All real escapes live in the one sanctioned wall-clock island.
    for e in inv.iter().filter(|e| e.kind == "allow") {
        assert_eq!(
            e.path, "crates/harness/src/progress.rs",
            "audit:allow outside the progress module: {}:{} {}",
            e.path, e.line, e.detail
        );
    }
}

// ---------------------------------------------------------------------
// Determinism lints: one positive + one allowlisted-negative each.
// ---------------------------------------------------------------------

#[test]
fn hash_collections_fixture() {
    let bad = one(
        "crates/sim/src/fixture.rs",
        "use std::collections::HashMap;\n",
    );
    assert_eq!(lints_of(&bad), vec!["hash-collections"]);

    let allowed = one(
        "crates/sim/src/fixture.rs",
        "// audit:allow(hash-collections): fixture — proves the escape suppresses\nuse std::collections::HashMap;\n",
    );
    assert!(lints_of(&allowed).is_empty());
}

#[test]
fn wall_clock_fixture() {
    let bad = one(
        "crates/core/src/fixture.rs",
        "fn f() { let t = std::time::Instant::now(); }\n",
    );
    let lints = lints_of(&bad);
    assert!(lints.contains(&"wall-clock"), "{lints:?}");

    let allowed = one(
        "crates/harness/src/fixture.rs",
        "// audit:allow(wall-clock): fixture — stderr progress timing only\nfn f() { let t = std::time::Instant::now(); }\n",
    );
    assert!(lints_of(&allowed).is_empty());

    // The shim class is on the per-crate allowlist: no escape needed.
    let shim = one(
        "shims/criterion/src/timer.rs",
        "fn f() { let t = std::time::Instant::now(); }\n",
    );
    assert!(lints_of(&shim).is_empty());
}

#[test]
fn ambient_randomness_fixture() {
    let bad = one(
        "crates/workload/src/fixture.rs",
        "fn f() { let r = rand::thread_rng(); }\n",
    );
    assert_eq!(lints_of(&bad), vec!["ambient-randomness"]);

    let allowed = one(
        "crates/workload/src/fixture.rs",
        "fn f() { let r = rand::thread_rng(); } // audit:allow(ambient-randomness): fixture — trailing escape form\n",
    );
    assert!(lints_of(&allowed).is_empty());
}

#[test]
fn thread_spawn_fixture() {
    let bad = one(
        "crates/net/src/fixture.rs",
        "fn f() { std::thread::spawn(|| {}); }\n",
    );
    assert_eq!(lints_of(&bad), vec!["thread-spawn"]);

    let allowed = one(
        "crates/harness/src/fixture.rs",
        "// audit:allow(thread-spawn): fixture — the one sanctioned worker pool\nfn f() { std::thread::scope(|s| { let _ = s; }); }\n",
    );
    assert!(lints_of(&allowed).is_empty());
}

// ---------------------------------------------------------------------
// Unsafe inventory: banned in sim, justification-gated elsewhere.
// ---------------------------------------------------------------------

#[test]
fn unsafe_fixture() {
    let in_sim = one(
        "crates/store/src/fixture.rs",
        "fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    assert_eq!(lints_of(&in_sim), vec!["unsafe-in-sim"]);

    let bare = one(
        "examples/fixture.rs",
        "fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    assert_eq!(lints_of(&bare), vec!["unsafe-justification"]);

    // The negative form is a SAFETY justification, not an audit:allow —
    // the lint is deliberately non-escapable.
    let justified = one(
        "examples/fixture.rs",
        "// SAFETY: fixture — p is non-null and valid for reads by contract\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    assert!(lints_of(&justified).is_empty());
    assert!(!lint_spec("unsafe-in-sim").unwrap().escapable);
    assert!(!lint_spec("unsafe-justification").unwrap().escapable);
}

#[test]
fn hygiene_header_fixture() {
    let bad = one(
        "crates/sim/src/lib.rs",
        "//! A crate root without the header.\n",
    );
    assert_eq!(lints_of(&bad), vec!["hygiene-header"]);

    let good = one(
        "crates/sim/src/lib.rs",
        "//! A crate root with the header.\n#![forbid(unsafe_code)]\n",
    );
    assert!(lints_of(&good).is_empty());
}

// ---------------------------------------------------------------------
// The escape grammar polices itself.
// ---------------------------------------------------------------------

#[test]
fn invalid_and_unused_allow_fixture() {
    // Missing reason: the construct still fires AND the allow is invalid.
    let no_reason = one(
        "crates/sim/src/fixture.rs",
        "// audit:allow(hash-collections)\nuse std::collections::HashMap;\n",
    );
    let lints = lints_of(&no_reason);
    assert!(lints.contains(&"invalid-allow"), "{lints:?}");
    assert!(lints.contains(&"hash-collections"), "{lints:?}");

    // Naming a non-escapable lint is invalid.
    let non_escapable = one(
        "crates/sim/src/fixture.rs",
        "// audit:allow(unsafe-in-sim): nice try\nlet x = 1;\n",
    );
    assert_eq!(lints_of(&non_escapable), vec!["invalid-allow"]);

    // An allow that suppresses nothing must be removed.
    let unused = one(
        "crates/sim/src/fixture.rs",
        "// audit:allow(wall-clock): fixture — nothing below needs this\nlet x = 1;\n",
    );
    assert_eq!(lints_of(&unused), vec!["unused-allow"]);

    // The allowlisted-negative: a well-formed, *used* escape is silent.
    let used = one(
        "crates/sim/src/fixture.rs",
        "// audit:allow(wall-clock): fixture — used and well-formed\nfn f() { let t = Instant::now(); }\n",
    );
    assert!(lints_of(&used).is_empty());
}

// ---------------------------------------------------------------------
// A mutation test over the REAL workspace: the acceptance criterion.
// ---------------------------------------------------------------------

#[test]
fn adding_a_hashmap_to_a_sim_crate_fails_the_audit() {
    let mut files = ddp_audit::load_workspace(workspace_root()).expect("workspace walk");
    files.push(SourceFile::new(
        "crates/mem/src/sneaky.rs",
        "use std::collections::HashMap;\npub fn cache() -> HashMap<u64, u64> { HashMap::new() }\n",
    ));
    let findings = audit(&files);
    assert!(
        findings
            .iter()
            .any(|f| f.lint == "hash-collections" && f.path == "crates/mem/src/sneaky.rs"),
        "a bare HashMap in a sim crate must trip hash-collections: {findings:?}"
    );
}

// ---------------------------------------------------------------------
// Lint-table hygiene.
// ---------------------------------------------------------------------

#[test]
fn lint_table_names_are_unique_and_resolvable() {
    let mut names: Vec<&str> = LINTS.iter().map(|l| l.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), LINTS.len(), "duplicate lint name");
    for l in LINTS {
        assert!(lint_spec(l.name).is_some());
        assert!(!l.summary.is_empty());
    }
}
