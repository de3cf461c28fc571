//! `ddp-audit` — the workspace determinism audit gate.
//!
//! ```text
//! cargo run -p ddp-audit             # audit the enclosing workspace
//! cargo run -p ddp-audit -- --list   # print the lint table
//! cargo run -p ddp-audit -- --inventory   # list every escape + unsafe site
//! cargo run -p ddp-audit -- --root PATH   # audit another checkout
//! ```
//!
//! Exit status 0 when the workspace is clean, 1 when any lint fires, 2 on
//! usage or I/O errors. Findings print one per line as
//! `path:line: [lint] message`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use ddp_audit::{audit, find_workspace_root, inventory, load_workspace, LINTS};

struct Args {
    root: Option<PathBuf>,
    list: bool,
    inventory: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        list: false,
        inventory: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => args.list = true,
            "--inventory" => args.inventory = true,
            "--root" => {
                let p = it.next().ok_or("--root needs a path")?;
                args.root = Some(PathBuf::from(p));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ddp-audit: {e}\nusage: ddp-audit [--root PATH] [--list] [--inventory]");
            return ExitCode::from(2);
        }
    };

    if args.list {
        println!("{} lints:", LINTS.len());
        for l in LINTS {
            let escape = if l.escapable { "escapable" } else { "hard" };
            println!("  {:<22} {:<9} {}", l.name, escape, l.summary);
        }
        return ExitCode::SUCCESS;
    }

    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().expect("cwd");
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "ddp-audit: no [workspace] Cargo.toml above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let files = match load_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ddp-audit: reading {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if args.inventory {
        let entries = inventory(&files);
        for e in &entries {
            println!("{}:{}: [{}] {}", e.path, e.line, e.kind, e.detail);
        }
        eprintln!(
            "ddp-audit: {} inventory entr{} across {} files",
            entries.len(),
            if entries.len() == 1 { "y" } else { "ies" },
            files.len()
        );
        return ExitCode::SUCCESS;
    }

    let findings = audit(&files);
    for f in &findings {
        println!("{}", f.render());
    }
    if findings.is_empty() {
        eprintln!(
            "ddp-audit: clean — {} files, {} lints, 0 findings",
            files.len(),
            LINTS.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "ddp-audit: {} finding(s) across {} files",
            findings.len(),
            files.len()
        );
        ExitCode::FAILURE
    }
}
