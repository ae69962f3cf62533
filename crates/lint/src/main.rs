//! The `ent-lint` binary: lint the workspace, print findings, exit
//! non-zero when the tree is not clean.
//!
//! ```text
//! ent-lint [--root DIR] [--list]
//! ```
//!
//! * `--root DIR` — lint the workspace rooted at DIR (default: walk up
//!   from the current directory)
//! * `--list` — print the lint codes and their one-line descriptions
//!
//! Exit status: 0 clean, 1 findings, 2 usage or I/O error.

use ent_lint::{find_workspace_root, lint_workspace, report::ALL_CODES};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut list = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("ent-lint: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: ent-lint [--root DIR] [--list]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ent-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    if list {
        for code in ALL_CODES {
            println!("{code}  {}", code.title());
        }
        return ExitCode::SUCCESS;
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("ent-lint: cannot determine current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("ent-lint: no workspace root (Cargo.toml + crates/) above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };
    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ent-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &report.findings {
        println!("{f}");
    }
    println!(
        "ent-lint: {} finding(s), {} suppressed, {} file(s) scanned",
        report.findings.len(),
        report.suppressed,
        report.files_scanned
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
