//! Workspace file discovery.

use std::io;
use std::path::{Path, PathBuf};

/// One discovered `.rs` file with its workspace classification.
#[derive(Debug, Clone)]
pub struct FileEntry {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Crate name for files under `crates/<name>/…`, otherwise the first
    /// path component (`tests`, `examples`).
    pub crate_name: String,
    /// Whole-file test context: anything under a `tests/` directory (which
    /// covers the top-level `tests` member). A `benches/` path is not: no
    /// gate runs a bench, so one must never satisfy a coverage rule.
    pub is_test_file: bool,
}

/// Directory names never descended into. `fixtures` holds the lint's own
/// seeded-violation corpus, which must not trip the self-hosted run.
const SKIP_DIRS: [&str; 5] = ["target", ".git", "fixtures", "node_modules", ".claude"];

/// Recursively collect every `.rs` file under `root`, skipping
/// [`SKIP_DIRS`].
pub fn walk_workspace(root: &Path) -> io::Result<Vec<FileEntry>> {
    let mut out = Vec::new();
    walk_dir(root, root, &mut out)?;
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn walk_dir(root: &Path, dir: &Path, out: &mut Vec<FileEntry>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let ftype = entry.file_type()?;
        if ftype.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk_dir(root, &path, out)?;
        } else if ftype.is_file() && name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(classify(path, rel));
        }
    }
    Ok(())
}

fn classify(abs: PathBuf, rel: String) -> FileEntry {
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_name = if parts.first() == Some(&"crates") && parts.len() > 1 {
        parts[1].to_string()
    } else {
        parts.first().copied().unwrap_or("").to_string()
    };
    let is_test_file = parts.contains(&"tests");
    FileEntry { abs, rel, crate_name, is_test_file }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_crate_file() {
        let e = classify(PathBuf::from("/x"), "crates/wire/src/ipv4.rs".into());
        assert_eq!(e.crate_name, "wire");
        assert!(!e.is_test_file);
    }

    #[test]
    fn classify_test_contexts() {
        assert!(classify(PathBuf::from("/x"), "tests/tests/end_to_end.rs".into()).is_test_file);
        assert!(classify(PathBuf::from("/x"), "tests/src/lib.rs".into()).is_test_file);
        assert!(classify(PathBuf::from("/x"), "crates/lint/tests/selfhost.rs".into()).is_test_file);
        assert!(!classify(PathBuf::from("/x"), "crates/core/benches/tables.rs".into()).is_test_file);
        assert!(!classify(PathBuf::from("/x"), "examples/quickstart.rs".into()).is_test_file);
    }
}
