//! Workspace discovery: which `.rs` files to lint, and what each one *is*.
//!
//! The analyzer is lexical, so it cannot ask cargo about targets; instead
//! it classifies files by the same path conventions cargo itself uses
//! (`src/bin/`, `tests/`, `examples/`, `benches/`). Classification drives
//! rule scoping — e.g. the panic policy (P1) binds library code only.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What kind of compilation target a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Part of a library target (`src/**` outside `src/bin/`).
    Lib,
    /// Part of a binary target (`src/bin/**` or `src/main.rs`).
    Bin,
    /// An integration test (`tests/**`).
    Test,
    /// An example (`examples/**`).
    Example,
    /// A bench target (`benches/**`).
    Bench,
}

impl FileKind {
    /// Stable lowercase name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            FileKind::Lib => "lib",
            FileKind::Bin => "bin",
            FileKind::Test => "test",
            FileKind::Example => "example",
            FileKind::Bench => "bench",
        }
    }
}

/// One source file scheduled for analysis.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable across hosts).
    pub rel: String,
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Owning package name (`crates/<name>/…`), or the root package.
    pub crate_name: String,
    /// Target classification by path convention.
    pub kind: FileKind,
    /// True for `src/lib.rs` of its package (crate-level attrs live here).
    pub is_lib_root: bool,
}

/// Name assigned to files of the workspace root package.
pub const ROOT_PACKAGE: &str = "freerider";

/// Walks a workspace root and returns every lintable `.rs` file, sorted by
/// relative path so reports are deterministic.
///
/// Scanned roots: `crates/*/…`, `src/…`, `tests/…`, `examples/…`,
/// `benches/…`. Directories named `target` or `fixtures` are skipped
/// everywhere (fixtures hold *intentional* violations for the lint's own
/// tests).
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk_dir(&dir, root, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn walk_dir(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk_dir(&path, root, out)?;
        } else if name.ends_with(".rs") {
            if let Some(f) = classify(&path, root) {
                out.push(f);
            }
        }
    }
    Ok(())
}

/// Classifies one absolute path relative to the workspace root.
fn classify(abs: &Path, root: &Path) -> Option<SourceFile> {
    let rel_path = abs.strip_prefix(root).ok()?;
    let parts: Vec<&str> = rel_path.iter().filter_map(|p| p.to_str()).collect();
    let rel = parts.join("/");

    // Split off the package prefix: `crates/<name>/…` or the root package.
    let (crate_name, in_pkg) = match parts.as_slice() {
        ["crates", name, rest @ ..] => (name.to_string(), rest),
        rest => (ROOT_PACKAGE.to_string(), rest),
    };

    let kind = match in_pkg {
        ["src", "bin", ..] | ["src", "main.rs"] => FileKind::Bin,
        ["src", ..] => FileKind::Lib,
        ["tests", ..] => FileKind::Test,
        ["examples", ..] => FileKind::Example,
        ["benches", ..] => FileKind::Bench,
        _ => return None,
    };

    Some(SourceFile {
        is_lib_root: in_pkg == ["src", "lib.rs"],
        rel,
        abs: abs.to_path_buf(),
        crate_name,
        kind,
    })
}

/// Finds the workspace root at or above `start`: the nearest ancestor whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind_of(rel: &str) -> Option<(String, FileKind, bool)> {
        let root = Path::new("/ws");
        classify(&root.join(rel), root).map(|f| (f.crate_name, f.kind, f.is_lib_root))
    }

    #[test]
    fn classification_follows_cargo_conventions() {
        assert_eq!(
            kind_of("crates/freerider-dsp/src/fft.rs"),
            Some(("freerider-dsp".into(), FileKind::Lib, false))
        );
        assert_eq!(
            kind_of("crates/freerider-dsp/src/lib.rs"),
            Some(("freerider-dsp".into(), FileKind::Lib, true))
        );
        assert_eq!(
            kind_of("crates/freerider-bench/src/bin/repro.rs"),
            Some(("freerider-bench".into(), FileKind::Bin, false))
        );
        assert_eq!(
            kind_of("src/bin/freerider.rs"),
            Some((ROOT_PACKAGE.into(), FileKind::Bin, false))
        );
        assert_eq!(
            kind_of("src/lib.rs"),
            Some((ROOT_PACKAGE.into(), FileKind::Lib, true))
        );
        assert_eq!(
            kind_of("tests/end_to_end.rs"),
            Some((ROOT_PACKAGE.into(), FileKind::Test, false))
        );
        assert_eq!(
            kind_of("examples/signal_inspector.rs"),
            Some((ROOT_PACKAGE.into(), FileKind::Example, false))
        );
        assert_eq!(
            kind_of("crates/x/tests/t.rs"),
            Some(("x".into(), FileKind::Test, false))
        );
        assert_eq!(kind_of("crates/x/build.rs"), None);
    }
}
