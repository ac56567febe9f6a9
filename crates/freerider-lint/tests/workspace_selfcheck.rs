//! Self-check: the analyzer runs over the *real* workspace and must find
//! zero violations — the committed contract that keeps the determinism
//! invariants machine-enforced. The only waiver is a reasoned per-line
//! pragma next to the code it excuses.

use freerider_lint::lexer::{lex, Tok};
use freerider_lint::rules::{freerider_names, REGISTRY_PATH};
use std::collections::BTreeSet;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/freerider-lint has a workspace two levels up")
}

#[test]
fn real_workspace_has_zero_findings() {
    let analysis = freerider_lint::run(workspace_root()).expect("analyze workspace");
    let rendered: Vec<String> = analysis.findings.iter().map(|f| f.render()).collect();
    assert!(
        analysis.ok(),
        "workspace has {} finding(s):\n{}",
        rendered.len(),
        rendered.join("\n")
    );
    assert!(
        analysis.files_scanned > 100,
        "suspiciously few files scanned: {}",
        analysis.files_scanned
    );
}

#[test]
fn env_registry_and_reads_agree_in_both_directions() {
    let root = workspace_root();
    let registry = freerider_lint::run(root)
        .expect("analyze workspace")
        .registry;
    assert!(!registry.is_empty(), "no names parsed from {REGISTRY_PATH}");

    // Reads in Rust: `FREERIDER_*` names in string literals of every
    // scanned file except the registry itself and the lint crate, whose
    // literals are analyzer test data.
    let mut read = BTreeSet::new();
    for file in freerider_lint::walk::discover(root).expect("walk workspace") {
        if file.rel == REGISTRY_PATH || file.rel.starts_with("crates/freerider-lint/") {
            continue;
        }
        let src = std::fs::read_to_string(&file.abs).expect("read source");
        for tok in lex(&src) {
            if let Tok::Str(s) = &tok.kind {
                read.extend(freerider_names(s));
            }
        }
    }
    // Reads in the Python and shell scripts, which D3 cannot see.
    let mut scripted = BTreeSet::new();
    for entry in std::fs::read_dir(root.join("scripts")).expect("scripts/") {
        let path = entry.expect("dir entry").path();
        if matches!(path.extension().and_then(|e| e.to_str()), Some("py" | "sh")) {
            let text = std::fs::read_to_string(&path).expect("read script");
            scripted.extend(freerider_names(&text));
        }
    }

    let unread: Vec<_> = registry
        .iter()
        .filter(|k| !read.contains(*k) && !scripted.contains(*k))
        .collect();
    assert!(
        unread.is_empty(),
        "registered in {REGISTRY_PATH} but never read: {unread:?}"
    );
    let unregistered: Vec<_> = scripted.difference(&registry).collect();
    assert!(
        unregistered.is_empty(),
        "read by scripts/ but missing from {REGISTRY_PATH}: {unregistered:?}"
    );
}
