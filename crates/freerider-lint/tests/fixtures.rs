//! End-to-end fixture runs: one positive and one negative per rule.
//!
//! Each fixture under `fixtures/` is a miniature workspace; the tests run
//! the real `freerider-lint` binary against it and assert on exit status
//! and report text — the same interface `scripts/verify.sh` uses.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn run_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_freerider-lint"))
        .args(args)
        .output()
        .expect("spawn freerider-lint")
}

fn lint_fixture(name: &str) -> (bool, String) {
    let root = fixture(name);
    let out = run_lint(&["--workspace", "--root", root.to_str().expect("utf-8 path")]);
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

/// Asserts the fixture fails with findings of exactly `slug` (and a
/// finding count of `count`).
fn assert_positive(name: &str, slug: &str, count: usize) {
    let (ok, text) = lint_fixture(name);
    assert!(!ok, "{name} must exit non-zero:\n{text}");
    let hits = text
        .lines()
        .filter(|l| l.contains(&format!(": {slug}: ")))
        .count();
    assert_eq!(
        hits, count,
        "{name} expected {count} `{slug}` finding(s):\n{text}"
    );
    let other = text
        .lines()
        .filter(|l| l.contains("crates/demo") || l.contains("crates/unsafe_demo"))
        .filter(|l| !l.contains(&format!(": {slug}: ")))
        .count();
    assert_eq!(other, 0, "{name} must only trip `{slug}`:\n{text}");
}

#[test]
fn d1_wallclock_positive() {
    assert_positive("d1_bad", "wallclock", 3);
}

#[test]
fn d1_timer_module_is_the_only_sanctioned_wallclock_site() {
    // Mixed fixture: identical clock reads in the exempt stopwatch path,
    // in the (no longer exempt) profiler path and in an ordinary crate.
    // Only the stopwatch may read the clock unflagged.
    let (ok, text) = lint_fixture("d1_timer");
    assert!(
        !ok,
        "d1_timer must exit non-zero (demo half trips D1):\n{text}"
    );
    let hits = |path: &str| {
        text.lines()
            .filter(|l| l.contains(path) && l.contains(": wallclock: "))
            .count()
    };
    assert_eq!(
        hits("crates/demo"),
        3,
        "demo half must trip wallclock 3 times:\n{text}"
    );
    assert_eq!(
        hits("freerider-telemetry/src/profile.rs"),
        3,
        "the profiler reads time through the stopwatch; its own clock reads are findings:\n{text}"
    );
    let exempt_hits = text
        .lines()
        .filter(|l| l.contains("freerider-telemetry/src/timer.rs"))
        .count();
    assert_eq!(
        exempt_hits, 0,
        "the stopwatch module is exempt from D1 — no findings allowed:\n{text}"
    );
}

#[test]
fn d2_hash_collections_positive() {
    assert_positive("d2_bad", "hash-collections", 3);
}

#[test]
fn d3_env_registry_positive() {
    assert_positive("d3_bad", "env-registry", 1);
}

#[test]
fn p1_panic_positive() {
    assert_positive("p1_bad", "panic", 3);
}

#[test]
fn u1_unsafe_site_positive() {
    assert_positive("u1_bad_unsafe", "unsafe-audit", 1);
}

#[test]
fn u1_missing_forbid_positive() {
    let (ok, text) = lint_fixture("u1_bad_forbid");
    assert!(!ok, "u1_bad_forbid must exit non-zero:\n{text}");
    assert!(
        text.contains("lacks #![forbid(unsafe_code)]"),
        "expected the crate-level forbid finding:\n{text}"
    );
}

#[test]
fn a1_hot_path_alloc_positive() {
    assert_positive("a1_alloc", "hot-path-alloc", 3);
}

#[test]
fn o1_atomic_ordering_positive_with_sanctioned_counterpart() {
    assert_positive("o1_ordering", "atomic-ordering", 2);
    let (_, text) = lint_fixture("o1_ordering");
    assert_eq!(
        text.lines()
            .filter(|l| l.contains("freerider-telemetry"))
            .count(),
        0,
        "Relaxed in the sanctioned telemetry counter site must be quiet:\n{text}"
    );
}

#[test]
fn t1_thread_containment_positive_with_sanctioned_counterpart() {
    assert_positive("t1_thread", "thread-containment", 3);
    let (_, text) = lint_fixture("t1_thread");
    assert_eq!(
        text.lines()
            .filter(|l| l.contains("crates/freerider-rt/src"))
            .count(),
        0,
        "spawn inside freerider-rt is sanctioned:\n{text}"
    );
}

#[test]
fn e1_wire_exhaustive_positive() {
    // Orphan lacks a decode arm, Ghost is never encoded: two findings.
    assert_positive("e1_frames", "wire-exhaustive", 2);
    let (_, text) = lint_fixture("e1_frames");
    assert!(
        text.contains("Orphan") && text.contains("no decode arm"),
        "{text}"
    );
    assert!(
        text.contains("Ghost") && text.contains("never encoded"),
        "{text}"
    );
}

#[test]
fn pragma_hygiene_positive() {
    let (ok, text) = lint_fixture("pragma_bad");
    assert!(!ok, "pragma_bad must exit non-zero:\n{text}");
    // The reason-less allow(panic) is flagged and does NOT waive the
    // unwrap it precedes; the unknown-rule pragma is flagged too.
    assert_eq!(
        text.lines().filter(|l| l.contains(": pragma: ")).count(),
        2,
        "{text}"
    );
    assert_eq!(
        text.lines().filter(|l| l.contains(": panic: ")).count(),
        1,
        "{text}"
    );
}

#[test]
fn clean_fixture_passes_every_rule() {
    let (ok, text) = lint_fixture("clean");
    assert!(ok, "clean fixture must exit zero:\n{text}");
    assert!(text.contains(" 0 finding(s)"), "{text}");
}

#[test]
fn json_report_written_for_fixture() {
    let dir = std::env::temp_dir().join("freerider_lint_fixture_json");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let json_path = dir.join("report.json");
    let root = fixture("d2_bad");
    let out = run_lint(&[
        "--workspace",
        "--root",
        root.to_str().expect("utf-8 path"),
        "--json",
        json_path.to_str().expect("utf-8 path"),
    ]);
    assert!(!out.status.success());
    let doc = std::fs::read_to_string(&json_path).expect("json written");
    assert!(doc.starts_with(r#"{"schema":"freerider-lint/3""#), "{doc}");
    assert!(
        doc.contains(r#""slug":"hash-collections","description":"#)
            && doc.contains(r#""findings":[{"file":"crates/demo/src/lib.rs","line":"#),
        "{doc}"
    );
    assert!(doc.contains(r#""slug":"hot-path-alloc""#), "{doc}");
    assert!(doc.contains(r#""slug":"wire-exhaustive""#), "{doc}");
    assert!(doc.contains(r#""totalFindings":3,"ok":false}"#), "{doc}");
}

#[test]
fn list_rules_prints_catalogue() {
    let out = run_lint(&["--list-rules"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    for id in ["D1", "D2", "D3", "P1", "U1", "A1", "O1", "T1", "E1"] {
        assert!(text.contains(id), "missing {id} in:\n{text}");
    }
}

#[test]
fn usage_error_exits_2() {
    let out = run_lint(&[]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn removed_baseline_and_selftest_flags_are_usage_errors() {
    let root = fixture("clean");
    let root_s = root.to_str().expect("utf-8 path");
    for flag in [
        &["--baseline", "lint.baseline"][..],
        &["--update-baseline"],
        &["--migrate-baseline"],
        &["--selftest"],
    ] {
        let mut args = vec!["--workspace", "--root", root_s];
        args.extend_from_slice(flag);
        let out = run_lint(&args);
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {err}");
        assert!(
            err.contains("unknown argument") && err.contains("usage:"),
            "{err}"
        );
    }
}
