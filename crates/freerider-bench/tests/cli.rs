//! The bench tools reject what they do not understand: an unknown
//! `-`-prefixed argument exits 2 with the usage text instead of silently
//! running a (full, multi-second) default workload. `repro` also stops
//! quietly when the reader of its stdout hangs up.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn assert_usage_error(out: &Output, usage: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: stderr {stderr}");
    assert!(stderr.contains(usage), "{what}: no usage text in {stderr}");
}

/// A fresh per-test output directory, so no run can write into the repo's
/// `benchmarks/`.
fn out_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn repro_rejects_unknown_flags() {
    let repro = env!("CARGO_BIN_EXE_repro");
    for args in [
        &["--qiuck", "table1"][..],
        &["table1", "--lanes"],
        &["--metrics", "table1"],
        &["--json"],
        &[],
    ] {
        let out = run(repro, args);
        assert_usage_error(&out, "usage: repro", &format!("repro {args:?}"));
        assert!(out.stdout.is_empty(), "repro {args:?} ran something");
    }
    let out = run(repro, &["--quick", "table1"]);
    assert!(out.status.success(), "repro --quick table1 failed");
}

#[test]
fn repro_stops_quietly_on_a_closed_stdout() {
    // `repro --list | head`: the reader is gone before repro writes, so
    // every write fails with a broken pipe. No race: the read end is
    // closed before the child starts.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "repro --list exited {:?}: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "repro panicked: {stderr}");
}

#[test]
fn bench_baseline_rejects_unknown_flags() {
    let bench = env!("CARGO_BIN_EXE_bench-baseline");
    let dir = out_dir("bench_baseline_rejects_unknown_flags");
    let json = dir.join("bench.json");
    let json = json.to_str().unwrap();
    for args in [
        &["--lanes", "all", "--out", json][..],
        &["--qiuck", "--out", json],
        &["--out"],
    ] {
        let out = run(bench, args);
        assert_usage_error(&out, "usage: bench-baseline", &format!("{args:?}"));
        assert!(
            std::fs::metadata(json).is_err(),
            "bench-baseline {args:?} wrote a baseline"
        );
    }
}
