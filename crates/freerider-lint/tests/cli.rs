//! The `freerider-lint` command line: `--help` prints the usage and exits
//! 0 without analysing anything; an unknown argument exits 2 with it.

use std::process::{Command, Output};

fn run_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_freerider-lint"))
        .args(args)
        .output()
        .expect("spawn freerider-lint")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for args in [&["--help"][..], &["-h"], &["--workspace", "--help"]] {
        let out = run_lint(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(
            stdout.starts_with("usage: freerider-lint"),
            "{args:?}: {stdout}"
        );
        assert!(!stdout.contains("finding"), "{args:?} ran the analysis");
        assert!(out.stderr.is_empty(), "{args:?}");
    }
}

#[test]
fn unknown_arguments_exit_2_with_usage() {
    for args in [&["--workspcae"][..], &["--workspace", "--json"], &[]] {
        let out = run_lint(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: freerider-lint"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran the analysis");
    }
}
