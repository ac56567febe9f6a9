//! The command-line front ends reject flags they do not know: each
//! subcommand checks its flags against its own set, and a misspelt one
//! exits 2 with the usage text instead of silently running with a
//! default. The client points at `127.0.0.1:9`, where no server listens,
//! so a flag that gets past the check shows up as a connect error.
//! `--help` (or `-h`) anywhere prints the usage and exits 0.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn assert_usage_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: stderr {stderr}");
    assert!(stderr.contains("unknown flag"), "{what}: {stderr}");
    assert!(
        stderr.contains("USAGE"),
        "{what}: no usage text in {stderr}"
    );
    assert!(out.stdout.is_empty(), "{what} ran something");
}

#[test]
fn freerider_rejects_unknown_flags() {
    let bin = env!("CARGO_BIN_EXE_freerider");
    for args in [
        &["link", "wifi", "--distanse", "30", "--packets", "2"][..],
        // `--distance` belongs to `link`; `survey` takes `--distances`.
        &["survey", "zigbee", "--distance", "8"],
        &["power", "--seed", "1"],
        // Only `serve` listens, so only `serve` takes `--addr`.
        &["link", "ble", "--addr", "127.0.0.1:9"],
    ] {
        assert_usage_error(&run(bin, args), &format!("freerider {args:?}"));
    }
    let out = run(bin, &["power"]);
    assert!(out.status.success(), "freerider power failed");
}

#[test]
fn freerider_client_rejects_unknown_flags_before_connecting() {
    let bin = env!("CARGO_BIN_EXE_freerider-client");
    for args in [
        &["--addr", "127.0.0.1:9", "submit", "--tag", "50"][..],
        &["--addr", "127.0.0.1:9", "list", "--json"],
        &["--addr", "127.0.0.1:9", "top", "--iter", "1"],
    ] {
        let out = run(bin, args);
        assert_usage_error(&out, &format!("freerider-client {args:?}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("connect"), "{args:?} connected: {stderr}");
    }
    // Known flags pass the check and reach the (refused) connect.
    for args in [
        &["--addr", "127.0.0.1:9", "submit", "--tags", "4", "--watch"][..],
        &["stats", "--json", "--addr", "127.0.0.1:9"],
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("connect 127.0.0.1:9"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_freerider"), &["--help"][..]),
        (env!("CARGO_BIN_EXE_freerider"), &["link", "wifi", "-h"]),
        (env!("CARGO_BIN_EXE_freerider-client"), &["--help"]),
        // Help wins over the command: nothing connects.
        (
            env!("CARGO_BIN_EXE_freerider-client"),
            &["--addr", "127.0.0.1:9", "top", "-h"],
        ),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("USAGE"),
            "{args:?}: no usage on stdout"
        );
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}
