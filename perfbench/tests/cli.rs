//! Runs the benchmark binary end to end on short runs: every workload
//! prints exactly the metrics `BENCHMARK.json` names, with their units,
//! as the last line of its output, and the same seed reproduces the same
//! check digests.

use freerider_telemetry::JsonValue;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["wifi-link", "coexist-fig16", "serve-deploy"];

fn out_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn run(workload: &str, seed: u64, trace: u8, out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", &trace.to_string()])
        .arg("--out")
        .arg(out)
        .output()
        .expect("the benchmark binary runs")
}

fn last_line(out: &Output) -> JsonValue {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    JsonValue::parse(last).expect("the last line is JSON")
}

/// `(name, unit)` of the metrics `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let list = doc
        .get(section)
        .and_then(JsonValue::as_array)
        .expect(section);
    list.iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn printed(result: &JsonValue) -> Vec<(String, String)> {
    let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
        panic!("metrics is an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(JsonValue::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{name} has a finite value"
            );
            let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn short_runs_print_every_declared_metric_with_its_unit() {
    let out = out_dir("metrics");
    for workload in WORKLOADS {
        for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let o = run(workload, 7, trace, &out);
            assert!(o.status.success(), "{workload} trace {trace}: {o:?}");
            let result = last_line(&o);
            let JsonValue::Object(keys) = &result else {
                panic!("result is an object");
            };
            let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true)
            );
            assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert_eq!(
                printed(&result),
                declared(section),
                "{workload} trace {trace}"
            );
        }
    }
}

#[test]
fn the_same_seed_reproduces_the_check_digests() {
    for workload in WORKLOADS {
        let digests: Vec<(String, Vec<String>)> = ["a", "b"]
            .iter()
            .map(|run_name| {
                let out = out_dir(&format!("digests-{run_name}"));
                let o = run(workload, 3, 0, &out);
                assert!(o.status.success(), "{workload}: {o:?}");
                let file = out.join(format!("{workload}-seed3-trace0.json"));
                let text = std::fs::read_to_string(file).expect("result file");
                let doc = JsonValue::parse(&text).expect("result file parses");
                let s = |v: &JsonValue| v.as_str().expect("hex digest").to_string();
                let machine = doc.get("machine").expect("machine fingerprint");
                for key in ["cpu", "nproc", "rustc", "target_features"] {
                    assert!(machine.get(key).is_some(), "fingerprint has {key}");
                }
                let ops = doc
                    .get("op_digests")
                    .and_then(JsonValue::as_array)
                    .expect("ops");
                (
                    s(doc.get("warmup_digest").expect("warm-up digest")),
                    ops.iter().map(s).collect(),
                )
            })
            .collect();
        let (a, b) = (&digests[0], &digests[1]);
        assert_eq!(a.0, b.0, "{workload} warm-up digests");
        let n = a.1.len().min(b.1.len());
        assert!(n >= 1);
        assert_eq!(a.1[..n], b.1[..n], "{workload} op digests");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "wifi-link", "--trace", "2"],
        &["--workload", "wifi-link", "--seconds"],
    ] {
        let o = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("runs");
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        assert!(o.stdout.is_empty());
    }
}
