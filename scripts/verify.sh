#!/usr/bin/env sh
# Hermetic verification: everything must pass offline, with no network and
# no registry — the workspace has zero external dependencies.
#
#   sh scripts/verify.sh
set -eu
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test --workspace -q --offline"
cargo test --workspace -q --offline

echo "==> perfbench tests (the benchmark builds against the telemetry API)"
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --offline -- -D warnings"
cargo clippy --workspace --offline -- -D warnings

echo "==> freerider-lint --workspace (determinism / panic / unsafe / hot-path contract)"
cargo run --release --offline -p freerider-lint -- \
    --workspace --json /tmp/freerider_lint.json
python3 - <<'EOF'
import json
with open("/tmp/freerider_lint.json") as f:
    doc = json.load(f)
assert doc["schema"] == "freerider-lint/3", doc.get("schema")
assert doc["ok"] is True, "lint report not ok"
assert doc["totalFindings"] == 0, f"{doc['totalFindings']} lint finding(s)"
assert doc["filesScanned"] > 100, doc["filesScanned"]
for r in doc["rules"]:
    assert r["findings"] == [], f"{r['slug']}: {r['findings']}"
slugs = {r["slug"] for r in doc["rules"]}
expected = {"wallclock", "hash-collections", "env-registry",
            "panic", "unsafe-audit", "hot-path-alloc", "atomic-ordering",
            "thread-containment", "wire-exhaustive", "pragma"}
assert expected <= slugs, f"missing rules: {expected - slugs}"
ids = {r["id"] for r in doc["rules"]}
assert {"A1", "O1", "T1", "E1"} <= ids, f"missing rule ids: {ids}"
print(f"lint JSON OK: {doc['filesScanned']} files, {len(slugs)} rules, "
      f"{doc['totalFindings']} findings")
EOF

echo "==> repro --quick all --json smoke"
./target/release/repro --quick all --json /tmp/freerider_repro_smoke.json >/dev/null
python3 - <<'EOF'
import json
with open("/tmp/freerider_repro_smoke.json") as f:
    doc = json.load(f)
assert doc["schema"] == "freerider-repro/4", doc.get("schema")
assert doc["experiments"], "no experiments in repro JSON"
for e in doc["experiments"]:
    assert e["name"] and e["output"], e.get("name")
    # Deterministic counts live in the profile report only.
    assert "metrics" not in e, f"{e['name']}: stale metrics section"
    # Stage wall-clock lives in the profile report only.
    assert sorted(e["timing"]) == ["wall_s"], e["timing"]
    assert "forensics" in e, f"{e['name']}: missing forensics section"
    assert isinstance(e["forensics"]["packets"], list)
print(f"repro JSON OK: {len(doc['experiments'])} experiments")
EOF

echo "==> repro --trace smoke (flight recorder + Chrome export)"
./target/release/repro --quick --trace /tmp/freerider_trace_smoke.json \
    --json /tmp/freerider_repro_traced.json fig10 >/dev/null
python3 - <<'EOF'
import json
with open("/tmp/freerider_trace_smoke.json") as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "empty Chrome trace"
# At least one complete span tree: a packet-level X span containing a
# stage-level X span on the same pid/tid.
packets = [e for e in events if e.get("ph") == "X" and "#" in e.get("name", "")]
stages = [e for e in events if e.get("ph") == "X" and "#" not in e.get("name", "")]
assert packets, "no packet spans in Chrome trace"
nested = any(
    p["pid"] == s["pid"] and p["tid"] == s["tid"]
    and p["ts"] <= s["ts"] and s["ts"] + s["dur"] <= p["ts"] + p["dur"]
    for p in packets for s in stages
)
assert nested, "no stage span nested inside a packet span"
with open("/tmp/freerider_repro_traced.json") as f:
    traced = json.load(f)
forensic_packets = sum(
    len(e["forensics"]["packets"]) for e in traced["experiments"]
)
print(f"trace OK: {len(events)} events, {len(packets)} packet spans, "
      f"{forensic_packets} forensic packets")
EOF

echo "==> repro --profile smoke (stage profiler: schema, counters, tree invariant)"
./target/release/repro --quick --profile /tmp/freerider_profile_smoke.json \
    fig10 >/dev/null 2>&1
python3 - <<'EOF'
import json
with open("/tmp/freerider_profile_smoke.json") as f:
    doc = json.load(f)
assert doc["schema"] == "freerider-profile/1", doc.get("schema")
stages = doc["stages"]
assert stages, "empty profile report"
by_path = {s["path"]: s for s in stages}
assert "wifi.rx" in by_path, sorted(by_path)
# Deterministic work counters must be present and nonzero somewhere.
work_total = sum(sum(s["work"].values()) for s in stages)
assert work_total > 0, "no work counters recorded"
viterbi = by_path.get("wifi.rx/decode/viterbi")
assert viterbi and viterbi["work"].get("viterbi.acs_ops", 0) > 0, viterbi
# Branch outcomes are work counters on the stage that decides them.
detect = by_path.get("wifi.rx/detect")
assert detect and detect["work"].get("locks", 0) > 0, detect
# Tree invariant: each parent's recorded time bounds the sum of its
# children (scope nesting guarantees this; floor-truncation only helps).
for path, s in by_path.items():
    kids = [c for p, c in by_path.items()
            if p.startswith(path + "/") and "/" not in p[len(path) + 1:]]
    child_ns = sum(c["timing"]["total_ns"] for c in kids)
    assert child_ns <= s["timing"]["total_ns"], \
        f"{path}: children {child_ns}ns exceed parent {s['timing']['total_ns']}ns"
# One schema for stage data: every stage span of the fig10 Chrome trace
# (packet spans carry a `#id`) is the leaf of some profile path.
with open("/tmp/freerider_trace_smoke.json") as f:
    trace_doc = json.load(f)
leaves = {p.rsplit("/", 1)[-1] for p in by_path}
span_names = {e["name"] for e in trace_doc["traceEvents"]
              if e.get("ph") == "X" and "#" not in e["name"]}
assert span_names, "no stage spans in the fig10 Chrome trace"
assert span_names <= leaves, \
    f"stage spans missing from the profile: {sorted(span_names - leaves)}"
print(f"profile OK: {len(stages)} stages, {work_total} work units, "
      f"tree invariant holds, {len(span_names)} trace stage names match")
EOF

echo "==> bench_diff selftest (per-stage regression gate gates)"
python3 scripts/bench_diff.py --selftest

echo "==> lane sweep smoke (widths 1/2/4/8 present, defaults are measured winners)"
./target/release/bench-baseline --quick \
    --out /tmp/freerider_bench_lanes.json >/dev/null
# Quick-budget medians are noisier than the committed full run; the
# sweeps separate their winners by ~2x, so a widened slack still catches
# a genuinely wrong compiled-in default without flaking on jitter.
FREERIDER_LANE_SLACK=25 python3 scripts/bench_diff.py \
    --assert-lanes /tmp/freerider_bench_lanes.json
python3 - <<'EOF'
import json
with open("/tmp/freerider_bench_lanes.json") as f:
    kernels = json.load(f)["kernels"]
# The paper's own kernels (section 3): tag codeword translation, XOR decode.
for row in ("tag/phase_translate_wifi_packet", "decoder/xor_majority_500_tag_bits"):
    assert kernels.get(row, {}).get("median_ns", 0) > 0, f"missing kernel row {row}"
print("paper kernel rows OK")
EOF

echo "==> fft64/ifft64 bit-identical to the direct transform (release profile)"
cargo test --release --offline -q -p freerider-dsp specialized_64_path_is_bit_identical

echo "==> freerider-serve smoke (ephemeral port, streamed job, clean shutdown)"
SERVE_LOG=/tmp/freerider_serve_smoke.log
./target/release/freerider serve --addr 127.0.0.1:0 --threads 1 >"$SERVE_LOG" &
SERVE_PID=$!
# Wait for the startup line that carries the ephemeral port.
SERVE_ADDR=""
for _ in $(seq 1 50); do
    SERVE_ADDR=$(sed -n 's/^freerider-serve listening on //p' "$SERVE_LOG")
    [ -n "$SERVE_ADDR" ] && break
    sleep 0.1
done
[ -n "$SERVE_ADDR" ] || { echo "serve smoke: server never announced its port"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
./target/release/freerider-client --addr "$SERVE_ADDR" \
    submit --tags 50 --rounds 25 --snapshot-every 10 --watch \
    >/tmp/freerider_serve_stream.log
PROGRESS=$(grep -c '^progress ' /tmp/freerider_serve_stream.log)
SNAPSHOTS=$(grep -c '^snapshot ' /tmp/freerider_serve_stream.log)
[ "$PROGRESS" -ge 10 ] || { echo "serve smoke: only $PROGRESS progress frames (want >= 10)"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
[ "$SNAPSHOTS" -ge 2 ] || { echo "serve smoke: only $SNAPSHOTS snapshots (want >= 2)"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
grep -q '^result: ' /tmp/freerider_serve_stream.log || { echo "serve smoke: no final result line"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
# Stats smoke: the raw Stats payload must carry the right schema and
# nonzero counters for the traffic the streamed job just generated.
./target/release/freerider-client --addr "$SERVE_ADDR" stats --json \
    >/tmp/freerider_serve_stats.json \
    || { echo "serve smoke: stats request failed"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
python3 - <<'EOF' || { kill "$SERVE_PID" 2>/dev/null; exit 1; }
import json
with open("/tmp/freerider_serve_stats.json") as f:
    doc = json.load(f)
assert doc["schema"] == "freerider-serve-stats/1", doc.get("schema")
c = doc["counters"]
assert c.get("frames.rx.submit_job", 0) >= 1, c
assert c.get("jobs.completed", 0) >= 1, c
assert c.get("sessions.accepted", 0) >= 1, c
assert c.get("bytes.tx", 0) > 0, c
assert "gauges" in doc and "latency" in doc, sorted(doc)
print(f"stats JSON OK: {len(c)} counters, "
      f"{c['frames.rx.submit_job']} submit(s), {c['jobs.completed']} job(s) done")
EOF
./target/release/freerider-client --addr "$SERVE_ADDR" health >/dev/null \
    || { echo "serve smoke: health request failed"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
# The read-only client commands against the finished job.
JOB=$(sed -n 's/^job \([0-9][0-9]*\) accepted.*/\1/p' /tmp/freerider_serve_stream.log)
[ -n "$JOB" ] || { echo "serve smoke: no job id in the submit output"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
./target/release/freerider-client --addr "$SERVE_ADDR" status "$JOB" \
    | grep -q "^job $JOB done round 25/25 tags 50$" \
    || { echo "serve smoke: status $JOB is not done 25/25"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
./target/release/freerider-client --addr "$SERVE_ADDR" list \
    | grep -q "^job $JOB done " \
    || { echo "serve smoke: list does not show job $JOB done"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
./target/release/freerider-client --addr "$SERVE_ADDR" top --iters 1 --interval 0.1 \
    | grep -q '^freerider-serve  up ' \
    || { echo "serve smoke: top did not report the server up"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
./target/release/freerider-client --addr "$SERVE_ADDR" shutdown >/dev/null
wait "$SERVE_PID"
echo "serve smoke OK: $PROGRESS progress frames, $SNAPSHOTS snapshots, stats + health + status + list + top served, clean shutdown"

echo "==> perfbench serve-deploy traced (served job correct; decode and sim allocations bounded)"
# The served job's blocking path stays off the heap: the client's pull
# decoders allocate only the decoded messages, and the simulator at most
# once per round. The bounds are per op (627 frames, 600 rounds); the
# JSON DOM decoder and per-round slot buckets made 99 483 and 41 471.
cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload serve-deploy --seed 3 --seconds 2 --trace 1 \
    --out /tmp/freerider_perfbench_serve >/dev/null
python3 - <<'EOF'
import json
with open("/tmp/freerider_perfbench_serve/serve-deploy-seed3-trace1.json") as f:
    doc = json.load(f)
assert doc["correct"] is True, doc["errors"]
m = {k: v["value"] for k, v in doc["metrics"].items()}
assert m["client.decode.allocs"] <= 1000, m["client.decode.allocs"]
assert m["net.sim.allocs"] <= 5000, m["net.sim.allocs"]
print(f"serve-deploy OK: {doc['attempted']} ops, "
      f"client.decode {m['client.decode.allocs']:.0f} and "
      f"net.sim {m['net.sim.allocs']:.0f} allocations per op")
EOF

echo "==> perfbench wifi-link serial vs two-leg (same op digests at FREERIDER_THREADS=1 and unset)"
# Unset, the executor sizes itself from the cores, so on a multi-core
# host each packet's reference and backscatter legs run side by side
# (Executor::join_if); at 1 thread they run one after the other. Both
# runs must be correct and agree on every op both completed.
FREERIDER_THREADS=1 cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload wifi-link --seed 3 --seconds 2 --trace 0 \
    --out /tmp/freerider_perfbench_wifi_serial >/dev/null
env -u FREERIDER_THREADS cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload wifi-link --seed 3 --seconds 2 --trace 0 \
    --out /tmp/freerider_perfbench_wifi_default >/dev/null
python3 - <<'EOF'
import json
docs = []
for d in ("serial", "default"):
    with open(f"/tmp/freerider_perfbench_wifi_{d}/wifi-link-seed3-trace0.json") as f:
        docs.append(json.load(f))
for doc in docs:
    assert doc["correct"] is True, doc["errors"]
a, b = (doc["op_digests"] for doc in docs)
n = min(len(a), len(b))
assert n > 0, "no ops to compare"
assert a[:n] == b[:n], "op digests differ between 1 thread and the default"
print(f"wifi-link OK: {n} ops bit-identical, {len(a)} serial vs {len(b)} default ops in 2 s")
EOF

echo "==> perfbench coexist-fig16 (correct, warm-up digest pinned)"
# The only workload that runs the ZigBee and BLE receivers and the
# interferer. Its warm-up op's digest is fixed by the bits of every
# window, so a receiver rewrite that changes one decoded symbol fails
# here as well as in tests/baselines.rs.
cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload coexist-fig16 --seed 3 --seconds 2 --trace 0 \
    --out /tmp/freerider_perfbench_coexist >/dev/null
python3 - <<'EOF'
import json
with open("/tmp/freerider_perfbench_coexist/coexist-fig16-seed3-trace0.json") as f:
    doc = json.load(f)
assert doc["correct"] is True, doc["errors"]
assert doc["failed"] == 0, doc["failed"]
assert doc["warmup_digest"] == "2706634ee6dceb7b", doc["warmup_digest"]
print(f"coexist-fig16 OK: {doc['attempted']} ops, warm-up digest {doc['warmup_digest']}")
EOF

echo "==> bench baseline (diff vs benchmarks/latest.json)"
# Full mode, not --quick: the committed baseline is a full run, and the
# kernel rows of bench_diff fail hard, so the comparison must be
# like-for-like. --warn-only downgrades only the experiment wall-clock
# rows, which are scheduling-noise-dominated on shared machines.
./target/release/bench-baseline --out /tmp/freerider_bench_new.json >/dev/null
python3 scripts/bench_diff.py --warn-only benchmarks/latest.json /tmp/freerider_bench_new.json

echo "verify: OK"
