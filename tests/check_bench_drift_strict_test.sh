#!/usr/bin/env bash
# Unit-style test for scripts/check_bench_drift.sh's lane-gating logic,
# driven through its --gate-only hook (no build, no benchmark run): a
# complete BENCH_throughput.json passes with and without --strict, the
# gated open_loop_serving lane WARN-passes when missing by default but
# fails under --strict, and a doctored attestation fails in both modes.
# That lane rides in a sibling BENCH_load.json, so the gate-only hook
# also reads that file next to the one it is handed.
#
# Registered in tests/CMakeLists.txt; run directly with
#   tests/check_bench_drift_strict_test.sh
set -u
cd "$(dirname "$0")/.."
SCRIPT=scripts/check_bench_drift.sh

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

fails=0
expect() {
  local want=$1 label=$2
  shift 2
  local got=0
  "$@" >"$tmpdir/out" 2>&1 || got=$?
  if [[ "$want" == pass && "$got" != 0 ]]; then
    echo "FAIL: $label — expected pass, got exit $got" >&2
    sed 's/^/    /' "$tmpdir/out" >&2
    fails=$((fails + 1))
  elif [[ "$want" == fail && "$got" == 0 ]]; then
    echo "FAIL: $label — expected failure, got exit 0" >&2
    sed 's/^/    /' "$tmpdir/out" >&2
    fails=$((fails + 1))
  else
    echo "ok: $label"
  fi
}

# A minimal JSON carrying every gated lane, shaped like the one-lane-
# per-line layout bench_throughput writes (the gates grep that layout).
good=$tmpdir/good.json
cat >"$good" <<'EOF'
{
  "bench": "throughput",
  "workloads": [
    {"name": "knmatch_n8_k10", "sequential_qps": 250.0},
    {"name": "zipfian_repeat", "cold_qps": 240.0, "cached_qps": 2000.0, "cache_speedup": 8.33, "hit_ratio_percent": 88.9},
    {"name": "ingest_under_load", "query_qps": 250.0, "ingest_ops_per_sec": 17.0},
    {"name": "sharded_scatter_gather", "configs": [
      {"shards": 1, "sharded_qps": 95.0},
      {"shards": 4, "sharded_qps": 80.0}
    ]}
  ]
}
EOF

# The serving lane is gated from the sibling BENCH_load.json (the
# bench_load writer); give the fixture directory a healthy one so the
# complete-file cases exercise that gate too.
cat >"$tmpdir/BENCH_load.json" <<'EOF'
{
  "bench": "load",
  "lanes": [
    {"name": "open_loop_serving", "duration_s": 2.0, "rps_start": 150.0, "rps_end": 300.0, "sent": 300, "ok": 280, "shed": 12, "deadline": 3, "transport_errors": 0, "faults_injected": 20, "p50_ms": 0.5, "p99_ms": 2.5, "p999_ms": 4.0, "shed_rate": 0.04, "torn_frames": 4, "malformed": 5, "mirror_ok": true, "fd_leak_ok": true}
  ]
}
EOF

expect pass "complete file passes" \
  bash "$SCRIPT" --gate-only "$good"
expect pass "complete file passes under --strict" \
  bash "$SCRIPT" --strict --gate-only "$good"

# Serving lane: a missing sibling BENCH_load.json WARN-passes by
# default and fails under --strict.
mkdir -p "$tmpdir/noserve"
cp "$good" "$tmpdir/noserve/good.json"
expect pass "missing open_loop_serving lane WARN-passes without --strict" \
  bash "$SCRIPT" --gate-only "$tmpdir/noserve/good.json"
grep -q 'WARN \[lane open_loop_serving\]' "$tmpdir/out" || {
  echo "FAIL: missing-serving pass did not print the WARN line" >&2
  fails=$((fails + 1))
}
expect fail "missing open_loop_serving lane fails under --strict" \
  bash "$SCRIPT" --strict --gate-only "$tmpdir/noserve/good.json"

# Doctored serving attestations fail in both modes.
mkdir -p "$tmpdir/badmirror"
cp "$good" "$tmpdir/badmirror/good.json"
sed 's/"mirror_ok": true/"mirror_ok": false/' "$tmpdir/BENCH_load.json" \
  >"$tmpdir/badmirror/BENCH_load.json"
expect fail "serving mirror_ok false fails" \
  bash "$SCRIPT" --gate-only "$tmpdir/badmirror/good.json"
expect fail "serving mirror_ok false fails under --strict" \
  bash "$SCRIPT" --strict --gate-only "$tmpdir/badmirror/good.json"

mkdir -p "$tmpdir/badfd"
cp "$good" "$tmpdir/badfd/good.json"
sed 's/"fd_leak_ok": true/"fd_leak_ok": false/' "$tmpdir/BENCH_load.json" \
  >"$tmpdir/badfd/BENCH_load.json"
expect fail "serving fd_leak_ok false fails" \
  bash "$SCRIPT" --gate-only "$tmpdir/badfd/good.json"

# Legacy lanes keep their always-fail contract in both modes.
no_zipf=$tmpdir/no_zipf.json
grep -v 'zipfian_repeat' "$good" >"$no_zipf"
expect fail "missing zipfian_repeat fails without --strict" \
  bash "$SCRIPT" --gate-only "$no_zipf"

expect fail "nonexistent file fails" \
  bash "$SCRIPT" --gate-only "$tmpdir/does_not_exist.json"
expect fail "unknown flag fails" \
  bash "$SCRIPT" --no-such-flag

if [[ "$fails" != 0 ]]; then
  echo "$fails case(s) failed" >&2
  exit 1
fi
echo "all check_bench_drift --strict gating cases passed"
