#!/usr/bin/env bash
# Builds the library and test suite under ThreadSanitizer and runs the
# exec-layer tests (thread pool, batch executor, scratch arenas, the
# engine's call_once builders). Any reported race fails the script —
# the batch executor's contract is zero races.
#
# Usage: scripts/check_tsan.sh            (build dir: build-tsan)
#        BUILD_DIR=/tmp/tsan scripts/check_tsan.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-tsan}

cmake -B "$BUILD_DIR" -S . -DKNMATCH_SANITIZE=thread
cmake --build "$BUILD_DIR" --target knmatch_tests -j"$(nproc)"

# halt_on_error turns the first race into a test failure instead of a
# warning; the filter covers every test that touches the exec layer.
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  "$BUILD_DIR"/tests/knmatch_tests \
  --gtest_filter='ThreadPool*:AdCursorHeap*:AdKernel*:AdScratch*:Batch*:EngineConcurrency*:Obs*:Governance*:Cache*:Shard*:Packed*:Serve*'

# The live-ingest reader/writer soak: N snapshot-pinning query threads
# race one WAL-committing writer for KNMATCH_SOAK_MS (longer here than
# the default ctest run — the soak is the TSan gate for the epoch
# publish/pin protocol), with every sampled answer differentially
# checked against a quiesced mirror.
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  KNMATCH_SOAK_MS=${KNMATCH_SOAK_MS:-10000} \
  "$BUILD_DIR"/tests/knmatch_tests \
  --gtest_filter='IngestSoak*:LiveColumnIndex*'

echo "TSan: exec-layer tests passed with zero reported races"
