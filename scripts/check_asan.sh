#!/usr/bin/env bash
# Builds the library and test suite under AddressSanitizer and runs the
# fault-tolerance tests (page codec, fault injector, retrying reads,
# quarantine, engine degradation, the randomized soak) plus the storage
# and exec suites they lean on. The fault paths shuffle raw page bytes
# and latch errors mid-iteration — exactly where lifetime bugs hide, so
# any ASan report fails the script.
#
# Usage: scripts/check_asan.sh            (build dir: build-asan)
#        BUILD_DIR=/tmp/asan scripts/check_asan.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-asan}

cmake -B "$BUILD_DIR" -S . -DKNMATCH_SANITIZE=address
cmake --build "$BUILD_DIR" --target knmatch_tests -j"$(nproc)"

# halt_on_error turns the first report into a test failure; the filter
# covers every suite that exercises the fault-injection read paths.
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
  "$BUILD_DIR"/tests/knmatch_tests \
  --gtest_filter='ThreadPool*:PageCodec*:SortedColumns*:VaFile*:FaultInjector*:DiskSimulator*:PagedFile*:AdKernel*:BPlusTree*:BTreeColumns*:Engine*:Batch*:FaultSoak*:Storage*:Obs*:Governance*:Cache*:Wal*:FreeSpace*:LiveColumnIndex*:CrashMatrix*:Ingest*:Shard*:Packed*:Serve*'

echo "ASan: fault-tolerance tests passed with zero reports"
