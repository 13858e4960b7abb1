#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For each workload in BENCHMARK.json it
makes a brief untraced and traced run and asserts that the result has
exactly the contract's keys, that every end-to-end (resp. per-layer)
metric prints with its unit, and that end-to-end values are positive.
It then runs each workload with a deliberately corrupted answer and
asserts that the answer checks catch it, and finally asserts that the
benchmark fails, without a result, in a directory holding only
BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "2"


def run(cwd, workload, trace, extra=()):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", "1", "--seconds",
                   SECONDS, "--trace", trace] + list(extra),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError("exit %d: %s" % (proc.returncode,
                                              proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, expected, positive):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, \
        set(metrics) ^ {m["name"] for m in expected}
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), m["name"]
        if positive:
            assert got["value"] > 0, (m["name"], got["value"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = 0
    for w in spec["workloads"]:
        name = w["name"]
        for trace, expected, positive in (("0", spec["end_to_end"], True),
                                          ("1", spec["per_layer"], False)):
            try:
                result = result_of(run(ROOT, name, trace))
                check_metrics(result, expected, positive)
                assert result["correct"] is True, "answers judged wrong"
                assert result["failed"] == 0, result["failed"]
                print("ok   %s --trace %s" % (name, trace))
            except AssertionError as e:
                failures += 1
                print("FAIL %s --trace %s: %s" % (name, trace, e))
        try:
            result = result_of(run(ROOT, name, "0", ["--corrupt", "1"]))
            assert result["correct"] is False, "corrupted answer not caught"
            print("ok   %s catches a corrupted answer" % name)
        except AssertionError as e:
            failures += 1
            print("FAIL %s --corrupt 1: %s" % (name, e))

    # Without the program's sources the benchmark must fail cleanly.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    proc = run(bare, spec["workloads"][0]["name"], "0")
    shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        failures += 1
        print("FAIL a bare directory did not fail cleanly")
    else:
        print("ok   a bare directory fails with exit %d" % proc.returncode)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
