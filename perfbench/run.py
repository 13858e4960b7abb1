#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--record FILE]

Run from the repository root. The perfbench program and the knmatch
library are built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs rebuild only what changed. The
program's stdout is passed through, so its last line is the result
object. A stamp naming the host shape, compiler, build type, source
revision and seed goes to stderr; with --record it is also appended,
with the result, to FILE as one JSON line (see compare.py).
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_revision():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "knmatch", "engine.h")):
        fail("no knmatch sources at " + ROOT + "; run from a full checkout")
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                          stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                       "-j", jobs], stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main(argv):
    args = list(argv)
    record = None
    if "--record" in args:
        i = args.index("--record")
        if i + 1 >= len(args):
            fail("--record needs a file")
        record = args[i + 1]
        del args[i:i + 2]
    opts = dict(zip(args[::2], args[1::2]))
    if len(args) % 2 or "--workload" not in opts:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1> [--record FILE]")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)

    cmd = [binary] + args
    if opts.get("--trace", "0") != "0" and "--trace-out" not in opts:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%s.jsonl" % (opts["--workload"],
                                         opts.get("--seed", "1")))]
    stamp = {"revision": source_revision(), "nproc": os.cpu_count(),
             "workload": opts["--workload"], "seed": opts.get("--seed"),
             "seconds": opts.get("--seconds"), "trace": opts.get("--trace")}
    print(json.dumps({"stamp": stamp}), file=sys.stderr)
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no result")
    if record:
        # The program's own stamp adds the compiler and build type.
        for line in run.stderr.splitlines():
            if line.startswith('{"stamp"'):
                stamp.update(json.loads(line)["stamp"])
                break
        with open(record, "a") as fh:
            fh.write(json.dumps({"stamp": stamp, "result": result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
