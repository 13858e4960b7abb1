#!/usr/bin/env python3
"""Compares two sets of recorded benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds lines appended by `run.py --record FILE`. For every
workload and metric the two medians are printed with the change and the
metric's bound from BENCHMARK.json. Runs from different host shapes
(processor count, compiler, build type) are not comparable: the script
refuses them and exits 2.
"""

import json
import os
import statistics
import sys

SHAPE = ("nproc", "compiler", "build_type")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def shapes(records):
    return {tuple(r["stamp"].get(k) for k in SHAPE) for r in records}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    shape = shapes(base) | shapes(new)
    if len(shape) != 1:
        print("refusing to compare runs from different host shapes "
              "(nproc, compiler, build type): %s" % sorted(shape),
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = sorted({r["stamp"]["workload"] for r in base + new})
    for workload in workloads:
        print(workload)
        rows = {}
        for side, records in (("base", base), ("new", new)):
            for r in records:
                if r["stamp"]["workload"] != workload:
                    continue
                for name, m in r["result"]["metrics"].items():
                    rows.setdefault(name, {"base": [], "new": []})[side]\
                        .append(m["value"])
        for name, sides in sorted(rows.items()):
            if not sides["base"] or not sides["new"]:
                continue
            b = statistics.median(sides["base"])
            n = statistics.median(sides["new"])
            change = (n - b) / b if b else float("nan")
            spec_m = bounds.get(name, {})
            bound = spec_m.get("bound")
            worse = (change > 0) == (spec_m.get("better") == "lower")
            flag = ("REGRESSION" if bound is not None and worse and
                    abs(change) > bound else "")
            print("  %-34s %12.6g -> %12.6g  %+7.1f%%  %s" %
                  (name, b, n, 100 * change, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
