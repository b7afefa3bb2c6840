#!/usr/bin/env python3
"""Self-tests of the rapwam benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Builds rapbench (as run.py does) and runs tiny inputs of every
workload, untraced twice and traced once. It checks that each run is
correct, that one seed gives one digest, that metric names are
well formed and that the metric names and units match BENCHMARK.json.
It also checks that the span file is valid trace-event JSON. Exits 1
on the first failure.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def bench_run(exe, workload, seed, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--tiny", "--out", ".bench_out"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        fail(f"{' '.join(cmd)} exited {p.returncode}: {p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} seed {seed} trace {trace}: incorrect run\n{p.stderr[-2000:]}")
    digest = [l.split()[3] for l in lines if l.startswith("digest ")]
    printed = [l.split()[1] for l in lines if l.startswith("metric ")]
    for name in printed + list(result["metrics"]):
        if not NAME.match(name):
            fail(f"{workload}: bad metric name {name!r}")
    return result, digest[0]


def main():
    exe = run.build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if exe is None:
        fail("build failed")
    spec = json.load(open("BENCHMARK.json"))
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in [x["name"] for x in spec["workloads"]]:
        first, d1 = bench_run(exe, w, 3, 0)
        _, d2 = bench_run(exe, w, 3, 0)
        if d1 != d2:
            fail(f"{w}: seed 3 gave digests {d1} and {d2}")
        traced, d3 = bench_run(exe, w, 3, 1)
        if d3 != d1:
            fail(f"{w}: traced digest {d3} differs from untraced {d1}")
        for trace, result in ((0, first), (1, traced)):
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                fail(f"{w} --trace {trace}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
        spans = json.load(open(f".bench_out/spans-{w}-3.json"))
        if not spans["traceEvents"] or any(e["ph"] != "X" for e in spans["traceEvents"]):
            fail(f"{w}: span file has no complete events")
        print(f"selftest: {w} ok (digest {d1})")
    print("selftest: all ok")


if __name__ == "__main__":
    main()
