#!/usr/bin/env python3
"""Builds and runs the rapwam benchmark from the root of a checkout.

    python3 perfbench/run.py --workload pipeline|sweep|serve --seed N \
        --seconds S --trace 0|1 [--tiny]

The benchmark program, rapbench, is built with the library in src/ from
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR, or .bench_build when
that is unset; build output goes to standard error. The program's own output follows unchanged, its last
line the result object. Scratch files and span files go to .bench_out.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds rapbench; returns its path or None."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
        if r.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", build_dir, "--target", "rapbench",
                        "--", "-j", jobs], stdout=log, stderr=log)
    if r.returncode != 0:
        return None
    return os.path.join(build_dir, "rapbench")


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(build_dir)
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [exe] + sys.argv[1:] + [
        "--out", ".bench_out", "--pins", os.path.join(HERE, "digests.txt")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
