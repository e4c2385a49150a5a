#!/usr/bin/env python3
"""Build and run one workload of the repo benchmark.

    python3 perfbench/run.py --workload pointnet_b8 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark builds the library from ../src
with its own CMake project (perfbench/CMakeLists.txt) into the directory
named by CARGO_TARGET_DIR (default .bench_build), then runs the C++
benchmark. Build output goes to standard error; standard output carries the
benchmark's notes and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. The metric names are checked
against BENCHMARK.json before the line is printed.

Exit status: 0 with a result line, non-zero without one (missing sources,
build failure, a crashed or mis-reporting benchmark).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(targets):
    if not (os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        fail("library sources (src/, CMakeLists.txt) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        try:
            subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail("build step failed: %s (%s)" % (" ".join(cmd), e))
    return out


def revision():
    """The git sha when the tree is a checkout, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
            if r.returncode == 0 and r.stdout.strip():
                return r.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if "__pycache__" in f:
                continue
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail("last output line is not JSON: %r" % line[:200])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(res))
    want = expected_metrics(trace)
    if set(res["metrics"]) != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(want - set(res["metrics"])),
            sorted(set(res["metrics"]) - want)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        out = build(["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_test")],
                                cwd=ROOT).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")

    out = build(["perfbench", "perfbench_traced"])
    binary = os.path.join(out, "perfbench_traced" if args.trace else "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--revision", revision()]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(r.stdout)
        fail("benchmark exited with %d and no result" % r.returncode)
    check_result(lines[-1], args.trace)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
