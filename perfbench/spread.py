#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report every metric as the
median and quartiles of its values, with the spread (Q3 - Q1) / median
that BENCHMARK.json's bounds are judged against.

    python3 perfbench/spread.py --seeds 10 [--workloads mlp_b8 ...]
        [--seconds 10] [--trace 0] [--json summary.json]

Run from the repository root. Quartiles are statistics.quantiles(n=4).
Each row carries the host fingerprint of its runs; compare summaries only
when the fingerprints (CPU model, hardware threads, lanes, SIMD, build
type) match.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    lines = r.stdout.rstrip("\n").split("\n")
    host = next((json.loads(l[len("# host: "):]) for l in lines
                 if l.startswith("# host: ")), {})
    notes = [l[2:] for l in lines if l.startswith("# ") and
             not l.startswith("# host: ")]
    return json.loads(lines[-1]), host, wall, notes


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write the summary here")
    args = ap.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    summary = {}
    ok = True
    for w in args.workloads:
        values = {m["name"]: [] for m in metrics}
        walls, hosts, bad, runs = [], set(), 0, []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            started = time.strftime("%H:%M:%S")
            res, host, wall, notes = run_once(w, seed, args.seconds,
                                              args.trace)
            walls.append(wall)
            runs.append({"seed": seed, "started": started, "wall_s": wall,
                         "notes": notes, "result": res})
            host.pop("seed", None)
            host.pop("revision", None)
            hosts.add(json.dumps(host, sort_keys=True))
            bad += 0 if res["correct"] and res["failed"] == 0 else 1
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print("%s: %d runs, %d incorrect, wall per run %.1f-%.1f s"
              % (w, args.seeds, bad, min(walls), max(walls)))
        for h in sorted(hosts):
            print("  host %s" % h)
        rows = {}
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                         else (v[0], v[0], v[0]))
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                if spread > bound / 3:
                    flag = "  > bound/3"
                if spread > bound:
                    flag, ok = "  > BOUND", False
            print("  %-40s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s"
                  % (m["name"], med, q1, q3, spread, flag))
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "values": v}
        ok = ok and bad == 0
        summary[w] = {"hosts": sorted(hosts), "runs": runs, "metrics": rows}
        if args.json:  # rewritten per workload, so partial results survive
            with open(args.json, "w") as fh:
                json.dump(summary, fh, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
