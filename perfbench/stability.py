#!/usr/bin/env python3
"""Runs two sets of benchmark runs on one build and checks they agree.

Usage, from the root of the repository:

    python3 perfbench/stability.py [--workloads doc_qa,tenants] [--runs 10]
        [--seconds S] [--out result.json]

Each of the two sets runs every workload --runs times, each run with its
own --seed (set k uses seeds 1000*k + 1 ...). For every workload and
end-to-end metric it prints the median, the quartiles and the spread
(interquartile range over the median, as statistics.quantiles(values, n=4)
gives the quartiles) of each set, and whether

  * each set's spread is within BENCHMARK.json's bound, and
  * the two sets' medians differ, in either direction, by no more than the
    bound (as a share of the first set's median), and
  * the share of failed operations is identical in every run.

The JSON result is stamped with the git SHA, the build type, nproc and the
PC_* environment. The exit code is 0 only when everything agrees.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit(f"run failed: {workload} seed {seed}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.time() - t0
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def stamp():
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    build_dir = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build_type = "unknown"
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return {"git_sha": sha, "build_type": build_type,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "env": {k: v for k, v in os.environ.items()
                    if k.startswith("PC_") or k == "CARGO_TARGET_DIR"}}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report = {"stamp": stamp(), "runs": args.runs,
              "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(1, SETS + 1):
            sets.append([run_once(workload, 1000 * k + i, args.seconds)
                         for i in range(1, args.runs + 1)])
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        correct = all(r["correct"] for s in sets for r in s)
        w = {"correct": correct, "failed_shares": sorted(shares),
             "wall_s": statistics.median(r["wall_s"] for s in sets
                                         for r in s),
             "metrics": {}}
        ok = ok and correct and len(shares) == 1
        print(f"== {workload}: correct={correct} failed shares="
              f"{sorted(shares)} median wall {w['wall_s']:.1f} s", flush=True)
        for name, m in metrics.items():
            per_set = [summarize([r["metrics"][name]["value"] for r in s])
                       for s in sets]
            spread_ok = all(p["spread"] <= m["bound"] for p in per_set)
            first, second = (p["median"] for p in per_set)
            agree = abs(second - first) / first <= m["bound"]
            ok = ok and spread_ok and agree
            w["metrics"][name] = {
                "sets": per_set, "bound": m["bound"], "spread_ok": spread_ok,
                "agree": agree,
                "values": [[r["metrics"][name]["value"] for r in s]
                           for s in sets]}
            cells = "  ".join(
                f"{p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] "
                f"spread {p['spread']:.3f}" for p in per_set)
            print(f"  {name:16s} {cells}  bound {m['bound']}  "
                  f"{'ok' if spread_ok and agree else 'NOT STEADY'}",
                  flush=True)
        report["workloads"][workload] = w
    report["agree"] = ok
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
