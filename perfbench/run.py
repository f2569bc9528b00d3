#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <doc_qa|chat|tenants|session> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/ (both
relative to the current directory). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
exit code is 0 only when the run completed.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("doc_qa", "chat", "tenants", "session")
# The measured configuration is the program's default one.
REFUSED_ENV = ("PC_KV_FORMAT", "PC_FAULTS", "PC_DISK_DIR")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(bench_dir, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            capture_output=True, text=True)
        if cfg.returncode != 0:
            sys.stderr.write(cfg.stdout[-3000:] + cfg.stderr[-3000:])
            fail("configure failed")
    out = subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    # Variants for the README's reference figures (not used by the runs of
    # record): kernel pool size, and the Server mode.
    ap.add_argument("--threads", type=int)
    ap.add_argument("--mode", choices=("pool", "batching"))
    args = ap.parse_args()

    for var in REFUSED_ENV:
        if var in os.environ:
            fail(f"refusing to run with {var} set", 3)

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(bench_dir, build_dir)
    tmpdir = os.path.join(build_dir, "run-tmp")
    os.makedirs(tmpdir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--tmpdir", tmpdir]
    if args.threads is not None:
        cmd += ["--threads", str(args.threads)]
    if args.mode:
        cmd += ["--mode", args.mode]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
