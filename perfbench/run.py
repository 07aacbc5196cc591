#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload regen --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20   # every workload, each in a fresh process

The benchmark binary and the bpservd/bprouter daemons are built from the
checkout's sources into .bench_build/, with the Go build cache and
temporary files kept there too, so a run reads and writes nothing outside
the checkout. Each workload runs in a fresh process; the last line of
standard output is the run's JSON result (see perfbench/README.md).
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["regen", "sweep", "serve-steady", "serve-churn"]
BUILD_TIMEOUT_S = 850  # the first build in a checkout compiles the standard library


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, env):
    bindir = os.path.join(root, ".bench_build", "bin")
    cmd = ["go", "build", "-o", bindir + os.sep, ".", "repro/cmd/bpservd", "repro/cmd/bprouter"]
    try:
        res = subprocess.run(cmd, cwd=os.path.join(root, "perfbench"), env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0:
        fail("build failed")
    return bindir


def bench_cmd(bindir, root, args, workload):
    return [os.path.join(bindir, "perfbench"), "-root", root, "-bin", bindir,
            "-workload", workload, "-seed", str(args.seed), "-seconds", str(args.seconds),
            "-trace", str(args.trace)]


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Everything the go command would write under $HOME (build cache,
    # module path, its config and telemetry counters) goes to .bench_build.
    env = dict(os.environ,
               GOCACHE=os.path.join(build_dir, "gocache"),
               GOPATH=os.path.join(build_dir, "gopath"),
               XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
               GOTMPDIR=tmp, TMPDIR=tmp,
               GOFLAGS="-mod=mod", GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off")
    bindir = build(root, env)

    if args.workload != "all":
        # The benchmark replaces this process, so a signal sent to it
        # reaches the benchmark, which stops its daemons on every exit path.
        cmd = bench_cmd(bindir, root, args, args.workload)
        os.execv(cmd[0], cmd)

    # One command for every workload: each runs in its own process, and
    # the last line merges their results under workload/metric names.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        print("== " + w, flush=True)
        res = subprocess.run(bench_cmd(bindir, root, args, w), stdout=subprocess.PIPE, text=True)
        lines = res.stdout.rstrip("\n").split("\n")
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            out = json.loads(lines[-1])
        except ValueError:
            fail(w + ": no result line")
        merged["correct"] = merged["correct"] and out["correct"]
        merged["attempted"] += out["attempted"]
        merged["failed"] += out["failed"]
        for name, m in out["metrics"].items():
            merged["metrics"][w + "/" + name] = m
        code = code or res.returncode
    print(json.dumps(merged), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
