#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of the repository.  The first form builds
perfbench/main.exe with dune (build output goes to standard error) and runs
one workload; its last line of standard output is the JSON result.  The
second form runs every workload of BENCHMARK.json twice, untraced
(end-to-end metrics) and traced (per-layer metrics), each in its own
process so that peak heap is per workload, and ends with one JSON line
holding every metric as "<workload>/<metric>".

Exits non-zero without a result line when the program cannot be built,
e.g. outside a checkout of the repository.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 175
NOT_EXERCISED = "not exercised by this workload:"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("run from the repository root (no dune-project or lib/ here)")
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    res = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if res.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (dune exit %d)" % res.returncode)


def run_one(workload, seed, seconds, trace, capture):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if res.returncode != 0:
        fail("%s exited with code %d" % (workload, res.returncode))
    return res.stdout


def run_all(seed, seconds):
    with open("BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        for trace in (0, 1):
            out = run_one(name, seed, seconds, trace, capture=True)
            lines = out.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            absent = set()
            for line in lines[:-1]:
                if line.strip().startswith(NOT_EXERCISED):
                    absent = set(line.split(":", 1)[1].strip().split(","))
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                if metric not in absent:
                    metrics[name + "/" + metric] = v
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    build()
    if a.workload == "all":
        run_all(a.seed, a.seconds)
    else:
        sys.stdout.flush()
        run_one(a.workload, a.seed, a.seconds, a.trace, capture=False)


if __name__ == "__main__":
    main()
