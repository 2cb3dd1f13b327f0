#!/usr/bin/env python3
"""Maintenance commands of the benchmark, run from the repository root.

    python3 perfbench/tools.py reference
        Recompute perfbench/reference.json, the output digest of every
        input of every workload. Only a change that is meant to alter
        simulated results should need this.
    python3 perfbench/tools.py baseline
        Run every workload traced and untraced once, at seed 1, and
        write the per-layer and end-to-end figures to
        perfbench/baseline.json.
    python3 perfbench/tools.py steady
        Run each workload ten times per set, in two sets, each run with
        its own seed, and write each end-to-end metric's spread
        (interquartile range over median) per set, and the change of its
        median from the first set to the second, checked against the
        bounds in BENCHMARK.json, to perfbench/steadiness.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

BASELINE_SEED = 1
RUNS = 10
SETS = 2


def spec():
    with open(run.SPEC) as f:
        return json.load(f)


def bench(workload, seed, trace, seconds):
    """One benchmark run through run.py; returns its result object."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True).stdout
    lines = out.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def write(name, doc):
    path = os.path.join(HERE, name)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {path}")


def machine():
    return {"cpus": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version()}


def reference():
    exe = run.build()
    if exe is None:
        sys.exit("build failed")
    subprocess.run([exe, "record"], check=True)


def baseline():
    s = spec()
    doc = {"seed": BASELINE_SEED, "seconds": s["run_seconds"], "host": machine(), "workloads": {}}
    for w in s["workloads"]:
        name = w["name"]
        plain = bench(name, BASELINE_SEED, 0, s["run_seconds"])
        traced = bench(name, BASELINE_SEED, 1, s["run_seconds"])
        doc["workloads"][name] = {
            "correct": plain["correct"] and traced["correct"],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    write("baseline.json", doc)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def steady():
    s = spec()
    metrics = s["end_to_end"]
    doc = {"runs_per_set": RUNS, "sets": SETS, "seconds": s["run_seconds"],
           "host": machine(), "workloads": {}}
    ok = True
    for name in [w["name"] for w in s["workloads"]]:
        sets = []
        for k in range(SETS):
            results = [bench(name, 1000 * k + i, 0, s["run_seconds"]) for i in range(RUNS)]
            assert all(r["correct"] for r in results), f"{name}: an operation failed"
            sets.append({m["name"]: [r["metrics"][m["name"]]["value"] for r in results]
                         for m in metrics})
        rows = {}
        for m in metrics:
            key, bound = m["name"], m["bound"]
            spreads, medians = zip(*(spread(st[key]) for st in sets))
            sign = 1 if m["better"] == "lower" else -1
            drift = [sign * (md - medians[0]) / medians[0] for md in medians[1:]]
            fits = all(d <= bound for d in drift) and max(spreads) <= bound
            ok = ok and fits
            rows[key] = {"bound": bound, "spreads": spreads, "medians": medians,
                         "worse_than_first_set": drift, "within_bound": fits,
                         "within_a_third": max(spreads) <= bound / 3,
                         "values": [st[key] for st in sets]}
            print(f"{name} {key}: spreads {['%.3f' % x for x in spreads]} "
                  f"drift {['%.3f' % x for x in drift]} bound {bound} -> {'ok' if fits else 'OUT'}")
        doc["workloads"][name] = rows
    write("steadiness.json", doc)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cmd", choices=("reference", "baseline", "steady"))
    args = parser.parse_args()
    return {"reference": reference, "baseline": baseline, "steady": steady}[args.cmd]() or 0


if __name__ == "__main__":
    sys.exit(main())
