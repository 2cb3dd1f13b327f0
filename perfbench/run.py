#!/usr/bin/env python3
"""Benchmark of the Spider simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or `all` to run every
workload in turn. The script builds the `perfbench` binary from source
(release profile, offline), then runs a closed loop: one operation at a
time, each in its own process, the next starting when the previous one
ends, until S seconds have passed (at least one operation runs, and a
traced run at least one traced and one untraced).
Successive operations take successive inputs derived from the seed.
Every operation's output digest is checked against `reference.json`.

With `--trace 0` it reports the end-to-end metrics of untraced
operations; with `--trace 1` it alternates traced and untraced
operations and reports the per-layer metrics, the tracing overhead, and
writes the traced operations' spans under `.perfbench/`. The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = ".perfbench"
# Set-up is a millisecond or less, so each `setup` process samples it
# many times, and SETUP_PROCESSES of them run before the first operation;
# the median of all samples is reported. For a few tenths of a second
# after a busy process ends, short jobs on a shared host can run up to
# twice as slow, so the samples are taken first, after a SETTLE_S pause,
# and not between operations.
SETUP_PROCESSES = 10
SETTLE_S = 1.0
# An operation still running after this long is killed and counted as
# failed, so a hung program cannot keep the benchmark from ending.
OP_TIMEOUT_S = 120


def build():
    """Build the binary; return its path, or None if the build failed."""
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        return None
    exe = os.path.join(target, "release", "perfbench")
    return exe if os.path.isfile(exe) else None


def run_child(cmd):
    """Run one process; return (wall s, cpu s, peak RSS MB, exit status, parsed last line)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    timer.cancel()
    code = os.waitstatus_to_exitcode(status)
    doc = None
    lines = out.decode(errors="replace").strip().splitlines()
    if code == 0 and lines:
        try:
            doc = json.loads(lines[-1])
        except ValueError:
            doc = None
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code, doc


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(exe, spec, refs, workload, seed, seconds, trace):
    """Run one workload; return (attempted, failed, metrics, report lines)."""
    time.sleep(SETTLE_S)
    setup = []
    for _ in range(SETUP_PROCESSES):
        doc = run_child([exe, "setup", "--workload", workload, "--seed", str(seed)])[4]
        setup.extend(doc["setup_s"] if doc else [])

    ops = []
    # A traced run needs a traced and an untraced operation to compare.
    least = 2 if trace else 1
    start = time.perf_counter()
    while len(ops) < least or time.perf_counter() - start < seconds:
        traced = trace and len(ops) % 2 == 0
        # A traced run repeats the seed's first input, so its counts are
        # exact and its traced and untraced times compare like for like.
        index = 0 if trace else len(ops)
        cmd = [exe, "op", "--workload", workload, "--seed", str(seed), "--op", str(index)]
        if traced:
            cmd.append("--trace")
        wall, cpu, rss, code, doc = run_child(cmd)
        ok = doc is not None and refs.get(workload, {}).get(str(doc["input"])) == doc["digest"]
        ops.append({"traced": traced, "wall": wall, "cpu": cpu, "rss": rss, "ok": ok, "doc": doc})

    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    plain = [op for op in ops if not op["traced"]] or ops
    walls = [op["wall"] for op in plain]
    w1, w2, w3 = quartiles(walls)
    cpu = statistics.median(op["cpu"] for op in plain)
    workers = max((op["doc"] or {}).get("workers", 1) for op in ops)
    lines = [
        f"{workload}: seed {seed}, {len(ops)} operations ({sum(op['traced'] for op in ops)} traced), "
        f"{attempted - failed}/{attempted} correct, failed_share {failed / attempted:.4f}",
        f"  wall_s per operation: median {w2:.4f} s, quartiles {w1:.4f} .. {w3:.4f} s "
        f"over {len(walls)} untraced operations",
    ]

    values = {}
    if not trace:
        values["wall_s"] = w2
        values["cpu_s"] = cpu
        values["peak_rss_mb"] = statistics.median(op["rss"] for op in plain)
        if setup:
            values["setup_s"] = statistics.median(setup)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        traced_ops = [op for op in ops if op["traced"] and op["doc"]]
        per_op = [op["doc"]["metrics"] for op in traced_ops]
        for name in per_op[0] if per_op else []:
            values[name] = statistics.median(m[name] for m in per_op)
        values["sweep.idle_share"] = 1.0 - cpu / (w2 * workers)
        # Micro probes and replays run after the traced workload; they
        # are measurement, not tracing overhead.
        traced_walls = [op["wall"] - op["doc"]["extra_s"] for op in traced_ops]
        untraced = [op["wall"] for op in ops if not op["traced"]]
        values["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(untraced)
            if untraced and traced_walls else 0.0
        )
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace_{workload}_seed{seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": workload, "seed": seed,
                       "operations": [op["doc"].get("spans") for op in traced_ops]}, f, indent=1)
        lines.append(f"  spans of {len(traced_ops)} traced operations written to {path}")

    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            # Reported as 0 so the result stays valid JSON; the run is
            # marked incorrect.
            lines.append(f"  missing metric {name}")
            failed, value = failed + 1, 0.0
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name} = {value:.6g} {unit}")
    return attempted, failed, metrics, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    with open(SPEC) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names} or all")
    with open(REFERENCE) as f:
        refs = json.load(f)
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    attempted = failed = 0
    metrics = {}
    for workload in names if args.workload == "all" else [args.workload]:
        a, f, m, lines = run_workload(exe, spec, refs, workload, args.seed, args.seconds,
                                      bool(args.trace))
        attempted, failed = attempted + a, failed + f
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        print("\n".join(lines), flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
