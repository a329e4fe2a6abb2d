#!/usr/bin/env python3
"""Build the D2 benchmark from source and run one workload.

    python3 perfbench/run.py --workload lan_mem --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  It builds perfbench/d2bench.exe and
bin/d2d.exe with dune, runs the harness, echoes its report, and prints
the JSON result as the last line of standard output.  Every scratch
file goes under .perfbench_run/ in the checkout.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HARNESS = "_build/default/perfbench/d2bench.exe"
D2D = "_build/default/bin/d2d.exe"
RUN_DIR = ".perfbench_run"
WORKLOADS = ("lan_mem", "lan_disk_q2", "wan_64")
HARNESS_TIMEOUT_S = 165


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "bin/d2d.ml", "lib", "perfbench/dune"):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a D2 checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    proc = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/d2bench.exe", "./bin/d2d.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def run_harness(args):
    """Run the harness in its own process group; return (code, lines)."""
    cmd = [HARNESS, "--d2d", D2D, "--run-dir", RUN_DIR] + args
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
        print("run.py: harness timed out", file=sys.stderr)
    finally:
        # The harness stops its daemons itself; this catches whatever a
        # crash or the timeout left behind in its process group.
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                proc.wait(timeout=5)
                break
            except subprocess.TimeoutExpired:
                pass
        proc.wait()
    return proc.returncode, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def run_one(workload, seed, seconds, trace, scale="full"):
    code, lines = run_harness(
        [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
        ]
    )
    res = parse_result(lines)
    return code, lines, res


def declared_metrics():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    )


def selftest():
    """Tiny-scale check: every metric present, with its unit, finite;
    correct runs with no failed op; wan_64 repeats exactly at one seed
    and changes at another."""
    e2e, layers = declared_metrics()
    problems = []
    for w in WORKLOADS:
        for trace, want in ((0, e2e), (1, layers)):
            code, lines, res = run_one(w, 5, 1, trace, scale="tiny")
            tag = f"{w} --trace {trace}"
            if code != 0 or res is None:
                problems.append(f"{tag}: exit {code}, no result")
                continue
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} failed={res['failed']}")
            got = res["metrics"]
            if set(got) != set(want):
                problems.append(f"{tag}: metric names {sorted(set(got) ^ set(want))}")
            for name, m in got.items():
                if m.get("unit") != want.get(name) or not math.isfinite(m["value"]):
                    problems.append(f"{tag}: {name} = {m}")
            print(f"selftest: {tag}: {len(got)} metrics", flush=True)
    runs = [run_one("wan_64", s, 1, 0, scale="tiny")[2] for s in (5, 5, 6)]
    if None in runs:
        problems.append("wan_64 determinism runs failed")
    else:
        def virtual(res):
            m = dict(res["metrics"])
            m.pop("setup_s")
            return res["attempted"], m
        if virtual(runs[0]) != virtual(runs[1]):
            problems.append("wan_64: two runs at one seed differ")
        if virtual(runs[0]) == virtual(runs[2]):
            problems.append("wan_64: another seed gives identical figures")
        print("selftest: wan_64 determinism checked", flush=True)
    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: OK" if not problems else "selftest: FAILED")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    build()
    if a.selftest:
        sys.exit(selftest())
    if a.workload is None:
        fail("--workload is required")
    code, lines, res = run_one(a.workload, a.seed, a.seconds, a.trace)
    body = lines[:-1] if res is not None else lines
    for line in body:
        print(line)
    if code != 0 or res is None:
        fail(f"harness exited {code} without a result")
    print(json.dumps(res))


if __name__ == "__main__":
    main()
