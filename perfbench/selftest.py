#!/usr/bin/env python3
"""Self-test of the benchmark: a smoke size of every workload.

    python3 perfbench/selftest.py

Run it from the root of the repository. For each workload it makes two
untraced smoke runs and one traced smoke run through run.py, and checks
that each run

- prints a last line with exactly the keys correct, attempted, failed and
  metrics, and passes its own result checks;
- reports every metric BENCHMARK.json names, with its unit;

and across the runs that

- gpusim.evictions is above 0 on oversub_cold only;
- store.hit_ratio is 1 on store_warm and 0 on store_cold;
- sim_gflops is bit-identical between the two untraced runs.

Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = "1"


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def smoke(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} trace={trace} printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {lines[-1]}\n{proc.stderr[-2000:]}")
    return result["metrics"]


def check_metrics(workload, metrics, expected):
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        fail(f"{workload}: metrics {sorted(got.items())} but BENCHMARK.json names "
             f"{sorted(want.items())}")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{workload}: {name} is not a number: {m['value']!r}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        first = smoke(name, 0)
        second = smoke(name, 0)
        traced = smoke(name, 1)
        check_metrics(name, first, bench["end_to_end"])
        check_metrics(name, traced, bench["per_layer"])
        a, b = first["sim_gflops"]["value"], second["sim_gflops"]["value"]
        if a != b:
            fail(f"{name}: sim_gflops {a!r} then {b!r} on the same seed")
        for m in bench["end_to_end"]:
            if first[m["name"]]["value"] <= 0:
                fail(f"{name}: {m['name']} is {first[m['name']]['value']}")
        evictions = traced["gpusim.evictions"]["value"]
        if (evictions > 0) != (name == "oversub_cold"):
            fail(f"{name}: gpusim.evictions {evictions}")
        hit_ratio = traced["store.hit_ratio"]["value"]
        want = {"store_warm": 1, "store_cold": 0}.get(name)
        if want is not None and hit_ratio != want:
            fail(f"{name}: store.hit_ratio {hit_ratio}, expected {want}")
        print(f"selftest: {name} ok (sim_gflops {a}, evictions {evictions}, "
              f"hit ratio {hit_ratio})")
    print("selftest: ok")


if __name__ == "__main__":
    main()
