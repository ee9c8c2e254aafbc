#!/usr/bin/env python3
"""Self-test of the simulator benchmark (short mode).

    python3 simbench/test_bench.py [--seconds S] [--workload NAME ...]

Runs every workload briefly through run.py and checks that:
  - each run exits 0 with a well-formed result line and correct outputs;
  - every metric listed in BENCHMARK.json (end-to-end untraced, per-layer
    traced) is emitted with its unit;
  - every count-type metric (layers.json kind "count": alloc_words_per_step,
    sim_us_per_step and the per-layer counts) and the fail
    ratio are identical across two runs with the same seed;
  - no step fails on a held-out seed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
HELD_OUT_SEED = 90210


def load(path):
    with open(path) as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    assert out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: outputs incorrect\n{out.stderr}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def check_units(result, expected, what):
    got = result["metrics"]
    assert set(got) == {m["name"] for m in expected}, f"{what}: metric names differ"
    for m in expected:
        assert got[m["name"]]["unit"] == m["unit"], f"{what}: {m['name']} unit"
        assert isinstance(got[m["name"]]["value"], (int, float)), f"{what}: {m['name']} value"


def fail_ratio(result):
    return result["failed"] / result["attempted"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load(os.path.join(HERE, "layers.json"))
    counts = [n for n, d in layers["per_layer"].items() if d["kind"] == "count"]
    exact = [n for n, d in layers["end_to_end"].items() if d["kind"] == "count"]
    assert {m["name"] for m in bench["per_layer"]} == set(layers["per_layer"]), \
        "BENCHMARK.json and layers.json list different per-layer metrics"
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for w in workloads:
        a = run(w, SEED, args.seconds, 0)
        b = run(w, SEED, args.seconds, 0)
        check_units(a, bench["end_to_end"], f"{w} untraced")
        for name in exact:
            assert a["metrics"][name]["value"] == b["metrics"][name]["value"], f"{w}: {name} differs"
        assert fail_ratio(a) == fail_ratio(b) == 0, f"{w}: failed steps"
        held = run(w, HELD_OUT_SEED, args.seconds, 0)
        assert held["failed"] == 0, f"{w}: failed steps on the held-out seed"
        ta = run(w, SEED, args.seconds, 1)
        tb = run(w, SEED, args.seconds, 1)
        check_units(ta, bench["per_layer"], f"{w} traced")
        for name in counts:
            assert ta["metrics"][name]["value"] == tb["metrics"][name]["value"], \
                f"{w}: count metric {name} differs: {ta['metrics'][name]} vs {tb['metrics'][name]}"
        assert fail_ratio(ta) == fail_ratio(tb) == 0, f"{w}: failed traced steps"
        print(f"ok {w}")
    print("all benchmark self-tests passed")


if __name__ == "__main__":
    main()
