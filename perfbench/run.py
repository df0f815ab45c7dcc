#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

One workload, one pass (run from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds `perfbench/` in release mode (into `$CARGO_TARGET_DIR`, default
`.bench_build`), runs the workload in a process of its own and prints its
result: the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` gives the
end-to-end metrics of `BENCHMARK.json`, `--trace 1` the per-layer ones.

Every workload, both passes, checked against `BENCHMARK.json`:

    python3 perfbench/run.py --self-test [--seconds <s>] [--seed <n>]

prints every metric by name and unit and exits non-zero unless every
metric `BENCHMARK.json` names is emitted with its unit, every name is
well formed, every end-to-end value is nonzero, nothing failed, and
`perfbench/layer_map.json` maps every per-layer metric.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each run must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def build():
    """Builds the benchmark binary and returns its path."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's own output goes to stderr: stdout carries only the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {done.returncode}")
    return os.path.join(ROOT, target, "release", "cfc-perfbench")


def run(binary, workload, seed, seconds, trace):
    """Runs one pass of one workload and returns its parsed result."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed % 2**64),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} exited with code {done.returncode}")
    return json.loads(lines[-1])


def problems_with(result, expected, end_to_end):
    """Lists every way `result` breaks the benchmark's contract."""
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
        return found
    if not result["correct"] or result["failed"] != 0:
        found.append(f"{result['failed']} of {result['attempted']} attempts failed")
    if result["attempted"] < 1:
        found.append("nothing attempted")
    metrics = result["metrics"]
    for name in sorted(set(metrics) - set(expected)):
        found.append(f"unexpected metric {name}")
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            found.append(f"missing metric {name}")
            continue
        if not NAME.match(name):
            found.append(f"malformed metric name {name}")
        if got.get("unit") != unit:
            found.append(f"{name}: unit {got.get('unit')!r}, expected {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{name}: value {value!r} is not a finite number")
        elif end_to_end and value == 0:
            found.append(f"{name}: end-to-end value is 0")
    return found


def self_test(seconds, seed):
    """Runs every workload in both passes and checks the contract."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as f:
        layer_map = json.load(f)["metrics"]
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for name in list(end_to_end) + list(per_layer) + workloads:
        if not NAME.match(name):
            problems.append(f"malformed name {name}")
    for name in per_layer:
        entry = layer_map.get(name)
        if entry is None:
            problems.append(f"layer_map.json does not map {name}")
            continue
        for target in entry["moves"]:
            if target not in end_to_end:
                problems.append(f"{name} moves unknown metric {target}")
        for workload in entry["on"]:
            if workload not in workloads:
                problems.append(f"{name} names unknown workload {workload}")

    binary = build()
    for workload in workloads:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            result = run(binary, workload, seed, seconds, trace)
            print(f"== {workload} --trace {trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
            for name, metric in result.get("metrics", {}).items():
                print(f"   {name:44} {metric['value']:>18.6g} {metric['unit']}")
            problems += [f"{workload} --trace {trace}: {p}"
                         for p in problems_with(result, expected, trace == 0)]
    for p in problems:
        print(f"SELF-TEST FAILURE: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test(args.seconds or 1, args.seed)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")
    result = run(build(), args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
