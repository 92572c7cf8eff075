#!/usr/bin/env python3
"""Runs one benchmark workload of the lacr planner.

    python3 perfbench/run.py --workload <table1_lac|scale_wd|serve_mix> \
        --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the `lacr` binary and the harness
(`perfbench/`, a cargo package of its own) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the harness in a
fresh process for the one workload. The last line of standard output is
the JSON result. `--self-test` runs every workload on tiny inputs and
checks the output against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1_lac", "scale_wd", "serve_mix")


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds `lacr` and the harness; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        fail(f"{ROOT} holds no lacr source tree (Cargo.toml, crates/)")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for extra in (["--bin", "lacr"],
                  ["--manifest-path", os.path.join("perfbench", "Cargo.toml")]):
        done = subprocess.run(cargo + extra, cwd=ROOT, env=env,
                              stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cargo + extra)}")
    return (os.path.join(target, "release", "lacr"),
            os.path.join(target, "release", "lacr-perfbench"))


def harness_cmd(bins, workload, seed, seconds, trace, extra=()):
    lacr, harness = bins
    return [harness, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--lacr", lacr, *extra]


def self_test(bins):
    """Tiny run of every workload: every declared metric is printed with
    its unit, the checks pass, and a corrupted expected value fails."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = harness_cmd(bins, workload, 0, 1, trace, ["--tiny"])
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=170)
            name = f"{workload} trace {trace}"
            if done.returncode != 0:
                problems.append(f"{name}: exit {done.returncode}: "
                                f"{done.stderr.strip()}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if (not result["correct"] or result["failed"] != 0
                    or result["attempted"] < 1):
                problems.append(f"{name}: checks failed:\n{done.stdout}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if want != got:
                problems.append(f"{name}: metrics {got} != declared {want}")
            bad = [n for n, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float))]
            if bad or (trace == 0 and any(
                    m["value"] <= 0 for m in result["metrics"].values())):
                problems.append(f"{name}: missing or zero values in "
                                f"{result['metrics']}")
        cmd = harness_cmd(bins, workload, 0, 1, 0,
                          ["--tiny", "--corrupt-expected"])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if result["correct"] or result["failed"] == 0:
            problems.append(f"{workload}: a corrupted expected value "
                            f"went unnoticed:\n{done.stdout}")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        p.error("--workload is required")
    bins = build()
    if a.self_test:
        sys.exit(self_test(bins))
    cmd = harness_cmd(bins, a.workload, a.seed, a.seconds, a.trace)
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
