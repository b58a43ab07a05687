#!/usr/bin/env python3
"""End-to-end DPI-service benchmark: packets in to middlebox verdicts out.

Run from the repository root:

    python3 perfbench/run.py --workload http_ingest --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The script builds the service libraries and the dpisvc_perfbench binary from
source (CMake, Release) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, then runs one workload. Every line the binary prints is passed
through; the last stdout line is the JSON result. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones (spans
are written to the build directory). Offered rates of the open-loop phase
and the map from each per-layer metric to the end-to-end metric it should
move live in perfbench/config.json.

--self-test builds, checks the binary's percentile code, then runs every
workload at smoke size with both --trace values and checks that each metric
named in BENCHMARK.json is printed with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Long enough for every open-loop window to hold the 1000 samples a p99
# needs at the lowest offered rate.
SELF_TEST_SECONDS = 6


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    bdir = build_dir()
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = min(8, os.cpu_count() or 1)  # bounds the compilers' memory
    steps.append(["cmake", "--build", bdir, "--target", "dpisvc_perfbench",
                  "-j", str(jobs)])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, check=False)
        if result.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(bdir, "dpisvc_perfbench")


def load_json(name):
    with open(os.path.join(HERE, name) if name == "config.json"
              else os.path.join(ROOT, name)) as f:
        return json.load(f)


def bench_cmd(binary, workload, seed, seconds, trace, smoke=False):
    config = load_json("config.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans-dir", build_dir()]
    if trace == 0:
        cmd += ["--offered-pps", str(config["offered_pps"][workload])]
    if smoke:
        cmd.append("--smoke")
    return cmd


def self_test(binary):
    bench = load_json("BENCHMARK.json")
    failures = []
    if subprocess.run([binary, "--self-test"], check=False).returncode != 0:
        failures.append("percentile self-test")
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{wl['name']} --trace {trace}"
            before = len(failures)
            try:
                proc = subprocess.run(
                    bench_cmd(binary, wl["name"], 7, SELF_TEST_SECONDS, trace,
                               smoke=True),
                    capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                    check=False)
            except subprocess.TimeoutExpired:
                failures.append(f"{name}: timed out")
                continue
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{name}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{name}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                failures.append(f"{name}: not correct")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{name}: metrics {got} != {want}")
            printed = [l.split() for l in lines if l.startswith("# metric ")]
            printed = {p[2]: p[4] for p in printed if len(p) >= 6}
            for metric, unit in want.items():
                if printed.get(metric) != unit:
                    failures.append(f"{name}: '{metric}' not printed in {unit}")
            print(f"self-test {name}: "
                  f"{'ok' if len(failures) == before else 'FAILED'}")
    for f in failures:
        print(f"self-test FAILED: {f}")
    print("self-test:", "ok" if not failures else "FAILED")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    try:
        proc = subprocess.run(
            bench_cmd(binary, args.workload, args.seed, args.seconds,
                       args.trace),
            timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
