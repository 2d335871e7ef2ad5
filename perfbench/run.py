#!/usr/bin/env python3
"""The repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the miniarc library and the perfbench binary from the checkout's
sources (CMake, Release, into $CARGO_TARGET_DIR/perfbench or
.bench_build/perfbench), then runs the binary:

  --trace 0  four extra set-up-only processes plus one measured run; prints
             every end-to-end metric of BENCHMARK.json, with setup_s the
             median of the five set-ups.
  --trace 1  an untraced and a traced run of S/2 seconds each; prints every
             per-layer metric, tracing_overhead_pct being the traced run's
             pass_s over the untraced one's. The traced run's spans are
             written next to the build as Chrome trace JSON.

The last line of standard output is the JSON result the benchmark contract
asks for. Any build, run or output-check failure exits non-zero.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
SETUP_SAMPLES = 5
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def clean_env():
    """The caller's environment without any MINIARC_* variable."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MINIARC_")}


def build():
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                timeout=BUILD_TIMEOUT_S, env=clean_env())
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return out / "perfbench"


def run_binary(binary, args):
    """Run the binary; return (human lines, parsed JSON result)."""
    result = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                            text=True, timeout=RUN_TIMEOUT_S, env=clean_env())
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        fail(f"perfbench exited with {result.returncode}: {' '.join(args)}")
    try:
        document = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perfbench printed no result line")
    return lines[:-1], document


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def select(measured, declared):
    """Exactly the declared metrics, each with its declared unit."""
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in measured:
            fail(f"metric {name} was not measured")
        if measured[name]["unit"] != entry["unit"]:
            fail(f"metric {name} measured in {measured[name]['unit']}, "
                 f"declared in {entry['unit']}")
        metrics[name] = {"value": measured[name]["value"],
                         "unit": entry["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    options = parser.parse_args()

    binary = build()
    if options.self_test:
        result = subprocess.run([str(binary), "--self-test"],
                                timeout=RUN_TIMEOUT_S, env=clean_env())
        return result.returncode
    if not options.workload:
        parser.error("--workload is required")

    end_to_end, per_layer = declared_metrics()
    base = ["--workload", options.workload, "--seed", str(options.seed)]
    documents = []
    if options.trace == 0:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            _, document = run_binary(binary, base + ["--seconds", "0",
                                                     "--trace", "0",
                                                     "--setup-only"])
            documents.append(document)
            setups.append(document["metrics"]["setup_s"]["value"])
        lines, document = run_binary(binary, base + [
            "--seconds", str(options.seconds), "--trace", "0"])
        documents.append(document)
        measured = dict(document["metrics"])
        setups.append(measured["setup_s"]["value"])
        measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics = select(measured, end_to_end)
    else:
        half = str(options.seconds / 2)
        _, untraced = run_binary(binary, base + ["--seconds", half,
                                                 "--trace", "0"])
        spans = (build_dir() /
                 f"spans-{options.workload}-seed{options.seed}.json")
        lines, traced = run_binary(binary, base + [
            "--seconds", half, "--trace", "1", "--spans-out", str(spans)])
        documents = [untraced, traced]
        measured = dict(traced["metrics"])
        base_pass = untraced["metrics"]["pass_s"]["value"]
        traced_pass = measured["pass_s"]["value"]
        measured["tracing_overhead_pct"] = {
            "value": (traced_pass / base_pass - 1.0) * 100.0 if base_pass > 0
            else 0.0,
            "unit": "%"}
        metrics = select(measured, per_layer)

    attempted = sum(d["attempted"] for d in documents)
    failed = sum(d["failed"] for d in documents)
    for line in lines:
        print(line)
    correct = failed == 0 and all(d["correct"] for d in documents)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
