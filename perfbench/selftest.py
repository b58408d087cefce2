"""Self-test of the benchmark: tiny runs of every workload.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* every workload runs at a tiny size, with and without tracing, exits
  with code 0, and prints every metric ``BENCHMARK.json`` names, with
  its unit, on a last line holding exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``;
* wrong answers planted in the server's output are caught: the run
  reports ``"correct": false`` and exits with code 1;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  own files, the benchmark exits with another code than 0 and prints
  no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SIZE_SCALE = "0.2"
SECONDS = "2"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(args, cwd=ROOT):
    return subprocess.run(
        load_spec()["command"] + args, cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_of(run) -> dict:
    lines = run.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no output; stderr:\n{run.stderr[-3000:]}")
    return json.loads(lines[-1])


def result_problems(run, units: dict) -> list:
    """What is wrong with one run that should have passed."""
    if run.returncode != 0:
        return [f"exit {run.returncode}\n{run.stderr[-3000:]}"]
    result = result_of(run)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if printed != units:
        problems.append(f"metrics {printed} != {units}")
    problems.extend(
        f"{name} = {metric['value']!r}"
        for name, metric in result["metrics"].items()
        if not isinstance(metric["value"], (int, float))
    )
    return problems


def main() -> int:
    spec = load_spec()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            run = bench([
                "--workload", workload, "--seed", "1", "--seconds", SECONDS,
                "--trace", str(trace), "--size-scale", SIZE_SCALE,
            ])
            label = f"{workload} --trace {trace}"
            problems = result_problems(run, expected[trace])
            failures.extend(f"{label}: {problem}" for problem in problems)
            if not problems:
                print(f"ok   {label}", flush=True)

    planted = bench([
        "--workload", "hot-cached", "--seed", "1", "--seconds", SECONDS,
        "--trace", "0", "--size-scale", SIZE_SCALE, "--plant-wrong",
    ])
    if planted.returncode != 1 or result_of(planted)["correct"] is not False:
        failures.append(f"planted wrong answers not caught: exit {planted.returncode}")
    else:
        print("ok   planted wrong answers caught", flush=True)

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path), os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        run = bench(["--workload", "hot-cached", "--seed", "1", "--seconds", SECONDS,
                     "--trace", "0"], cwd=bare)
        if run.returncode == 0 or run.stdout.strip():
            failures.append(f"without the program: exit {run.returncode}, "
                            f"stdout {run.stdout[-500:]!r}")
        else:
            print("ok   fails without the program", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
