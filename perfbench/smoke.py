"""Smoke test of the benchmark: every workload at a minimal size, both modes.

    python3 perfbench/smoke.py

For each workload it runs one untraced and one traced run with three
learner steps and a single set-up, and checks that every output check
passes and that every metric of BENCHMARK.json prints on one line as its
name, its value and its unit.  It also checks that the benchmark refuses
to run, without printing a result, in a directory holding only
BENCHMARK.json and perfbench/.  Exits nonzero if any check fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run  # pins BLAS before numpy loads

MINIMAL_TRAIN = {
    "tiny-train": {"learn_start": 32, "total_timesteps": 34, "eval_interval": 17,
                   "target_sync": 34},
    "exp1-train": {"learn_start": 32, "total_timesteps": 34, "eval_interval": 34,
                   "target_sync": 34},
}


def check_run(name: str, trace: int, overrides: dict, expected: dict[str, str]) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace)], overrides)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"output checks: {result['failed']} of {result['attempted']} failed")
    got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics {sorted(got.items())} != {sorted(expected.items())}")
    prefix = "layer " if trace else "metric "
    printed = [line for line in lines if line.startswith(prefix)]
    for metric, unit in expected.items():
        # "<name> <value> <unit>", all three on one line.
        pattern = re.compile(rf"(?:^|\s){re.escape(metric)} \S+ {re.escape(unit)}(?:\s|$)")
        if not any(pattern.search(line) for line in printed):
            problems.append(f"{metric} not printed with its value and unit on one line")
    return problems


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and perfbench/: the benchmark must refuse to run."""
    bare = run.ROOT / ".perfbench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tiny-train", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"ran in a bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    run.import_program()
    import workloads

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    run.MIN_SETUPS, run.SETUP_SECONDS = 1, 0.0
    run.MIN_ORACLE_OPS = 1
    overrides = {
        name: dataclasses.replace(w, train=MINIMAL_TRAIN[name]) if w.train else w
        for name, w in workloads.WORKLOADS.items()
    }
    failed = False
    for name in overrides:
        for trace in (0, 1):
            problems = check_run(name, trace, overrides, expected[trace])
            failed |= bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {name} trace={trace}", flush=True)
            for problem in problems:
                print(f"     {problem}")
    problems = check_bare_directory()
    failed |= bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} bare directory refused", *problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
