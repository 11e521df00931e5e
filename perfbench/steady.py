"""Steadiness check: run workloads over several seeds and report metric spreads.

    python3 perfbench/steady.py --seeds 1-10 --seconds 30 [--workload NAME ...]

Runs `perfbench/run.py --trace 0` once per seed, one run at a time, and
prints for every end-to-end metric its median, quartiles and spread: the
distance between the first and third quartile (as
`statistics.quantiles(values, n=4)` gives them) as a share of the median.
The bounds in BENCHMARK.json are set from these spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: run not correct", file=sys.stderr)
                return 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {e['value']:.5g}" for m, e in result["metrics"].items()), flush=True)
        report[name] = {metric: spread(v) for metric, v in values.items()}
        for metric, s in report[name].items():
            bound = bounds.get(metric)
            print(f"{name:11s} {metric:16s} median {s['median']:<10.5g} "
                  f"q1 {s['q1']:<10.5g} q3 {s['q3']:<10.5g} spread {s['spread']:.4f}"
                  + (f"  bound {bound} ({s['spread'] / bound:.2f} of it)" if bound else ""))
    out = ROOT / ".perfbench_runs" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
