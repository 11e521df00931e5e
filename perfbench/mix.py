"""Learner-step make-up of a preset run, against the benchmark's horizon.

    python3 perfbench/mix.py --workload tiny-train --until 4000 [--seed 1]

Runs `agent.train` twice under the span tracer, one process, BLAS on one
thread: once over the workload's benchmark horizon, and once with the
preset's own train section (replay capacity, `learn_start`, `target_sync`,
`eval_interval` and `total_timesteps`, so the epsilon schedule too),
stopped at the first evaluation point at or past `--until`.  For each it
prints the target-cache hit ratio of every target period that did learner
steps, the hit ratio over all of them, the share of `train_step` time
spent in `max_target_values`, the batch-k target forwards per learner step
and the learner step's median.  The benchmark's `target_sync` is chosen so
that its figures match the preset's.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

import run  # pins BLAS before numpy loads
import spans

import numpy as np


class Stop(Exception):
    """Raised from the progress callback to end a preset run early."""


def learner_mix(recorder: spans.Recorder, periods: list[tuple[int, int]]) -> dict:
    """Hit ratios and the share of target evaluation in the learner step."""
    rows = recorder.spans
    steps = [i for i, s in enumerate(rows) if s["name"] == "agent.train_step"]
    step_ids = set(steps)
    targets = [i for i, s in enumerate(rows)
               if s["name"] == "agent.max_target_values" and s["parent"] in step_ids]
    target_ids = set(targets)
    forwards = sum(1 for s in rows if s["name"] == "net.forward_infer"
                   and s["parent"] in target_ids)

    def total(idx: list[int]) -> float:
        return sum(rows[i]["end"] - rows[i]["start"] for i in idx)

    per_period = []
    prev_hits = prev_lookups = 0
    for hits, lookups in periods:
        if lookups > prev_lookups:
            n = lookups - prev_lookups
            per_period.append({"hit_ratio": round((hits - prev_hits) / n, 4), "lookups": n})
        prev_hits, prev_lookups = hits, lookups
    lookups = recorder.cache_lookups
    return {
        "learner_steps": len(steps),
        "hit_ratio": recorder.cache_hits / lookups if lookups else 0.0,
        "lookups": lookups,
        "hit_ratio_per_period": per_period,
        "max_target_values_share": total(targets) / total(steps) if steps else 0.0,
        "target_forwards_per_step": forwards / len(steps) if steps else 0.0,
        "train_step_ms_p50": 1e3 * statistics.median(
            rows[i]["end"] - rows[i]["start"] for i in steps) if steps else 0.0,
    }


def measure(s, seed: int, until: int | None, out: Path) -> dict:
    """One `agent.train` from a fresh start, traced; stopped early at `until`."""
    from focusrl import agent

    recorder = spans.Recorder()
    periods: list[tuple[int, int]] = []
    cache_cls = agent.TargetValueCache
    clear = vars(cache_cls)["clear"]

    def counted_clear(cache):
        periods.append((recorder.cache_hits, recorder.cache_lookups))
        clear(cache)

    def progress(timestep: int, accuracy: float) -> None:
        if until is not None and timestep >= until:
            raise Stop

    restore = spans.install(recorder)
    cache_cls.clear = counted_clear
    try:
        agent.train(s.env, s.hyper, s.arch, np.random.default_rng([seed, 0]), out,
                    eval_threads=1, progress=progress)
    except Stop:
        pass
    finally:
        cache_cls.clear = clear
        restore()
        shutil.rmtree(out, ignore_errors=True)
    periods.append((recorder.cache_hits, recorder.cache_lookups))
    return learner_mix(recorder, periods)


def main() -> int:
    run.import_program()
    import workloads
    from focusrl import cli

    trains = [name for name, w in workloads.WORKLOADS.items() if w.train is not None]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=trains)
    parser.add_argument("--until", type=int, required=True,
                        help="stop the preset run at the first eval point at or past this")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    w = workloads.WORKLOADS[args.workload]

    work = run.ROOT / ".perfbench_runs" / f"mix-{w.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench_doc = workloads.generate_config(w, args.seed)
    _, preset_doc = cli.load_config(w.preset)
    preset_doc = {**preset_doc, "seed": args.seed}
    report = {}
    for label, doc, until in (("benchmark", bench_doc, None),
                              ("preset", preset_doc, args.until)):
        path = work / f"{label}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        s, failures = workloads.setup(w, path, work)
        if failures:
            print(f"set-up failed: {failures}", file=sys.stderr)
            return 1
        report[label] = {"train": cli.load_config(str(path))[0].train,
                         **measure(s, args.seed, until, work / "out")}
        print(f"{w.name} {label}: {json.dumps(report[label], sort_keys=True, default=str)}",
              flush=True)
    (work / "mix.json").write_text(json.dumps(report, indent=2, sort_keys=True, default=str)
                                   + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
