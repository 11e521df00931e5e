"""The benchmark's workloads: generated configs, operations and output checks.

Each workload is one closed-loop caller: a single process that issues one
operation at a time, through the same calls `focusrl train`, `focusrl
eval` and `focusrl baseline` make.  Every operation returns the failures
of its output checks; an operation with any failure counts as failed.
"""

from __future__ import annotations

import csv
import copy
import dataclasses
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from focusrl import agent, baselines, cli, net
from focusrl.env import AutofocusEnv
from focusrl.imaging import FocalStack


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    # Overrides of the preset's train section that set the fixed horizon;
    # None makes this an evaluation workload.  One target period spans the
    # whole learner phase, so the target-cache hit ratio and the share of
    # target evaluation in a learner step match a preset run's (mix.py).
    train: dict | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tiny-train",
            preset="tiny",
            train={"learn_start": 32, "total_timesteps": 160, "eval_interval": 80,
                   "target_sync": 160},
        ),
        Workload(
            name="exp1-train",
            preset="exp1",
            train={"learn_start": 32, "total_timesteps": 112, "eval_interval": 112,
                   "target_sync": 112},
        ),
        Workload(name="exp2-eval", preset="exp2"),
    )
}


def generate_config(workload: Workload, seed: int) -> dict:
    """The preset with the workload seed and the benchmark's fixed horizon."""
    _, doc = cli.load_config(workload.preset)
    doc = copy.deepcopy(doc)
    doc["seed"] = seed
    if workload.train is not None:
        doc.setdefault("train", {}).update(workload.train)
    return doc


@dataclasses.dataclass
class Setup:
    stack: FocalStack
    env: AutofocusEnv
    arch: net.NetArch
    hyper: agent.Hyperparams
    params: dict | None  # the checkpoint an evaluation workload runs


def setup(workload: Workload, config_path: Path, work_dir: Path) -> tuple[Setup, list[str]]:
    """Config load, stack render and blur, env build; plus the checkpoint on eval."""
    config, _ = cli.load_config(str(config_path))
    stack = config.stack.build()
    env = AutofocusEnv(config.env_config(stack))
    arch = config.net_arch()
    hyper = config.hyperparams()
    failures: list[str] = []
    params = None
    if workload.train is None:
        # The checkpoint derives from the workload seed and round-trips
        # through the checkpoint format, as `focusrl eval` reads it.
        made = net.init_params(arch, np.random.default_rng(config.seed))
        path = work_dir / "ckpt_eval"
        net.save_checkpoint(path, made, arch, 0)
        params, _, _ = net.load_checkpoint(path, expect_arch=arch)
        failures += _compare_params(made, params, "eval checkpoint")
        path.unlink()
    return Setup(stack, env, arch, hyper, params), failures


def _compare_params(want: dict, got: dict, what: str) -> list[str]:
    if set(want) != set(got):
        return [f"{what}: array names differ"]
    return [
        f"{what}: {name} differs from the returned parameters"
        for name in want
        if want[name].dtype != got[name].dtype or want[name].tobytes() != got[name].tobytes()
    ]


def check_report(report: agent.EvalReport, episodes: int, what: str) -> list[str]:
    failures = []
    if report.episodes != episodes:
        failures.append(f"{what}: {report.episodes} episodes, expected {episodes}")
    if sum(report.histogram) != report.episodes:
        failures.append(f"{what}: histogram sums to {sum(report.histogram)}, "
                        f"not {report.episodes}")
    if not 0.0 <= report.accuracy <= 1.0:
        failures.append(f"{what}: accuracy {report.accuracy} outside [0, 1]")
    return failures


def _steps(report: agent.EvalReport) -> int:
    return round(report.avg_steps * report.episodes)


def train_op(s: Setup, seed: int, index: int, out: Path) -> tuple[dict, list[str]]:
    """One `agent.train` call over the fixed horizon from a fresh start.

    The forced evaluations inside the call are timed on their own: their cost
    depends on the policy (1 to 20 steps per start), so the rate counts the
    call's wall time without them.
    """
    evals: list[tuple[float, int]] = []
    evaluate = agent.evaluate

    def timed_evaluate(*args, **kwargs):
        start = time.perf_counter()
        report = evaluate(*args, **kwargs)
        evals.append((time.perf_counter() - start, _steps(report)))
        return report

    hyper = s.hyper
    agent.evaluate = timed_evaluate
    try:
        start = time.perf_counter()
        params, history = agent.train(
            s.env, hyper, s.arch, np.random.default_rng([seed, index]), out, eval_threads=1
        )
        wall = time.perf_counter() - start
    finally:
        agent.evaluate = evaluate
    eval_wall = sum(t for t, _ in evals)

    failures = []
    points = [t for t in range(1, hyper.total_timesteps + 1)
              if t % hyper.eval_interval == 0 or t == hyper.total_timesteps]
    losses = [row["loss"] for row in history]
    if [row["timestep"] for row in history] != points:
        failures.append(f"train: eval points {[r['timestep'] for r in history]} != {points}")
    if losses[-1] is None or not all(loss is None or math.isfinite(loss) for loss in losses):
        failures.append(f"train: losses not finite: {losses}")
    log_path = out / "train_log.csv"
    with open(log_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != list(agent.LOG_HEADER) or [int(r[0]) for r in rows[1:]] != points:
        failures.append(f"train: train_log.csv has rows {[r[0] for r in rows[1:]]}, "
                        f"expected one per eval point {points}")
    last = hyper.total_timesteps
    loaded, _, step = net.load_checkpoint(out / f"ckpt_{last}", expect_arch=s.arch)
    if step != last:
        failures.append(f"train: final checkpoint step {step} != {last}")
    failures += _compare_params(params, loaded, "train: final checkpoint")
    final = None
    for t in points:
        report = agent.EvalReport.from_dict(
            json.loads((out / f"eval_{t}.json").read_text(encoding="utf-8"))
        )
        failures += check_report(report, s.env.n_positions, f"train: eval_{t}.json")
        final = report
    result = {
        "steps": hyper.total_timesteps,
        "wall_s": wall,
        "eval_s": eval_wall,
        "eval_steps": sum(n for _, n in evals),
        "rate": hyper.total_timesteps / (wall - eval_wall),
        "train_log_sha256": hashlib.sha256(log_path.read_bytes()).hexdigest(),
        "final_eval": final.to_dict() if final else None,
    }
    return result, failures


def eval_op(s: Setup) -> tuple[dict, list[str]]:
    """Greedy evaluation of the checkpoint from every start index."""
    start = time.perf_counter()
    report = agent.evaluate(s.params, s.arch, s.env)
    wall = time.perf_counter() - start
    failures = check_report(report, s.env.n_positions, "eval")
    steps = _steps(report)
    return {"steps": steps, "wall_s": wall, "rate": steps / wall,
            "final_eval": report.to_dict()}, failures


def oracle_op(s: Setup) -> tuple[dict, list[str]]:
    """The three oracles, as `focusrl baseline` runs them, on the workload stack."""
    start = time.perf_counter()
    mdp = baselines.mdp_from_stack(s.stack, s.env.cfg)
    q = baselines.value_iteration(mdp, s.hyper.gamma)
    vi = baselines.greedy_policy_report(q, mdp, s.env)
    hc = baselines.hill_climb(s.env)
    scan = baselines.exhaustive_scan(s.stack)
    wall = time.perf_counter() - start
    n = s.env.n_positions
    failures = check_report(vi, n, "value iteration") + check_report(hc, n, "hill climb")
    if vi.accuracy != 1.0:
        failures.append(f"value iteration: greedy accuracy {vi.accuracy} != 1.0")
    if scan.argmax_index != s.stack.sharpest_index:
        failures.append(f"scan: argmax {scan.argmax_index} != sharpest "
                        f"{s.stack.sharpest_index}")
    return {"wall_s": wall, "value_iteration": vi.to_dict(), "hill_climb": hc.to_dict(),
            "scan_argmax": scan.argmax_index}, failures
