"""Span recorder for the traced benchmark run.

Tracing happens entirely from outside the program: `install` replaces the
public functions of each focusrl module with wrappers that record one span
per call (name, start, end, parent span, operation id) in memory.  A name
is patched wherever a caller looks it up, not only where it is defined:
`agent` imports `forward_batch`, `backward_batch` and `states_to_batch` by
name, `imaging.stack` imports `tenengrad` by name, and `cli` imports
`render_scene` and `generate_stack` by name.  Methods are patched on their
class, so every instance (and every `env.spawn` clone) is traced.

`layer_metrics` turns the written span file into the per-layer metrics.
Env steps are split by caller: the oracles walk every start through the
same env, so their steps are timed apart from those of acting and
evaluation.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from pathlib import Path
from typing import Callable


def _forward_name(args: tuple, kwargs: dict) -> tuple[str, dict]:
    """Split `forward_batch` spans by mode; `layer_metrics` splits inference."""
    x = args[2] if len(args) > 2 else kwargs["x"]
    mode = args[4] if len(args) > 4 else kwargs["mode"]
    name = "net.forward_train" if mode.value == "train" else "net.forward_infer"
    return name, {"batch": int(x.shape[0])}


def _checkpoint_bytes(args: tuple, kwargs: dict, result) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _stack_frames(args: tuple, kwargs: dict, result) -> dict:
    return {"frames": len(result)}


# (module, attribute or Class.method, span name or namer, result annotator)
TARGETS: list[tuple[str, str, str | Callable, Callable | None]] = [
    ("focusrl.cli", "render_scene", "imaging.render_scene", None),
    ("focusrl.cli", "generate_stack", "imaging.generate_stack", _stack_frames),
    ("focusrl.imaging.stack", "tenengrad", "focus.tenengrad", None),
    ("focusrl.baselines", "focus_curve", "focus.focus_curve", None),
    ("focusrl.env", "AutofocusEnv.__init__", "env.init", None),
    ("focusrl.env", "AutofocusEnv.step", "env.step", None),
    ("focusrl.env", "AutofocusEnv.reset_at", "env.reset", None),
    ("focusrl.agent", "states_to_batch", "net.states_to_batch", None),
    ("focusrl.agent", "forward_batch", _forward_name, None),
    ("focusrl.agent", "backward_batch", "net.backward", None),
    ("focusrl.agent", "copy_params", "net.copy_params", None),
    ("focusrl.agent", "save_checkpoint", "net.save_checkpoint", _checkpoint_bytes),
    ("focusrl.net", "save_checkpoint", "net.save_checkpoint", _checkpoint_bytes),
    ("focusrl.agent", "train", "agent.train", None),
    ("focusrl.agent", "train_step", "agent.train_step", None),
    ("focusrl.agent", "Adam.step", "agent.adam", None),
    ("focusrl.agent", "max_target_values", "agent.max_target_values", None),
    ("focusrl.agent", "ReplayBuffer.sample", "agent.replay_sample", None),
    ("focusrl.agent", "select_action", "agent.select_action", None),
    ("focusrl.agent", "evaluate", "agent.evaluate", None),
    ("focusrl.baselines", "mdp_from_stack", "baselines.mdp_from_stack", None),
    ("focusrl.baselines", "value_iteration", "baselines.value_iteration", None),
    ("focusrl.baselines", "greedy_policy_report", "baselines.greedy_policy_report", None),
    ("focusrl.baselines", "hill_climb", "baselines.hill_climb", None),
    ("focusrl.baselines", "exhaustive_scan", "baselines.exhaustive_scan", None),
]


class Recorder:
    """In-memory spans plus the target-cache lookup counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self.cache_hits = 0
        self.cache_lookups = 0
        self._open: list[int] = []

    def wrap(self, fn: Callable, name: str | Callable, annotate: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            extra: dict = {}
            label = name
            if callable(name):
                label, extra = name(args, kwargs)
            span = {
                "name": label,
                "parent": self._open[-1] if self._open else None,
                "op": self.op,
                **extra,
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if annotate is not None:
                span.update(annotate(args, kwargs, result))
            return result

        return traced

    def count_cache(self, get: Callable) -> Callable:
        def counted(cache, state):
            value = get(cache, state)
            self.cache_lookups += 1
            self.cache_hits += value is not None
            return value

        return counted

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True))
                fh.write("\n")
            fh.write(json.dumps({"cache_hits": self.cache_hits,
                                 "cache_lookups": self.cache_lookups}) + "\n")


def install(recorder: Recorder) -> Callable[[], None]:
    """Patch every target; returns a function that restores the originals."""
    undo: list[tuple[object, str, object]] = []

    def swap(owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        # vars() reads a class's plain function, not a bound or static wrapper.
        original = vars(owner)[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    for module_name, target, name, annotate in TARGETS:
        owner: object = importlib.import_module(module_name)
        attr = target
        if "." in target:
            cls_name, attr = target.split(".")
            owner = getattr(owner, cls_name)
        swap(owner, attr, lambda fn: recorder.wrap(fn, name, annotate))
    cache_cls = importlib.import_module("focusrl.agent").TargetValueCache
    swap(cache_cls, "get", recorder.count_cache)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# -- per-layer metrics from a span file -------------------------------------

# (metric, span name, seconds -> unit factor, unit, self time instead of duration)
TIMINGS: list[tuple[str, str, float, str, bool]] = [
    ("imaging.render_scene_s", "imaging.render_scene", 1.0, "s", False),
    ("imaging.generate_stack_s", "imaging.generate_stack", 1.0, "s", False),
    ("focus.tenengrad_s", "focus.tenengrad", 1.0, "s", False),
    ("focus.focus_curve_s", "focus.focus_curve", 1.0, "s", False),
    ("env.init_s", "env.init", 1.0, "s", False),
    ("env.step_us", "env.step.play", 1e6, "us", False),
    ("env.oracle_step_us", "env.step.oracle", 1e6, "us", False),
    ("net.states_to_batch_ms", "net.states_to_batch", 1e3, "ms", False),
    ("net.forward_train_ms", "net.forward_train", 1e3, "ms", False),
    ("net.backward_ms", "net.backward", 1e3, "ms", False),
    ("net.forward_infer_b1_ms", "net.forward_infer.b1", 1e3, "ms", False),
    ("net.forward_infer_bk_ms", "net.forward_infer.bk", 1e3, "ms", False),
    ("net.copy_params_ms", "net.copy_params", 1e3, "ms", False),
    ("net.save_checkpoint_ms", "net.save_checkpoint", 1e3, "ms", False),
    ("agent.train_step_ms", "agent.train_step", 1e3, "ms", False),
    ("agent.train_step.self_ms", "agent.train_step", 1e3, "ms", True),
    ("agent.adam_ms", "agent.adam", 1e3, "ms", False),
    ("agent.max_target_values_ms", "agent.max_target_values", 1e3, "ms", False),
    ("agent.replay_sample_us", "agent.replay_sample", 1e6, "us", False),
    ("agent.select_action_ms", "agent.select_action", 1e3, "ms", False),
    ("agent.evaluate_s", "agent.evaluate", 1.0, "s", False),
    ("agent.train.self_s", "agent.train", 1.0, "s", True),
    ("baselines.mdp_from_stack_s", "baselines.mdp_from_stack", 1.0, "s", False),
    ("baselines.value_iteration_s", "baselines.value_iteration", 1.0, "s", False),
    ("baselines.greedy_policy_report_s", "baselines.greedy_policy_report", 1.0, "s", False),
    ("baselines.hill_climb_s", "baselines.hill_climb", 1.0, "s", False),
    ("baselines.exhaustive_scan_s", "baselines.exhaustive_scan", 1.0, "s", False),
]

# Per-layer metrics of one value per run: (metric, unit)
SCALARS: list[tuple[str, str]] = [
    ("focus.tenengrad_calls", "count"),
    ("net.checkpoint_bytes", "bytes"),
    ("agent.target_cache.hit_ratio", "ratio"),
    ("net.forward_train_gmac_per_s", "GMAC/s"),
    ("trace.overhead_s", "s"),
]


def summarize(values: list[float]) -> dict:
    """Median, and the highest percentile with at least 10 samples beyond it.

    Below 20 samples that percentile lies under the median (or none
    qualifies); the tail then falls back to the median and says so.
    """
    if not values:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": None}
    ordered = sorted(values)
    n = len(ordered)
    p50 = statistics.median(ordered)
    if n < 20:
        return {"n": n, "p50": p50, "tail": p50, "tail_pct": None}
    return {"n": n, "p50": p50, "tail": ordered[n - 11], "tail_pct": 100.0 * (n - 10) / n}


def read_spans(path: Path) -> tuple[list[dict], dict]:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    return rows[:-1], rows[-1]


def caller(spans: list[dict], i: int) -> str:
    """Who span i works for: its nearest enclosing `agent.train` (acting),
    `agent.evaluate` (evaluation) or `baselines.*` span (oracle)."""
    parent = spans[i]["parent"]
    while parent is not None:
        name = spans[parent]["name"]
        if name == "agent.evaluate":
            return "evaluation"
        if name == "agent.train":
            return "acting"
        if name.startswith("baselines."):
            return "oracle"
        parent = spans[parent]["parent"]
    return "other"


def layer_metrics(span_path: Path, macs_per_sample: int,
                  overhead_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics and their report lines, derived from a span file."""
    spans, counters = read_spans(span_path)
    env_calls: dict[str, dict[str, int]] = {"env.step": {}, "env.reset": {}}
    for i, span in enumerate(spans):
        name = span["name"]
        # Batch-1 inference serves action selection and evaluation; batch-k
        # inference serves the target-cache misses of a learner step.
        if name == "net.forward_infer":
            parent = span["parent"]
            target = parent is not None and spans[parent]["name"] == "agent.max_target_values"
            span["name"] += ".bk" if target else ".b1"
        # The oracles drive the same env; their steps are timed apart from
        # the steps of acting and evaluation.
        elif name in env_calls:
            who = caller(spans, i)
            env_calls[name][who] = env_calls[name].get(who, 0) + 1
            if name == "env.step" and who != "other":
                span["name"] += ".oracle" if who == "oracle" else ".play"
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(i)

    metrics: dict[str, dict] = {}
    lines: list[str] = []
    for metric, span_name, factor, unit, self_time in TIMINGS:
        idx = by_name.get(span_name, [])
        values = [
            (spans[i]["end"] - spans[i]["start"] - (child_time[i] if self_time else 0.0)) * factor
            for i in idx
        ]
        s = summarize(values)
        metrics[f"{metric}.p50"] = {"value": s["p50"], "unit": unit}
        metrics[f"{metric}.tail"] = {"value": s["tail"], "unit": unit}
        if s["n"] == 0:
            note = "not exercised on this workload"
        elif s["tail_pct"] is None:
            note = f"n={s['n']}; under 20 samples, so tail = p50"
        else:
            note = f"n={s['n']}; tail is p{s['tail_pct']:.2f}"
        lines.append(f"{metric}.p50 {s['p50']:.6g} {unit}  {metric}.tail {s['tail']:.6g} {unit}"
                     f"  ({note})")

    stacks = by_name.get("imaging.generate_stack", [])
    saves = by_name.get("net.save_checkpoint", [])
    trains = by_name.get("net.forward_train", [])
    gmacs = summarize([
        macs_per_sample * spans[i]["batch"] / (spans[i]["end"] - spans[i]["start"]) / 1e9
        for i in trains
    ])["p50"]
    lookups = counters["cache_lookups"]
    values = {
        "focus.tenengrad_calls": len(by_name.get("focus.tenengrad", [])),
        "net.checkpoint_bytes": spans[saves[-1]]["bytes"] if saves else 0,
        "agent.target_cache.hit_ratio": counters["cache_hits"] / lookups if lookups else 0.0,
        "net.forward_train_gmac_per_s": gmacs,
        "trace.overhead_s": overhead_s,
    }
    notes = {
        "agent.target_cache.hit_ratio": f"{counters['cache_hits']} hits / {lookups} lookups",
        "net.forward_train_gmac_per_s": "computed: count_macs(arch) x batch / span time, p50",
        "trace.overhead_s": "traced minus untraced wall time of the same steps",
    }
    for metric, unit in SCALARS:
        metrics[metric] = {"value": values[metric], "unit": unit}
        note = f"  ({notes[metric]})" if metric in notes else ""
        lines.append(f"{metric} {values[metric]:.6g} {unit}{note}")

    # Call counts that the workload and the policy set, not the code's
    # speed: printed for reading the timings, never compared.
    evals = by_name.get("agent.evaluate", [])
    in_train = sum(1 for i in evals if caller(spans, i) == "acting")
    counts = {
        "imaging.frames": spans[stacks[-1]]["frames"] if stacks else 0,
        "env.step_calls": env_calls["env.step"],
        "env.reset_calls": env_calls["env.reset"],
        "agent.train_step_calls": len(by_name.get("agent.train_step", [])),
        "agent.evaluate_calls": {"inside agent.train": in_train,
                                 "on their own": len(evals) - in_train},
    }
    for name, value in counts.items():
        if isinstance(value, dict):
            value = " ".join(f"{k}={v}" for k, v in sorted(value.items())) or "0"
        lines.append(f"count {name} {value}  (informational)")
    return metrics, lines
