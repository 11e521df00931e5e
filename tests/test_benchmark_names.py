"""The names the benchmark's tracer patches must exist in focusrl.

`perfbench/spans.py` replaces focusrl functions and methods by name, from
outside the program; a rename would otherwise show only when the
benchmark itself runs.  The tracer module is loaded by path and never
installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patched_names():
    names = [(module, target) for module, target, _, _ in _load_spans().TARGETS]
    # Patched apart from TARGETS: the cache counters of spans.py and mix.py.
    names += [("focusrl.agent", "TargetValueCache.get"), ("focusrl.agent", "TargetValueCache.clear")]
    return names


@pytest.mark.parametrize("module_name,target", _patched_names())
def test_patched_name_resolves(module_name, target):
    owner = importlib.import_module(module_name)
    attr = target
    if "." in target:
        cls_name, attr = target.split(".")
        owner = vars(owner)[cls_name]
    assert callable(vars(owner)[attr])


def test_entry_points_keep_their_signatures():
    from focusrl import agent, baselines

    train = inspect.signature(agent.train).parameters
    assert list(train)[:5] == ["env", "hyper", "arch", "rng", "out_dir"]
    assert train["eval_threads"].default == 1
    assert "progress" in train
    assert list(inspect.signature(agent.evaluate).parameters) == ["params", "arch", "env"]
    # The oracle operation and `focusrl baseline` call these by position.
    oracles = {
        baselines.mdp_from_stack: ["stack", "cfg"],
        baselines.value_iteration: ["mdp", "gamma"],
        baselines.greedy_policy_report: ["q_table", "mdp", "env"],
        baselines.hill_climb: ["env"],
        baselines.exhaustive_scan: ["stack"],
    }
    for oracle, params in oracles.items():
        assert list(inspect.signature(oracle).parameters) == params, oracle.__name__


def test_forward_keeps_what_the_tracer_reads():
    # spans.py reads `x` and `mode` by position and names a span by the mode's value.
    from focusrl import net

    params = list(inspect.signature(net.forward_batch).parameters)
    assert params[:5] == ["params", "arch", "x", "onehot", "mode"]
    assert net.Mode.TRAIN.value == "train"
    assert net.Mode.INFER.value == "infer"
