"""Release gate: ten criteria, one verdict line each.

Each test appends `criterion N: PASS/FAIL — detail` to the registry in
conftest.py, which prints the block in the terminal summary.  Criteria
1-4 and 10 are computed live.  Criteria 5-9 judge the committed training
runs under artifacts/ (produced by the CLI as documented in the README)
and, where cheap enough, re-verify a final checkpoint live against a
freshly regenerated stack so the committed reports cannot silently rot.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from focusrl import agent, baselines
from focusrl.agent import Hyperparams
from focusrl.env import Action, AutofocusEnv, EnvConfig, EpisodeOutcome
from focusrl.imaging import (
    generate_stack,
    load_pgm,
    render_scene,
    resize_bilinear,
    save_pgm,
    to_grayscale,
)
from focusrl.focus import FocusCurve, normalize, tenengrad
from focusrl.net import (
    MAC_BUDGET,
    MAC_TOLERANCE,
    PARAM_BUDGET,
    PARAM_TOLERANCE,
    REDUCED_CHECK_ARCH,
    NetArch,
    count_macs,
    count_params,
    dense_counts,
    gradient_check,
    init_params,
    load_checkpoint,
)

ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts"


def _verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _final_row(run: Path) -> dict:
    with open(run / "train_log.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, f"{run} has an empty training log"
    return rows[-1]


def _run_dir(name: str) -> Path:
    run = ARTIFACTS / name
    assert run.is_dir(), f"missing committed run {run}; see README for how it is produced"
    return run


def _final_eval(run: Path, timesteps: int) -> dict:
    path = run / f"eval_{timesteps}.json"
    assert path.is_file(), f"{run} lacks {path.name}"
    return json.loads(path.read_text(encoding="utf-8"))


def test_criterion_01_gradient_correctness():
    started = time.perf_counter()
    max_err, checked = gradient_check(REDUCED_CHECK_ARCH)
    elapsed = time.perf_counter() - started
    ok = max_err < 1e-4 and elapsed < 60.0
    _verdict(
        1,
        ok,
        f"reduced-net gradient check: max rel err {max_err:.3e} over {checked} "
        f"coordinates in {elapsed:.1f}s (need < 1e-4 within 60s)",
    )


def test_criterion_02_architecture_budget():
    arch = NetArch()
    params, macs = count_params(arch), count_macs(arch)
    again = (count_params(arch), count_macs(arch))
    p_lo, p_hi = PARAM_BUDGET * (1 - PARAM_TOLERANCE), PARAM_BUDGET * (1 + PARAM_TOLERANCE)
    m_lo, m_hi = MAC_BUDGET * (1 - MAC_TOLERANCE), MAC_BUDGET * (1 + MAC_TOLERANCE)
    ok = (params, macs) == again and p_lo <= params <= p_hi and m_lo <= macs <= m_hi
    _verdict(
        2,
        ok,
        f"params {params} in [{p_lo:.0f}, {p_hi:.0f}], macs {macs} in "
        f"[{m_lo:.0f}, {m_hi:.0f}], deterministic",
    )


def test_criterion_03_env_model_equivalence(exp1_stack):
    cfg = EnvConfig(stack=exp1_stack)
    env = AutofocusEnv(cfg)
    mdp = baselines.mdp_from_stack(exp1_stack, cfg)
    started = time.perf_counter()
    mismatches = 0
    for steps in range(cfg.max_steps):
        for index in range(len(exp1_stack)):
            sid = mdp.state_id(index, steps)
            for act in Action:
                env.seek(index, steps)
                tr = env.step(act)
                same = (
                    mdp.rewards[sid, int(act)] == tr.reward
                    and bool(mdp.done[sid, int(act)]) == tr.done
                    and mdp.outcome_of(sid, int(act)) is tr.outcome
                )
                if same and not tr.done:
                    same = mdp.next_state[sid, int(act)] == mdp.state_id(
                        env.position_index, steps + 1
                    )
                mismatches += not same
    elapsed = time.perf_counter() - started
    cases = len(exp1_stack) * cfg.max_steps * len(Action)
    ok = mismatches == 0 and elapsed < 10.0
    _verdict(
        3,
        ok,
        f"exhaustive transition cross-check: {mismatches} mismatches over "
        f"{cases} cases in {elapsed:.1f}s (need 0 within 10s)",
    )


def test_criterion_04_oracle_optimality_bound(exp1_stack, tmp_path):
    cfg = EnvConfig(stack=exp1_stack)
    env = AutofocusEnv(cfg)
    mdp = baselines.mdp_from_stack(exp1_stack, cfg)
    q = baselines.value_iteration(mdp, mdp.gamma_hint)
    vi = baselines.greedy_policy_report(q, mdp, env)
    hc = baselines.hill_climb(env)
    for name, report in (("value_iteration", vi), ("hill_climb", hc)):
        report.save(tmp_path / f"{name}_131.json")
    ok = vi.accuracy == 1.0 and vi.avg_steps <= hc.avg_steps
    _verdict(
        4,
        ok,
        f"value-iteration greedy: accuracy {vi.accuracy:.3f}, avg_steps "
        f"{vi.avg_steps:.3f} vs hill-climb {hc.avg_steps:.3f}; reports emitted",
    )


def test_criterion_05_tiny_task_learning(tiny_stack):
    mdp = baselines.mdp_from_stack(tiny_stack)
    q = baselines.value_iteration(mdp, mdp.gamma_hint)
    vi_env = AutofocusEnv(EnvConfig(stack=tiny_stack, net_input_size=32))
    optimum = baselines.greedy_policy_report(q, mdp, vi_env).avg_steps

    finals = {}
    slow = []
    for seed in (7, 8, 9):
        run = _run_dir(f"tiny_s{seed}")
        finals[seed] = _final_eval(run, 20_000)
        meta = json.loads((run / "run_meta.json").read_text(encoding="utf-8"))
        if meta["elapsed_seconds"] >= 1800:
            slow.append(seed)
    passing = [
        seed
        for seed, report in finals.items()
        if report["accuracy"] == 1.0 and report["avg_steps"] <= optimum + 3.0
    ]

    # The committed report must match a live evaluation of the committed
    # checkpoint on a freshly regenerated stack.
    probe_seed = passing[0] if passing else 7
    params, arch, _ = load_checkpoint(_run_dir(f"tiny_s{probe_seed}") / "ckpt_20000")
    live = agent.evaluate(
        params, arch, AutofocusEnv(EnvConfig(stack=tiny_stack, net_input_size=arch.input_size))
    )
    live_matches = (
        live.accuracy == finals[probe_seed]["accuracy"]
        and live.avg_steps == finals[probe_seed]["avg_steps"]
    )

    ok = len(passing) >= 2 and not slow and live_matches
    _verdict(
        5,
        ok,
        f"tiny 20K: final accuracy "
        f"{[round(finals[s]['accuracy'], 3) for s in (7, 8, 9)]}, "
        f"avg_steps {[round(finals[s]['avg_steps'], 2) for s in (7, 8, 9)]} "
        f"(optimum {optimum:.2f}, allowed +3), seeds at 100%: {passing} (need ≥ 2), "
        f"runtime < 30 min {'violated by ' + str(slow) if slow else 'held'}, "
        f"live re-eval of seed {probe_seed} {'matches' if live_matches else 'DIFFERS'}",
    )


def test_criterion_06_exp1_learning(exp1_stack):
    finals = {}
    first_hundred = {}
    for seed in (7, 8, 9):
        run = _run_dir(f"exp1_s{seed}")
        finals[seed] = _final_eval(run, 100_000)
        first_hundred[seed] = None
        with open(run / "train_log.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if row["eval_accuracy"] and float(row["eval_accuracy"]) == 1.0:
                    first_hundred[seed] = int(row["timestep"])
                    break
    passing = [
        seed
        for seed, report in finals.items()
        if report["accuracy"] >= 0.95
        and report["avg_steps"] <= 12.0
        and first_hundred[seed] is not None
        and first_hundred[seed] <= 60_000
    ]

    params, arch, _ = load_checkpoint(_run_dir("exp1_s7") / "ckpt_100000")
    live = agent.evaluate(params, arch, AutofocusEnv(EnvConfig(stack=exp1_stack)))
    live_matches = (
        live.accuracy == finals[7]["accuracy"] and live.avg_steps == finals[7]["avg_steps"]
    )

    ok = len(passing) >= 2 and live_matches
    _verdict(
        6,
        ok,
        f"exp1 100K: final accuracy {[round(finals[s]['accuracy'], 3) for s in (7, 8, 9)]}, "
        f"avg_steps {[round(finals[s]['avg_steps'], 2) for s in (7, 8, 9)]}, "
        f"first-100% timestep {[first_hundred[s] for s in (7, 8, 9)]} (need ≤ 60000), "
        f"passing seeds {passing} (need ≥ 2), live re-eval "
        f"{'matches' if live_matches else 'DIFFERS'}",
    )


def test_criterion_07_range_ordering():
    exp1_finals = {
        seed: _final_eval(_run_dir(f"exp1_s{seed}"), 100_000) for seed in (7, 8, 9)
    }
    exp1_seed = next(
        (s for s in (7, 8, 9) if exp1_finals[s]["accuracy"] >= 0.95), None
    )
    assert exp1_seed is not None, "no exp1 seed reached 95%; criterion 6 should have failed"
    exp1 = exp1_finals[exp1_seed]
    exp2 = _final_eval(_run_dir("exp2_s7"), 100_000)
    ok = (
        exp2["avg_steps"] > exp1["avg_steps"]
        and exp1["accuracy"] >= 0.95
        and exp2["accuracy"] >= 0.95
    )
    _verdict(
        7,
        ok,
        f"broader range costs steps: exp2 avg {exp2['avg_steps']:.3f} > exp1 avg "
        f"{exp1['avg_steps']:.3f} (seed {exp1_seed}), accuracies "
        f"{exp2['accuracy']:.3f}/{exp1['accuracy']:.3f} both ≥ 0.95",
    )


def test_criterion_08_generalization_direction():
    run = _run_dir("exp3_s7")
    reports = {
        name: json.loads((run / f"eval_{name}.json").read_text(encoding="utf-8"))
        for name in ("train", "similar", "fresh")
    }
    acc = {name: report["accuracy"] for name, report in reports.items()}
    ok = acc["fresh"] < acc["train"] and acc["similar"] >= acc["fresh"]
    _verdict(
        8,
        ok,
        f"train {acc['train']:.3f} > fresh {acc['fresh']:.3f} and similar "
        f"{acc['similar']:.3f} ≥ fresh (recorded, no absolute thresholds)",
    )


@pytest.mark.slow
def test_criterion_09_determinism(tmp_path):
    # Full-scale evidence: the committed tiny seed-7 run and its committed
    # independent repetition must agree byte for byte on every artifact
    # that both kept (log, final checkpoint, final evaluation).
    first, second = _run_dir("tiny_s7"), _run_dir("tiny_s7_repeat")
    compared = []
    identical = True
    for name in ("train_log.csv", "ckpt_20000", "eval_20000.json"):
        a, b = first / name, second / name
        assert a.is_file() and b.is_file(), f"determinism pair lacks {name}"
        compared.append(name)
        identical = identical and a.read_bytes() == b.read_bytes()

    # Fresh-machine spot check at reduced horizon: same config, run twice
    # here and now, artifacts must also match bitwise.
    from focusrl.cli import load_config

    config, _ = load_config("tiny")
    short = {**config.train, "total_timesteps": 2000}
    live_same = True
    outs = []
    for attempt in ("a", "b"):
        out = tmp_path / attempt
        out.mkdir()
        stack = config.stack.build()
        env = AutofocusEnv(config.env_config(stack))
        agent.train(
            env,
            Hyperparams(**short),
            config.net_arch(),
            np.random.default_rng(config.seed),
            out,
        )
        outs.append(out)
    for name in ("train_log.csv", "ckpt_2000", "eval_2000.json"):
        live_same = live_same and (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    ok = identical and live_same
    _verdict(
        9,
        ok,
        f"committed repeat run identical on {compared}: {identical}; "
        f"live 2K-step double run identical: {live_same}",
    )


def test_criterion_10_worked_examples_digest(tmp_path):
    """Spot-check one frozen numeric example per module; the full set
    lives in the per-module unit suites this file rides on."""
    checks = []

    # Image I/O scaling and round-trip quantization.
    from focusrl.imaging import Image

    img = Image(np.array([[1.0, 0.5], [0.0, 64 / 255]]))
    save_pgm(img, tmp_path / "t.pgm", maxval=255)
    data = (tmp_path / "t.pgm").read_bytes()
    checks.append(data.endswith(bytes([255, 128, 0, 64])))
    checks.append(
        np.allclose(load_pgm(tmp_path / "t.pgm").pixels, [[1.0, 128 / 255], [0.0, 64 / 255]])
    )

    # Resize center average, luma weights.
    quad = Image(np.array([[0.0, 1.0], [1.0, 0.0]]))
    checks.append(float(resize_bilinear(quad, 1, 1).pixels[0, 0]) == 0.5)
    full = Image(np.ones((2, 2)))
    dark = Image(np.zeros((2, 2)))
    checks.append(np.allclose(to_grayscale(full, dark, dark).pixels, 0.299))

    # Sobel response of the canonical vertical step.
    step = Image(np.array([[0.0, 0.0, 1.0]] * 3))
    checks.append(tenengrad(step, threshold=0.0) == 16.0)

    # Curve normalization.
    checks.append(
        np.allclose(normalize(FocusCurve.from_values([2.0, 4.0, 8.0])).values, [0.25, 0.5, 1.0])
    )

    # Reward arithmetic, exact substitutions.
    scene = render_scene(seed=2, width=64, height=64)
    stack = generate_stack(scene, z_min=30.0, z_max=31.2, spacing=0.3, z_star=30.6)
    cfg = EnvConfig(stack=stack, net_input_size=16)
    from focusrl.env import reward

    # Bit-exact shaping product; -2.0 only up to float substitution of 0.8.
    checks.append(reward(0.8, EpisodeOutcome.RUNNING, cfg) == 10.0 * (0.8 - 1.0))
    checks.append(reward(0.5, EpisodeOutcome.FAIL_TERMINATE_BLUR, cfg) == -105.0)
    checks.append(reward(1.0, EpisodeOutcome.SUCCESS_TERMINATE, cfg) == 100.0)
    checks.append(reward(0.9, EpisodeOutcome.FAIL_MAX_STEPS, cfg) == pytest.approx(-101.0))
    checks.append(reward(1.0, EpisodeOutcome.FAIL_OUT_OF_RANGE, cfg) == -100.0)

    # Action selection argmax and tie-break codes, on parameters pinned so
    # every forward pass returns a chosen q-vector.
    from test_agent import _pinned_q_params

    env16 = AutofocusEnv(cfg)
    state = env16.reset_at(0)
    rng = np.random.default_rng(0)
    argmax_params = _pinned_q_params([1.0, 5.0, 2.0, 0.0, 0.0])
    tie_params = _pinned_q_params([3.0, 3.0, 0.0, 0.0, 0.0])
    checks.append(
        agent.select_action(argmax_params, REDUCED_CHECK_ARCH, state, 0.0, rng)
        is Action.FINE_POSITIVE
    )
    checks.append(
        agent.select_action(tie_params, REDUCED_CHECK_ARCH, state, 0.0, rng)
        is Action.COARSE_POSITIVE
    )

    # Bellman arithmetic against a target net pinned to max Q' = 50.
    from focusrl.env import Transition

    fifty = _pinned_q_params([50.0, 0.0, 0.0, 0.0, 0.0])
    moved = env16.step(Action.FINE_POSITIVE)
    running = Transition(
        state=moved.state,
        action=moved.action,
        reward=-2.0,
        next_state=moved.next_state,
        done=False,
        outcome=EpisodeOutcome.RUNNING,
    )
    checks.append(agent.bellman_target(running, fifty, REDUCED_CHECK_ARCH, 0.99) == 47.5)
    terminal = Transition(
        state=moved.state,
        action=Action.TERMINATE,
        reward=100.0,
        next_state=moved.next_state,
        done=True,
        outcome=EpisodeOutcome.SUCCESS_TERMINATE,
    )
    checks.append(agent.bellman_target(terminal, fifty, REDUCED_CHECK_ARCH, 0.99) == 100.0)

    # Epsilon schedule midpoint of the decaying half.
    checks.append(
        agent.epsilon_schedule(25_000, Hyperparams(total_timesteps=100_000)) == 0.55
    )

    # Dense-layer counting and fresh BN statistics.
    checks.append(dense_counts(10, 5) == (55, 50))
    params16 = init_params(REDUCED_CHECK_ARCH, np.random.default_rng(0))
    checks.append(all(np.all(params16[k] == 1.0) for k in params16 if k.endswith("_rvar")))

    ok = all(checks)
    _verdict(
        10,
        ok,
        f"worked-example digest: {sum(checks)}/{len(checks)} exact values hold "
        f"(full encodings in the per-module unit suites)",
    )
