"""Non-learning references for the focus task.

Three ways to solve a stack without a network: an exact tabular model
solved by value iteration (the optimal-policy ceiling), a classical
coarse-to-fine hill climb over the sharpness measure, and an exhaustive
scan.  Trained agents are judged against these.  All three read the
stored focus curve over integer positions; none steps the simulator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from focusrl.agent import EvalReport
from focusrl.env import (
    ACTION_DELTAS_RAD,
    Action,
    AutofocusEnv,
    EnvConfig,
    EpisodeOutcome,
    is_success,
)
from focusrl.focus import FocusCurve
from focusrl.focus import focus_curve  # noqa: F401  (unused; perfbench's tracer patches this name)
from focusrl.imaging import FocalStack

TERMINAL_OUTCOMES = tuple(outcome for outcome in EpisodeOutcome if outcome.is_terminal)


@dataclass(frozen=True)
class DiscreteMdp:
    """Exact tabular model of one stack's episode dynamics.

    States are (position index, steps-taken) pairs laid out as
    `steps * n_positions + index`, plus one absorbing terminal state at the
    end.  Built from the focus curve and the movement rules alone, on
    purpose: tests cross-check every entry against the simulator, and that
    check only means something if the two are written independently.
    """

    n_positions: int
    max_steps: int
    next_state: np.ndarray  # (n_states, n_actions) int
    rewards: np.ndarray  # (n_states, n_actions) float
    done: np.ndarray  # (n_states, n_actions) bool
    outcome_code: np.ndarray  # (n_states, n_actions) int, index into TERMINAL_OUTCOMES + Running
    end_index: np.ndarray  # (n_states, n_actions) int, where the stage stands after; -1 when terminal

    @property
    def n_states(self) -> int:
        return self.n_positions * self.max_steps + 1

    @property
    def terminal_state(self) -> int:
        return self.n_states - 1

    def state_id(self, index: int, steps: int) -> int:
        if not 0 <= index < self.n_positions:
            raise ValueError(f"index {index} outside [0, {self.n_positions})")
        if not 0 <= steps < self.max_steps:
            raise ValueError(f"steps {steps} outside [0, {self.max_steps})")
        return steps * self.n_positions + index

    def outcome_of(self, state: int, action: int) -> EpisodeOutcome:
        code = int(self.outcome_code[state, action])
        return EpisodeOutcome.RUNNING if code < 0 else TERMINAL_OUTCOMES[code]


def mdp_from_stack(stack: FocalStack, cfg: EnvConfig | None = None) -> DiscreteMdp:
    """Tabulate transitions, rewards, and outcomes for every decision point."""
    if cfg is None:
        cfg = EnvConfig(stack=stack)
    elif cfg.stack is not stack:
        raise ValueError("cfg must wrap the same stack")
    n, max_steps = len(stack), cfg.max_steps
    curve = (stack.focus_values / stack.focus_max).astype(np.float64)
    outside = ~((curve >= 0.0) & (curve <= 1.0))
    if outside.any():
        raise ValueError(f"normalized focus {curve[outside][0]} outside [0, 1]")
    # Row k of `pay` is the reward of outcome code k at each position, with
    # Running (code -1) last: `reward`'s arithmetic, one position per column.
    shaped, bonus = cfg.reward_coeff * (curve - 1.0), cfg.bonus_magnitude
    outcomes = (*TERMINAL_OUTCOMES, EpisodeOutcome.RUNNING)
    pay = np.array([shaped + bonus if out is EpisodeOutcome.SUCCESS_TERMINATE
                    else shaped - bonus if out.is_failure else shaped for out in outcomes])
    ok = is_success(curve, cfg)
    success, blurry, out_of_range, out_of_steps = range(len(TERMINAL_OUTCOMES))
    index = np.arange(n)
    steps = np.arange(max_steps)[:, None]
    last = steps + 1 >= max_steps
    # Per (steps, index, action): outcome code and the position the reward reads.
    code = np.empty((max_steps, n, len(Action)), dtype=np.int64)
    at = np.empty_like(code)
    for act in Action:
        if act is Action.TERMINATE:
            code[..., act], at[..., act] = np.where(ok, success, blurry), index
            continue
        target = index + int(round(ACTION_DELTAS_RAD[act] / stack.spacing))
        inside = (target >= 0) & (target < n)
        # A rejected move fails where the stage stands, even on the last step.
        code[..., act] = np.where(inside, np.where(last, out_of_steps, -1), out_of_range)
        at[..., act] = np.where(inside, target, index)
    running = code == -1
    terminal = n * max_steps
    next_state = np.where(running, (steps[..., None] + 1) * n + at, terminal)
    # The tables in field order, each closed by the absorbing terminal state:
    # done, zero reward, self-looping, at no position.
    tables = (next_state, pay[code, at], ~running, code, at)
    return DiscreteMdp(n, max_steps, *(
        np.vstack([table.reshape(terminal, len(Action)), np.full(len(Action), fill)])
        for table, fill in zip(tables, (terminal, 0.0, True, -1, -1))
    ))


def value_iteration(mdp: DiscreteMdp, gamma: float) -> np.ndarray:
    """Solve Q = r + gamma * max Q' exactly by backward induction.

    Every running transition leads from one step layer into the next, so
    the states form `max_steps` layers and one sweep per layer, last
    first, reaches the fixed point.  Raises ValueError on a table whose
    running transitions break that layering.
    """
    n, steps = mdp.n_positions, mdp.max_steps
    cont = ~mdp.done
    # Where each transition lands relative to the step layer after its own.
    landing = mdp.next_state[:-1].reshape(steps, n, -1) - n * np.arange(1, steps + 1)[:, None, None]
    layered = (landing >= 0) & (landing < n)
    layered[-1] = False  # the last layer has no next one
    broken = cont[:-1].reshape(layered.shape) & ~layered
    if broken.any():
        step = int(np.argwhere(broken)[0, 0])
        raise ValueError(f"a running transition from step {step} does not lead to step {step + 1}")
    q = np.zeros((mdp.n_states, mdp.next_state.shape[1]), dtype=np.float64)
    v = np.zeros(mdp.n_states, dtype=np.float64)
    for step in reversed(range(steps)):
        layer = slice(step * n, (step + 1) * n)
        q[layer] = mdp.rewards[layer] + gamma * np.where(cont[layer], v[mdp.next_state[layer]], 0.0)
        # The row max as elementwise maxima of the action columns: the same
        # values, about 4x faster than numpy's reduction along a 5-wide axis.
        v[layer] = functools.reduce(np.maximum, q[layer].T)
    return q


def greedy_policy_report(q_table: np.ndarray, mdp: DiscreteMdp, env: AutofocusEnv) -> EvalReport:
    """Roll the Q-table's greedy policy out over the MDP tables from every start.

    Every start advances at once, one table lookup per step, so the
    rollout takes at most `max_steps` vectorised steps.  The env supplies
    only the focus curve the final positions are scored on.  Ties go to
    the lowest action code.
    """
    if q_table.shape != (mdp.n_states, len(Action)):
        raise ValueError(f"Q-table shape {q_table.shape} != {(mdp.n_states, len(Action))}")
    if (env.n_positions, env.cfg.max_steps) != (mdp.n_positions, mdp.max_steps):
        raise ValueError(f"env has {env.n_positions} positions and {env.cfg.max_steps} steps, "
                         f"the MDP {mdp.n_positions} and {mdp.max_steps}")
    policy = q_table.argmax(axis=1)
    state = np.arange(mdp.n_positions)  # at step 0 a state id is its start index
    code = np.full(mdp.n_positions, -1)
    steps = np.zeros_like(code)
    end = state.copy()
    for step in range(1, mdp.max_steps + 1):
        live = np.flatnonzero(code < 0)
        if not live.size:
            break
        here = state[live]
        act = policy[here]
        code[live] = mdp.outcome_code[here, act]
        steps[live] = step
        end[live] = mdp.end_index[here, act]
        state[live] = mdp.next_state[here, act]
    return EvalReport.from_episodes([
        (TERMINAL_OUTCOMES[c], k, focus)
        for c, k, focus in zip(code.tolist(), steps.tolist(), env.normalized_curve[end].tolist())
    ])


# -- classical hill climb ------------------------------------------------


def _climb(curve: list[float], start: int, fine: int, coarse: int, budget: int) -> tuple[int, int]:
    """One coarse-to-fine search over the curve; returns (end index, moves made).

    Shape of the search: a fine probe fixes the uphill direction, a coarse
    ascent rides it until the measure drops, one coarse back-up, then a
    fine ascent with a single allowed reversal that ends at its first drop.
    `fine` and `coarse` are the index steps of the two moves.  The climber
    knows the stage limits and makes at most `budget` moves, one fewer than
    the episode's actions, so it never leaves the range or runs out of
    steps: Terminate ends it.
    """
    n = len(curve)
    index, moves = start, 0
    here = curve[index]
    if budget < 1 or not (index + fine < n or index >= fine):
        return index, moves

    # Fine probe: try positive first, mirrored at the upper edge.
    sign = 1 if index + fine < n else -1
    index, moves = index + sign * fine, moves + 1
    if curve[index] > here:
        direction, here = sign, curve[index]
    else:
        if moves >= budget:
            return index, moves
        index, moves = index - sign * fine, moves + 1  # back to the start
        here = curve[index]
        direction = -sign
        if moves >= budget or not 0 <= index + direction * fine < n:
            return index, moves
        index, moves = index + direction * fine, moves + 1
        if curve[index] <= here:
            # Downhill both ways: the start was the local maximum.
            return index, moves
        here = curve[index]

    # Coarse ascent.
    leap = direction * coarse
    while moves < budget and 0 <= index + leap < n:
        index, moves = index + leap, moves + 1
        if curve[index] > here:
            here = curve[index]
            continue
        if moves >= budget:
            return index, moves
        index, moves = index - leap, moves + 1  # back up one coarse step
        here = curve[index]
        break

    # Fine ascent; the first drop may reverse once, the second ends it.
    reversed_once = False
    step = direction * fine
    while moves < budget:
        if not 0 <= index + step < n:
            if reversed_once:
                break
            reversed_once = True
            step = -step
            continue
        index, moves = index + step, moves + 1
        if curve[index] > here:
            here = curve[index]
        elif reversed_once:
            break
        else:
            reversed_once = True
            step = -step
    return index, moves


def _climb_episodes(env: AutofocusEnv, starts) -> list[tuple[EpisodeOutcome, int, float]]:
    """(outcome, actions, end focus) of the climb from each start, Terminate included."""
    spacing = env.cfg.stack.spacing
    fine, coarse = (int(round(ACTION_DELTAS_RAD[act] / spacing))
                    for act in (Action.FINE_POSITIVE, Action.COARSE_POSITIVE))
    curve = env.normalized_curve.tolist()
    budget = env.cfg.max_steps - 1  # keep one action in hand for Terminate
    episodes = []
    for start in starts:
        index, moves = _climb(curve, start, fine, coarse, budget)
        focus = curve[index]
        outcome = (EpisodeOutcome.SUCCESS_TERMINATE if is_success(focus, env.cfg)
                   else EpisodeOutcome.FAIL_TERMINATE_BLUR)
        episodes.append((outcome, moves + 1, focus))
    return episodes


def hill_climb_episode(env: AutofocusEnv, start_index: int) -> tuple[EpisodeOutcome, int, float]:
    """Coarse-to-fine search from one start; (outcome, actions, end focus)."""
    if not 0 <= start_index < env.n_positions:
        raise ValueError(f"start index {start_index} outside [0, {env.n_positions})")
    return _climb_episodes(env, [start_index])[0]


def hill_climb(env: AutofocusEnv) -> EvalReport:
    """Coarse-to-fine search from every start index."""
    return EvalReport.from_episodes(_climb_episodes(env, range(env.n_positions)))


@dataclass(frozen=True)
class ScanResult:
    argmax_index: int
    evaluations: int
    position_rad: float


def exhaustive_scan(stack: FocalStack) -> ScanResult:
    """First argmax of the stack's stored focus curve, and the cost in reads.

    The stack already holds every position's score (`focus_values`), so no
    pixel is read here; `evaluations` is the read count of a physical scan.
    """
    if len(stack) == 0:
        raise ValueError("cannot scan an empty stack")
    curve = FocusCurve.from_values(stack.focus_values)
    return ScanResult(
        argmax_index=curve.argmax_index,
        evaluations=len(stack),
        position_rad=float(stack.positions[curve.argmax_index]),
    )
