"""Non-learning references for the focus task.

Three ways to solve a stack without a network: an exact tabular model
solved by value iteration (the optimal-policy ceiling), a classical
coarse-to-fine hill climb over the sharpness measure, and an exhaustive
scan.  Trained agents are judged against these.
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
    reward,
)
from focusrl.focus import FocusCurve
from focusrl.focus import focus_curve  # noqa: F401  (unused; perfbench's tracer patches this name)
from focusrl.imaging import FocalStack

TERMINAL_OUTCOMES = (
    EpisodeOutcome.SUCCESS_TERMINATE,
    EpisodeOutcome.FAIL_TERMINATE_BLUR,
    EpisodeOutcome.FAIL_OUT_OF_RANGE,
    EpisodeOutcome.FAIL_MAX_STEPS,
)


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
    curve = [float(c) for c in stack.focus_values / stack.focus_max]
    # Row k of `pay` is the reward of outcome code k at each position, with
    # Running (code -1) last; calling `reward` per position keeps its checks.
    outcomes = (*TERMINAL_OUTCOMES, EpisodeOutcome.RUNNING)
    pay = np.array([[reward(c, out, cfg) for c in curve] for out in outcomes])
    ok = np.array([is_success(c, cfg) for c in curve])
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
    tables = (next_state, pay[code, at], ~running, code)
    # The absorbing terminal state: done, zero reward, self-looping.
    next_state, rewards, done, outcome_code = (
        np.vstack([table.reshape(terminal, len(Action)), np.full(len(Action), fill)])
        for table, fill in zip(tables, (terminal, 0.0, True, -1))
    )
    return DiscreteMdp(
        n_positions=n,
        max_steps=max_steps,
        next_state=next_state,
        rewards=rewards,
        done=done,
        outcome_code=outcome_code,
    )


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
    """Run the Q-table's greedy policy through the simulator from every start.

    Ties go to the lowest action code.
    """
    policy = q_table.argmax(axis=1)
    episodes = []
    for start in range(env.n_positions):
        env.reset_at(start)
        while not env.done:
            env.step(int(policy[mdp.state_id(env.position_index, env.steps_taken)]))
        episodes.append(
            (env.outcome, env.steps_taken, float(env.normalized_curve[env.position_index]))
        )
    return EvalReport.from_episodes(episodes)


# -- classical hill climb ------------------------------------------------


def _measure(env: AutofocusEnv) -> float:
    return float(env.normalized_curve[env.position_index])


class _Climber:
    """One hill-climb episode driven through the simulator.

    Shape of the search: a fine probe fixes the uphill direction, a coarse
    ascent rides it until the measure drops, one coarse back-up, then a
    fine ascent with a single allowed reversal that terminates at its
    first drop.  All measure readings come from the simulator, and the
    climber knows the stage limits, so it never commands an out-of-range
    move.  A budget guard spends the last allowed action on Terminate.
    """

    def __init__(self, env: AutofocusEnv):
        self.env = env
        self.fine = 1  # index steps per fine move; coarse is the ratio below
        self.coarse = abs(
            int(round(ACTION_DELTAS_RAD[Action.COARSE_POSITIVE] / env.cfg.stack.spacing))
        )
        # Signed index delta -> the first move action in code order that makes it.
        self._action_for: dict[int, Action] = {}
        for act, rad in ACTION_DELTAS_RAD.items():
            if act is not Action.TERMINATE:
                self._action_for.setdefault(int(round(rad / env.cfg.stack.spacing)), act)

    def _in_range(self, delta: int) -> bool:
        return 0 <= self.env.position_index + delta < self.env.n_positions

    def _move(self, delta: int) -> float:
        """Issue the move action for a signed index delta; returns new measure."""
        act = self._action_for.get(delta)
        if act is None:
            raise ValueError(f"no action moves {delta} indices")
        self.env.step(act)
        return _measure(self.env)

    def _out_of_budget(self) -> bool:
        # Keep one action in hand for Terminate.
        return self.env.steps_taken >= self.env.cfg.max_steps - 1

    def run(self, start_index: int) -> tuple[EpisodeOutcome, int, float]:
        env = self.env
        env.reset_at(start_index)
        here = _measure(env)
        if env.n_positions == 1 or self._out_of_budget():
            return self._terminate()

        # Fine probe: try positive first, mirrored at the upper edge.
        sign = 1 if self._in_range(self.fine) else -1
        probed = self._move(sign * self.fine)
        if probed > here:
            direction, here = sign, probed
        else:
            if self._out_of_budget():
                return self._terminate()
            here = self._move(-sign * self.fine)  # back to the start
            direction = -sign
            if self._out_of_budget() or not self._in_range(direction * self.fine):
                return self._terminate()
            nxt = self._move(direction * self.fine)
            if nxt <= here:
                # Downhill both ways: the start was the local maximum.
                return self._terminate()
            here = nxt

        # Coarse ascent.
        while not self._out_of_budget() and self._in_range(direction * self.coarse):
            nxt = self._move(direction * self.coarse)
            if nxt > here:
                here = nxt
                continue
            if self._out_of_budget():
                return self._terminate()
            here = self._move(-direction * self.coarse)  # back up one coarse step
            break

        # Fine ascent; the first drop may reverse once, the second ends it.
        reversed_once = False
        while not self._out_of_budget():
            if not self._in_range(direction * self.fine):
                if reversed_once:
                    break
                reversed_once = True
                direction = -direction
                continue
            nxt = self._move(direction * self.fine)
            if nxt > here:
                here = nxt
            elif reversed_once:
                break
            else:
                reversed_once = True
                direction = -direction
        return self._terminate()

    def _terminate(self) -> tuple[EpisodeOutcome, int, float]:
        env = self.env
        env.step(Action.TERMINATE)
        return env.outcome, env.steps_taken, _measure(env)


def hill_climb_episode(env: AutofocusEnv, start_index: int) -> tuple[EpisodeOutcome, int, float]:
    """Coarse-to-fine search from one start; (outcome, actions, end focus)."""
    return _Climber(env).run(start_index)


def hill_climb(env: AutofocusEnv) -> EvalReport:
    """Coarse-to-fine search from every start index."""
    climber = _Climber(env)
    return EvalReport.from_episodes([climber.run(i) for i in range(env.n_positions)])


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
