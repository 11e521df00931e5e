"""Episodic focus-control environment over a focal stack.

The agent moves a focus position along the stack's index grid with coarse
or fine steps, or terminates.  Rewards follow a shaped scheme: every step
pays `reward_coeff * (normalized_focus - 1)` plus a terminal bonus of
`+bonus_magnitude` for stopping sharp and `-bonus_magnitude` for any
failure (stopping blurry, leaving the legal range, or running out of
steps).

A state is six integers: the last three stack positions and the action
codes that led to them.  The env holds the network input of every position
as one read-only `net_frames` array, so a state names its frames by row,
and `frame_ids` names each row by the first row with the same bytes.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from focusrl.imaging.image import resize_bilinear
from focusrl.imaging.stack import FocalStack


class Action(IntEnum):
    """The five executable focus commands, ordered by code."""

    COARSE_POSITIVE = 0
    FINE_POSITIVE = 1
    TERMINATE = 2
    FINE_NEGATIVE = 3
    COARSE_NEGATIVE = 4


# Focus-ring displacement of each action, in radians.
ACTION_DELTAS_RAD: dict[Action, float] = {
    Action.COARSE_POSITIVE: 2.7,
    Action.FINE_POSITIVE: 0.3,
    Action.TERMINATE: 0.0,
    Action.FINE_NEGATIVE: -0.3,
    Action.COARSE_NEGATIVE: -2.7,
}

# Padding code for history slots before the first real action.  It is not
# executable; the Q-network maps it to a zero action embedding.
NULL_ACTION_CODE = 5
ACTION_HISTORY = 3


def action_delta(action: Action | int) -> float:
    """Displacement in radians for an executable action code."""
    try:
        return ACTION_DELTAS_RAD[Action(int(action))]
    except ValueError:
        raise ValueError(f"action code {action} is not executable (valid: 0..4)") from None


class EpisodeOutcome(Enum):
    RUNNING = "Running"
    SUCCESS_TERMINATE = "SuccessTerminate"
    FAIL_TERMINATE_BLUR = "FailTerminateBlur"
    FAIL_OUT_OF_RANGE = "FailOutOfRange"
    FAIL_MAX_STEPS = "FailMaxSteps"

    @property
    def is_terminal(self) -> bool:
        return self is not EpisodeOutcome.RUNNING

    @property
    def is_failure(self) -> bool:
        return self.is_terminal and self is not EpisodeOutcome.SUCCESS_TERMINATE


class StateSeq(namedtuple("StateSeq", ("positions", "action_codes"))):
    """Agent observation: the last 3 stack positions and the codes that led there.

    The frame seen at `positions[k]` was observed after the action with
    `action_codes[k]` was taken; index 2 is the most recent.  Fresh
    episodes repeat the start position and pad codes with NULL_ACTION_CODE.
    The network reads the frames from the env's `net_frames`.
    """

    __slots__ = ()

    def __new__(cls, positions: tuple[int, int, int], action_codes: tuple[int, int, int]):
        if len(positions) != ACTION_HISTORY or len(action_codes) != ACTION_HISTORY:
            raise ValueError("state needs exactly 3 positions and 3 action codes")
        if min(action_codes) < 0 or max(action_codes) > NULL_ACTION_CODE:
            raise ValueError(f"action codes {action_codes} outside [0, {NULL_ACTION_CODE}]")
        return tuple.__new__(cls, (tuple(positions), tuple(action_codes)))


@dataclass(frozen=True)
class EnvConfig:
    stack: FocalStack
    max_steps: int = 20
    success_ratio: float = 0.9
    reward_coeff: float = 10.0
    bonus_magnitude: float = 100.0
    net_input_size: int = 64

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be positive, got {self.max_steps}")
        if not 0.0 < self.success_ratio < 1.0:
            raise ValueError(f"success_ratio must be in (0, 1), got {self.success_ratio}")
        if self.bonus_magnitude <= 0 or self.reward_coeff < 0:
            raise ValueError("bonus_magnitude must be positive and reward_coeff non-negative")
        if self.net_input_size < 16:
            raise ValueError(f"net_input_size too small: {self.net_input_size}")


@dataclass(frozen=True)
class Transition:
    state: StateSeq
    action: Action
    reward: float
    next_state: StateSeq
    done: bool
    outcome: EpisodeOutcome


def is_success(cur_focus_norm: float, cfg: EnvConfig) -> bool:
    """Sharp enough to stop: normalized focus at or above the threshold."""
    return cur_focus_norm >= cfg.success_ratio


def reward(cur_focus_norm: float, outcome: EpisodeOutcome, cfg: EnvConfig) -> float:
    """Shaping plus terminal bonus for one transition."""
    if not 0.0 <= cur_focus_norm <= 1.0:
        raise ValueError(f"normalized focus {cur_focus_norm} outside [0, 1]")
    shaped = cfg.reward_coeff * (cur_focus_norm - 1.0)
    if outcome is EpisodeOutcome.SUCCESS_TERMINATE:
        return shaped + cfg.bonus_magnitude
    if outcome.is_failure:
        return shaped - cfg.bonus_magnitude
    return shaped


class AutofocusEnv:
    """Stateful episode runner; one instance drives one episode at a time.

    `copy.copy(env)` gives a second runner over the same frames: `net_frames`
    is read-only, `frame_ids` is a tuple, and every episode field is an
    immutable value that `reset_at` and `step` rebind, so neither copy's
    episodes touch the other.
    """

    # Without slots, `copy.copy` reads the instance `__dict__`, and on CPython
    # 3.11 every later attribute read of the original, in `step` too, is slower.
    __slots__ = ("cfg", "normalized_curve", "n_positions", "_index_steps", "net_frames",
                 "frame_ids", "_index", "_steps", "_outcome", "_state")

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        stack = cfg.stack
        if stack.focus_max <= 0:
            raise ValueError("stack focus curve must have a positive maximum")
        self.normalized_curve = stack.focus_values / stack.focus_max
        self.n_positions = len(stack)
        # Index displacement of each action; deltas must land on the grid.
        self._index_steps: dict[Action, int] = {}
        for act, delta in ACTION_DELTAS_RAD.items():
            steps = delta / stack.spacing
            if abs(steps - round(steps)) > 1e-6:
                raise ValueError(
                    f"action delta {delta} rad is not a whole number of {stack.spacing} rad steps"
                )
            self._index_steps[act] = int(round(steps))
        # The network input of every position, resized once per distinct
        # stack frame; states name their frames by row.
        size = cfg.net_input_size
        frames = self.net_frames = np.empty((self.n_positions, size, size), dtype=np.float32)
        first_row: dict[object, int] = {}
        for i, frame in enumerate(stack.frames):
            row = first_row.setdefault(frame, i)
            frames[i] = frames[row] if row < i else resize_bilinear(frame, size, size).pixels
        frames.flags.writeable = False
        # Mirrored positions can differ in the last bits of σ yet resize to
        # the same bytes; ids follow the bytes, so equal ids mean equal input.
        first_id: dict[bytes, int] = {}
        self.frame_ids = tuple(first_id.setdefault(row.tobytes(), i)
                               for i, row in enumerate(frames))
        self._index = 0
        self._steps = 0
        self._outcome = EpisodeOutcome.RUNNING
        self._state: StateSeq | None = None

    # -- episode control -------------------------------------------------

    def reset(self, rng: np.random.Generator) -> StateSeq:
        """Start a fresh episode at a uniformly drawn stack index."""
        return self.reset_at(int(rng.integers(self.n_positions)))

    def reset_at(self, index: int) -> StateSeq:
        """Start a fresh episode at a chosen stack index."""
        if not 0 <= index < self.n_positions:
            raise ValueError(f"start index {index} outside [0, {self.n_positions})")
        self._index = index
        self._steps = 0
        self._outcome = EpisodeOutcome.RUNNING
        self._state = StateSeq(
            positions=(index, index, index),
            action_codes=(NULL_ACTION_CODE, NULL_ACTION_CODE, NULL_ACTION_CODE),
        )
        return self._state

    def seek(self, index: int, steps_taken: int) -> StateSeq:
        """Reset, then pretend `steps_taken` actions already happened.

        Exists so exact solvers and exhaustive checks can probe the
        transition function from any (index, step-count) decision point.
        """
        if not 0 <= steps_taken < self.cfg.max_steps:
            raise ValueError(f"steps_taken {steps_taken} outside [0, {self.cfg.max_steps})")
        state = self.reset_at(index)
        self._steps = steps_taken
        return state

    def step(self, action: Action | int) -> Transition:
        """Execute one action and return the transition."""
        if self._state is None:
            raise RuntimeError("call reset() before step()")
        if self._outcome.is_terminal:
            raise RuntimeError(f"episode already finished with {self._outcome.value}")
        act = Action(int(action))  # raises ValueError for NULL_ACTION_CODE etc.

        self._steps += 1
        outcome = EpisodeOutcome.RUNNING
        if act is Action.TERMINATE:
            if is_success(float(self.normalized_curve[self._index]), self.cfg):
                outcome = EpisodeOutcome.SUCCESS_TERMINATE
            else:
                outcome = EpisodeOutcome.FAIL_TERMINATE_BLUR
        else:
            target = self._index + self._index_steps[act]
            if not 0 <= target < self.n_positions:
                # Illegal move: the stage stays put and the episode fails,
                # regardless of how many steps were left.
                outcome = EpisodeOutcome.FAIL_OUT_OF_RANGE
            else:
                self._index = target
                if self._steps >= self.cfg.max_steps:
                    outcome = EpisodeOutcome.FAIL_MAX_STEPS

        focus_now = float(self.normalized_curve[self._index])
        step_reward = reward(focus_now, outcome, self.cfg)
        prev_state = self._state
        next_state = StateSeq(
            positions=(prev_state.positions[1], prev_state.positions[2], self._index),
            action_codes=(prev_state.action_codes[1], prev_state.action_codes[2], int(act)),
        )
        self._state = next_state
        self._outcome = outcome
        return Transition(
            state=prev_state,
            action=act,
            reward=step_reward,
            next_state=next_state,
            done=outcome.is_terminal,
            outcome=outcome,
        )

    # -- inspection ------------------------------------------------------

    @property
    def position_index(self) -> int:
        return self._index

    @property
    def steps_taken(self) -> int:
        return self._steps

    @property
    def outcome(self) -> EpisodeOutcome:
        return self._outcome

    @property
    def done(self) -> bool:
        return self._outcome.is_terminal

    @property
    def success_region(self) -> np.ndarray:
        """Indices whose normalized focus meets the success threshold."""
        return np.where(self.normalized_curve >= self.cfg.success_ratio)[0]

