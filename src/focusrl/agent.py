"""DQN training and evaluation for the focus-control environment.

DQN: FIFO replay, epsilon-greedy behavior with a linear schedule, a
hard-synced target network, and mean-squared error on the Bellman targets
r + gamma * min(max_a Q(s', a; target), bonus); no return exceeds the
success bonus, so neither may a bootstrapped value.  The learner runs the
network with batch renormalization, so the Q-values it fits are the ones
that act, bootstrap and evaluate (see `net.forward_batch`).  One gradient
step runs per environment step once the buffer holds enough transitions.
Everything is driven by a single RNG stream, so a fixed seed reproduces
logs, checkpoints, and reports bit for bit.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from focusrl.env import ACTION_HISTORY, Action, AutofocusEnv, EpisodeOutcome, StateSeq, Transition
from focusrl.net import (
    Mode,
    NetArch,
    Params,
    atomic_open,
    backward_batch,
    copy_params,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
    states_to_batch,
)

HISTOGRAM_BUCKETS = 10
LOG_HEADER = ("timestep", "loss", "epsilon", "eval_accuracy", "eval_avg_steps")


@dataclass(frozen=True)
class Hyperparams:
    total_timesteps: int
    # 0.9, not 0.99: at the peak Q*(terminate) = 100 while a fine move
    # bootstraps to at most gamma * 100, so gamma sets the margin the
    # greedy choice rests on (1 at 0.99, 10 at 0.9).
    gamma: float = 0.9
    epsilon_start: float = 1.0
    epsilon_end: float = 0.1
    epsilon_fraction: float = 0.5
    replay_capacity: int = 10_000
    batch_size: int = 32
    learning_rate: float = 1e-4
    target_sync: int = 1_000
    learn_start: int = 1_000
    eval_interval: int = 1_000

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        for name in ("epsilon_start", "epsilon_end"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not 0.0 < self.epsilon_fraction <= 1.0:
            raise ValueError(f"epsilon_fraction must be in (0, 1], got {self.epsilon_fraction}")
        if self.replay_capacity < self.batch_size:
            raise ValueError("replay capacity must be at least the batch size")
        if min(self.total_timesteps, self.batch_size, self.target_sync,
               self.learn_start, self.eval_interval) < 1:
            raise ValueError("counts and intervals must be positive")


def epsilon_schedule(timestep: int, hyper: Hyperparams) -> float:
    """Exploration rate before the action at `timestep` (0-based).

    Linear from start to end over the first `epsilon_fraction` of training,
    then flat at the end value.
    """
    decay_steps = max(1, int(hyper.total_timesteps * hyper.epsilon_fraction))
    if timestep >= decay_steps:
        return hyper.epsilon_end
    frac = timestep / decay_steps
    return hyper.epsilon_start + (hyper.epsilon_end - hyper.epsilon_start) * frac


class Batch(NamedTuple):
    """Transitions as columns; a state row is its positions, then its action codes."""

    states: np.ndarray  # (n, 2, history) int
    actions: np.ndarray  # (n,) int
    rewards: np.ndarray  # (n,) float64
    next_states: np.ndarray  # (n, 2, history) int
    done: np.ndarray  # (n,) bool


class ReplayBuffer:
    """Fixed-capacity FIFO ring of transitions, held as preallocated columns."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        states = (capacity, 2, ACTION_HISTORY)
        self._columns = Batch(np.zeros(states, np.intp), np.zeros(capacity, np.intp),
                              np.zeros(capacity), np.zeros(states, np.intp),
                              np.zeros(capacity, bool))
        self._next = 0
        self._size = 0
        self.inserted = 0

    def __len__(self) -> int:
        return self._size

    def push(self, transition: Transition) -> None:
        i = self._next
        cols = self._columns
        cols.states[i] = transition.state
        cols.actions[i] = transition.action
        cols.rewards[i] = transition.reward
        cols.next_states[i] = transition.next_state
        cols.done[i] = transition.done
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        self.inserted += 1

    def rows(self, idx: np.ndarray) -> Batch:
        """The transitions in ring slots `idx`, in that order."""
        return Batch(*(column[idx] for column in self._columns))

    def sample(self, rng: np.random.Generator, batch_size: int) -> Batch:
        """Uniform sample with replacement."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        return self.rows(rng.integers(0, self._size, size=batch_size))


class Adam:
    """Standard Adam with bias correction, updating one flat vector in place.

    The two moments and two scratch buffers are vectors the size of the
    parameters, so a step allocates nothing; the operations and their order
    are those of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, and
    p -= lr m_hat / (sqrt(v_hat) + eps).  An element whose gradient has
    always been 0, such as a running statistic, steps by exactly 0.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._state: tuple[np.ndarray, ...] | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One update of the 1-D `params` (e.g. a `Params.flat`) by `grads`."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        if self._state is None:
            self._state = tuple(np.zeros_like(params) for _ in range(4))
        m, v, step, denom = self._state
        m *= b1
        np.multiply(1.0 - b1, grads, out=step)
        m += step
        v *= b2
        np.multiply(1.0 - b2, grads, out=step)
        step *= grads
        v += step
        np.divide(m, 1.0 - b1**self.t, out=step)
        np.divide(v, 1.0 - b2**self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.multiply(self.lr, step, out=step)
        step /= denom
        params -= step


def select_action(
    params: dict[str, np.ndarray],
    arch: NetArch,
    frames: np.ndarray,
    state: StateSeq,
    epsilon: float,
    rng: np.random.Generator,
) -> Action:
    """Epsilon-greedy over Q-values; greedy ties go to the lowest code."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if rng.uniform() < epsilon:
        return Action(int(rng.integers(len(Action))))
    return greedy_policy(params, arch, frames)(state)


class TargetValueCache:
    """Memo of max_a Q(s', a'; target) for one target-network period.

    Replay resamples the same states constantly while the target network
    is frozen.  A state is keyed by its six integers, positions then action
    codes, as a tuple.  Must be cleared at every target sync.
    """

    def __init__(self):
        self._values: dict[tuple[int, ...], float] = {}

    def get(self, state: tuple[int, ...]) -> float | None:
        return self._values.get(state)

    def put(self, state: tuple[int, ...], value: float) -> None:
        self._values[state] = value

    def clear(self) -> None:
        self._values.clear()

    def __len__(self) -> int:
        return len(self._values)


def max_target_values(
    target_params: dict[str, np.ndarray],
    arch: NetArch,
    frames: np.ndarray,
    states: Sequence[StateSeq] | np.ndarray,
    cache: TargetValueCache | None = None,
) -> np.ndarray:
    """max_a Q(s, a; target) for each state, through the cache when given.

    All lookups come first, then one forward over every miss (repeats
    included), then the misses are stored in order.
    """
    rows = np.asarray(states, dtype=np.intp).reshape(len(states), 2 * arch.history)
    keys = list(map(tuple, rows.tolist()))
    hits = [None if cache is None else cache.get(key) for key in keys]
    misses = [i for i, hit in enumerate(hits) if hit is None]
    values = np.array([np.nan if hit is None else hit for hit in hits], dtype=np.float64)
    if misses:
        x, onehot = states_to_batch(rows[misses], frames, arch)
        q, _ = forward_batch(target_params, arch, x, onehot, Mode.INFER)
        best = q.max(axis=1).tolist()
        values[misses] = best
        if cache is not None:
            for i, value in zip(misses, best):
                cache.put(keys[i], value)
    return values


def bellman_target(
    transition: Transition,
    target_params: dict[str, np.ndarray],
    arch: NetArch,
    frames: np.ndarray,
    gamma: float,
    cache: TargetValueCache | None = None,
    value_cap: float = np.inf,
) -> float:
    """r if terminal, else r + gamma * min(max_a Q(s', a; target), value_cap)."""
    if transition.done:
        return float(transition.reward)
    value = max_target_values(target_params, arch, frames, [transition.next_state], cache)[0]
    return float(transition.reward) + gamma * min(float(value), value_cap)


def train_step(
    params: Params,
    target_params: Params,
    arch: NetArch,
    frames: np.ndarray,
    batch: Batch,
    optimizer: Adam,
    gamma: float,
    cache: TargetValueCache | None = None,
    value_cap: float = np.inf,
) -> float:
    """One DQN gradient step; returns the pre-update loss.

    The loss is the mean squared error between Q(s, a) and the target: r
    for a terminal transition, else r + gamma * min(max_a Q(s', a; target),
    value_cap).  Squared error fits the mean target of an input; start
    states equally far on either side of the sharpest frame are the same
    image, and the mean is what ranks their moves correctly.  Targets are
    constants: the gradient flows only through Q(s, a) at the taken
    actions, computed with batch renormalization.
    """
    n = len(batch.actions)
    if n == 0:
        raise ValueError("batch must not be empty")
    targets = batch.rewards.astype(np.float64)
    boot = np.flatnonzero(~batch.done)
    if boot.size:
        values = max_target_values(target_params, arch, frames, batch.next_states[boot], cache)
        np.minimum(values, value_cap, out=values)
        targets[boot] += gamma * values

    x, onehot = states_to_batch(batch.states, frames, arch)
    q, fwd_cache = forward_batch(params, arch, x, onehot, Mode.TRAIN)
    rows = np.arange(n)
    diff = q[rows, batch.actions].astype(np.float64) - targets
    loss = float(np.mean(diff * diff))
    if not np.isfinite(loss):
        raise RuntimeError(f"non-finite training loss {loss}; diverged")
    dq = np.zeros_like(q)
    dq[rows, batch.actions] = (2.0 / n) * diff
    grads = backward_batch(params, arch, fwd_cache, dq)
    optimizer.step(params.flat, grads.flat)
    return loss


@dataclass(frozen=True)
class EvalReport:
    episodes: int
    accuracy: float
    avg_steps: float
    outcome_counts: dict[str, int]
    histogram: tuple[int, ...]

    def __post_init__(self):
        if sum(self.histogram) != self.episodes:
            raise ValueError("histogram buckets must sum to the episode count")

    @classmethod
    def from_episodes(cls, episodes: Sequence[tuple[EpisodeOutcome, int, float]]) -> "EvalReport":
        """Build from (final outcome, action count, final normalized focus)."""
        if not episodes:
            raise ValueError("need at least one episode")
        counts = {outcome.value: 0 for outcome in EpisodeOutcome if outcome.is_terminal}
        histogram = [0] * HISTOGRAM_BUCKETS
        successes = 0
        total_steps = 0
        for outcome, steps, focus in episodes:
            if not outcome.is_terminal:
                raise ValueError("evaluation episodes must run to termination")
            counts[outcome.value] += 1
            successes += outcome is EpisodeOutcome.SUCCESS_TERMINATE
            total_steps += steps
            bucket = min(int(focus * HISTOGRAM_BUCKETS), HISTOGRAM_BUCKETS - 1)
            histogram[bucket] += 1
        return cls(
            episodes=len(episodes),
            accuracy=successes / len(episodes),
            avg_steps=total_steps / len(episodes),
            outcome_counts=counts,
            histogram=tuple(histogram),
        )

    def to_dict(self) -> dict:
        return {
            "episodes": self.episodes,
            "accuracy": self.accuracy,
            "avg_steps": self.avg_steps,
            "outcome_counts": dict(sorted(self.outcome_counts.items())),
            "histogram": list(self.histogram),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvalReport":
        return cls(
            episodes=data["episodes"],
            accuracy=data["accuracy"],
            avg_steps=data["avg_steps"],
            outcome_counts=dict(data["outcome_counts"]),
            histogram=tuple(data["histogram"]),
        )

    def save(self, path: str | Path) -> None:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


GreedyPolicy = Callable[[StateSeq], Action]


def greedy_policy(params: dict[str, np.ndarray], arch: NetArch, frames: np.ndarray) -> GreedyPolicy:
    def policy(state: StateSeq) -> Action:
        x, onehot = states_to_batch([state], frames, arch)
        q, _ = forward_batch(params, arch, x, onehot, Mode.INFER)
        return Action(int(np.argmax(q[0])))

    return policy


def run_episode(
    env: AutofocusEnv, policy: GreedyPolicy, start_index: int
) -> tuple[EpisodeOutcome, int, float]:
    """Roll one episode from `start_index` to termination.

    Returns (outcome, steps, normalized focus at the final position).
    """
    state = env.reset_at(start_index)
    while not env.done:
        transition = env.step(policy(state))
        state = transition.next_state
    return env.outcome, env.steps_taken, float(env.normalized_curve[env.position_index])


def evaluate(params: dict[str, np.ndarray], arch: NetArch, env: AutofocusEnv) -> EvalReport:
    """Pure-greedy evaluation: one episode from every stack index, in order.

    One forward per distinct network input: states whose positions have
    equal `env.frame_ids` and whose action codes are equal feed the net the
    same bytes, so their greedy action is chosen once per call and reused.
    Never touches parameters or running statistics.
    """
    greedy = greedy_policy(params, arch, env.net_frames)
    ids = env.frame_ids
    chosen: dict[tuple[int, ...], Action] = {}

    def policy(state: StateSeq) -> Action:
        (p0, p1, p2), codes = state
        key = (ids[p0], ids[p1], ids[p2], *codes)
        action = chosen.get(key)
        if action is None:
            action = chosen[key] = greedy(state)
        return action

    return EvalReport.from_episodes(
        [run_episode(env, policy, start) for start in range(env.n_positions)]
    )


def train(
    env: AutofocusEnv,
    hyper: Hyperparams,
    arch: NetArch,
    rng: np.random.Generator,
    out_dir: str | Path,
    resume_from: str | Path | None = None,
    eval_threads: int = 1,
    progress: Callable[[int, float | None], None] | None = None,
) -> tuple[Params, list[dict]]:
    """Run the DQN interaction loop and write logs plus checkpoints.

    Produces `train_log.csv` (one row per evaluation point), a checkpoint
    `ckpt_<timestep>` and matching `eval_<timestep>.json` at every
    evaluation.  Evaluations run serially on a copy of `env` that shares its
    frames, so the training episode in progress is left untouched.
    Resuming restarts from a checkpoint's parameters and step counter with
    a fresh replay buffer.  `eval_threads` must be 1; it remains only so
    existing callers that pass it keep working.
    """
    if eval_threads != 1:
        raise ValueError(f"evaluation runs serially; eval_threads must be 1, got {eval_threads}")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    start_step = 0
    if resume_from is not None:
        params, _, start_step = load_checkpoint(resume_from, expect_arch=arch)
        if start_step >= hyper.total_timesteps:
            raise ValueError(
                f"checkpoint is already at step {start_step} of {hyper.total_timesteps}"
            )
    else:
        params = init_params(arch, rng)
    target_params = copy_params(params)
    target_cache = TargetValueCache()
    optimizer = Adam(hyper.learning_rate)
    buffer = ReplayBuffer(hyper.replay_capacity)
    eval_env = copy.copy(env)

    history: list[dict] = []
    log_path = out_path / "train_log.csv"
    log_mode = "a" if (resume_from is not None and log_path.exists()) else "w"
    with open(log_path, log_mode, newline="", encoding="utf-8") as log_file:
        writer = csv.writer(log_file)
        if log_mode == "w":
            writer.writerow(LOG_HEADER)
        state = env.reset(rng)
        interval_losses: list[float] = []
        for t in range(start_step, hyper.total_timesteps):
            epsilon = epsilon_schedule(t, hyper)
            action = select_action(params, arch, env.net_frames, state, epsilon, rng)
            transition = env.step(action)
            buffer.push(transition)
            state = transition.next_state if not transition.done else env.reset(rng)

            if len(buffer) >= hyper.learn_start:
                batch = buffer.sample(rng, hyper.batch_size)
                loss = train_step(
                    params, target_params, arch, env.net_frames, batch, optimizer, hyper.gamma,
                    target_cache, env.cfg.bonus_magnitude,
                )
                interval_losses.append(loss)

            timestep = t + 1
            if timestep % hyper.target_sync == 0:
                target_params = copy_params(params)
                target_cache.clear()
            if timestep % hyper.eval_interval == 0 or timestep == hyper.total_timesteps:
                report = evaluate(params, arch, eval_env)
                mean_loss = float(np.mean(interval_losses)) if interval_losses else None
                interval_losses = []
                row = {
                    "timestep": timestep,
                    "loss": mean_loss,
                    "epsilon": epsilon,
                    "eval_accuracy": report.accuracy,
                    "eval_avg_steps": report.avg_steps,
                }
                history.append(row)
                writer.writerow(
                    [
                        timestep,
                        "" if mean_loss is None else repr(mean_loss),
                        repr(epsilon),
                        repr(report.accuracy),
                        repr(report.avg_steps),
                    ]
                )
                log_file.flush()
                save_checkpoint(out_path / f"ckpt_{timestep}", params, arch, timestep)
                report.save(out_path / f"eval_{timestep}.json")
                if progress is not None:
                    progress(timestep, report.accuracy)
    return params, history
