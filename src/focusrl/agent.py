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

import csv
from dataclasses import dataclass
import json
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from focusrl.env import Action, AutofocusEnv, EpisodeOutcome, StateSeq, Transition
from focusrl.net import (
    Mode,
    NetArch,
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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
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


class ReplayBuffer:
    """Fixed-capacity FIFO ring of transitions."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: list[Transition | None] = [None] * capacity
        self._next = 0
        self._size = 0
        self.inserted = 0

    def __len__(self) -> int:
        return self._size

    def push(self, transition: Transition) -> None:
        self._items[self._next] = transition
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        self.inserted += 1

    def sample(self, rng: np.random.Generator, batch_size: int) -> list[Transition]:
        """Uniform sample with replacement."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=batch_size)
        return [self._items[i] for i in idx]  # type: ignore[misc]

    def __iter__(self):
        for i in range(self._size):
            yield self._items[i]


class Adam:
    """Standard Adam with bias correction, updating arrays in place.

    Each array keeps its moments and two scratch buffers, so a step
    allocates nothing; the operations and their order are those of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, and
    p -= lr m_hat / (sqrt(v_hat) + eps).
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._state: dict[str, tuple[np.ndarray, ...]] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, grad in grads.items():
            state = self._state.get(name)
            if state is None:
                p = params[name]
                state = self._state[name] = (
                    np.zeros_like(p), np.zeros_like(p), np.empty_like(p), np.empty_like(p)
                )
            m, v, step, denom = state
            m *= b1
            np.multiply(1.0 - b1, grad, out=step)
            m += step
            v *= b2
            np.multiply(1.0 - b2, grad, out=step)
            step *= grad
            v += step
            np.divide(m, 1.0 - b1**self.t, out=step)
            np.divide(v, 1.0 - b2**self.t, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.multiply(self.lr, step, out=step)
            step /= denom
            params[name] -= step


def select_action(
    params: dict[str, np.ndarray],
    arch: NetArch,
    state: StateSeq,
    epsilon: float,
    rng: np.random.Generator,
) -> Action:
    """Epsilon-greedy over Q-values; greedy ties go to the lowest code."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if rng.uniform() < epsilon:
        return Action(int(rng.integers(len(Action))))
    x, onehot = states_to_batch([state], arch)
    q, _ = forward_batch(params, arch, x, onehot, Mode.INFER)
    return Action(int(np.argmax(q[0])))


class TargetValueCache:
    """Memo of max_a Q(s', a'; target) for one target-network period.

    Replay resamples the same states constantly while the target network
    is frozen, and states reference the environment's shared frame cache,
    so object identity plus the action codes is a sound key.  The env
    builds one net frame per position even where the stack shares a frame
    between positions of equal blur: shared net frames would change which
    lookups hit, and a hit reuses a value from another batch's forward,
    which need not match it to the bit.  Must be cleared at every target
    sync.
    """

    def __init__(self):
        self._values: dict[tuple, float] = {}

    @staticmethod
    def key(state: StateSeq) -> tuple:
        frames = state.frames
        return (id(frames[0]), id(frames[1]), id(frames[2]), state.action_codes)

    def get(self, state: StateSeq) -> float | None:
        return self._values.get(self.key(state))

    def put(self, state: StateSeq, value: float) -> None:
        self._values[self.key(state)] = value

    def clear(self) -> None:
        self._values.clear()

    def __len__(self) -> int:
        return len(self._values)


def max_target_values(
    target_params: dict[str, np.ndarray],
    arch: NetArch,
    states: Sequence[StateSeq],
    cache: TargetValueCache | None = None,
) -> np.ndarray:
    """max_a Q(s, a; target) for each state, through the cache when given."""
    values = np.empty(len(states), dtype=np.float64)
    misses: list[int] = []
    if cache is None:
        misses = list(range(len(states)))
    else:
        for i, state in enumerate(states):
            hit = cache.get(state)
            if hit is None:
                misses.append(i)
            else:
                values[i] = hit
    if misses:
        x, onehot = states_to_batch([states[i] for i in misses], arch)
        q, _ = forward_batch(target_params, arch, x, onehot, Mode.INFER)
        best = q.max(axis=1)
        for j, i in enumerate(misses):
            values[i] = float(best[j])
            if cache is not None:
                cache.put(states[i], float(best[j]))
    return values


def bellman_target(
    transition: Transition,
    target_params: dict[str, np.ndarray],
    arch: NetArch,
    gamma: float,
    cache: TargetValueCache | None = None,
    value_cap: float = np.inf,
) -> float:
    """r if terminal, else r + gamma * min(max_a Q(s', a; target), value_cap)."""
    if transition.done:
        return float(transition.reward)
    value = max_target_values(target_params, arch, [transition.next_state], cache)[0]
    return float(transition.reward) + gamma * min(float(value), value_cap)


def train_step(
    params: dict[str, np.ndarray],
    target_params: dict[str, np.ndarray],
    arch: NetArch,
    batch: Sequence[Transition],
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
    if not batch:
        raise ValueError("batch must not be empty")
    n = len(batch)
    targets = np.empty(n, dtype=np.float64)
    boot: list[int] = []
    for i, tr in enumerate(batch):
        targets[i] = tr.reward
        if not tr.done:
            boot.append(i)
    if boot:
        values = max_target_values(
            target_params, arch, [batch[i].next_state for i in boot], cache
        )
        np.minimum(values, value_cap, out=values)
        for j, i in enumerate(boot):
            targets[i] += gamma * values[j]

    x, onehot = states_to_batch([tr.state for tr in batch], arch)
    q, fwd_cache = forward_batch(
        params, arch, x, onehot, Mode.TRAIN, update_running=True, want_cache=True,
        batch_stats=False,
    )
    actions = np.fromiter((int(tr.action) for tr in batch), dtype=np.intp, count=n)
    rows = np.arange(n)
    diff = q[rows, actions].astype(np.float64) - targets
    loss = float(np.mean(diff * diff))
    if not np.isfinite(loss):
        raise RuntimeError(f"non-finite training loss {loss}; diverged")
    dq = np.zeros_like(q)
    dq[rows, actions] = (2.0 / n) * diff
    grads = backward_batch(params, arch, fwd_cache, dq)
    optimizer.step(params, grads)
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


def greedy_policy(params: dict[str, np.ndarray], arch: NetArch) -> GreedyPolicy:
    def policy(state: StateSeq) -> Action:
        x, onehot = states_to_batch([state], arch)
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

    Never touches parameters or running statistics.
    """
    policy = greedy_policy(params, arch)
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
) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Run the DQN interaction loop and write logs plus checkpoints.

    Produces `train_log.csv` (one row per evaluation point), a checkpoint
    `ckpt_<timestep>` and matching `eval_<timestep>.json` at every
    evaluation.  Evaluations run serially on a second env over the same
    stack, so the training episode in progress is left untouched.
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
        params, ckpt_arch, start_step = load_checkpoint(resume_from, expect_arch=arch)
        if start_step >= hyper.total_timesteps:
            raise ValueError(
                f"checkpoint is already at step {start_step} of {hyper.total_timesteps}"
            )
    else:
        params = init_params(arch, rng)
    target_params = copy_params(params)
    target_cache = TargetValueCache()
    optimizer = Adam(hyper.learning_rate, hyper.adam_beta1, hyper.adam_beta2, hyper.adam_eps)
    buffer = ReplayBuffer(hyper.replay_capacity)
    eval_env = AutofocusEnv(env.cfg)

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
            action = select_action(params, arch, state, epsilon, rng)
            transition = env.step(action)
            buffer.push(transition)
            state = transition.next_state if not transition.done else env.reset(rng)

            if len(buffer) >= hyper.learn_start:
                batch = buffer.sample(rng, hyper.batch_size)
                loss = train_step(
                    params, target_params, arch, batch, optimizer, hyper.gamma, target_cache,
                    env.cfg.bonus_magnitude,
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
