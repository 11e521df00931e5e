"""DQN training loop pieces: schedule, replay, targets, evaluation."""

import dataclasses
import json
from pathlib import Path
import tracemalloc

import numpy as np
import pytest

from focusrl.agent import (
    HISTOGRAM_BUCKETS,
    LOG_HEADER,
    Adam,
    Batch,
    EvalReport,
    Hyperparams,
    ReplayBuffer,
    TargetValueCache,
    bellman_target,
    epsilon_schedule,
    evaluate,
    greedy_policy,
    max_target_values,
    run_episode,
    select_action,
    train,
    train_step,
)
from focusrl.env import (
    NULL_ACTION_CODE,
    Action,
    AutofocusEnv,
    EnvConfig,
    EpisodeOutcome,
    StateSeq,
    Transition,
)
from focusrl import agent as agent_module, net
from focusrl.imaging import resize_bilinear
from focusrl.net import (
    REDUCED_CHECK_ARCH,
    Mode,
    NetArch,
    backward_batch,
    copy_params,
    forward_batch,
    init_params,
    learnable_names,
    load_checkpoint,
    states_to_batch,
)

ARCH = REDUCED_CHECK_ARCH
COMMITTED_TINY = [Path(__file__).parents[1] / "artifacts" / f"tiny_s{seed}" / "ckpt_20000"
                  for seed in (7, 8, 9)]


@pytest.fixture
def env16(tiny_stack):
    return AutofocusEnv(EnvConfig(stack=tiny_stack, net_input_size=16))


@pytest.fixture
def params16(rng):
    return init_params(ARCH, np.random.default_rng(5))


def _pinned_q_params(q_values):
    """Parameters that make every forward pass return exactly `q_values`."""
    params = init_params(ARCH, np.random.default_rng(0))
    for name, arr in params.items():
        if name.endswith("_rvar"):
            arr[...] = 1.0
        else:
            arr[...] = 0.0
    params["head_b"][...] = np.asarray(q_values, dtype=np.float32)
    return params


def _as_batch(transitions):
    """The transitions as replay columns, in order."""
    buffer = ReplayBuffer(len(transitions))
    for tr in transitions:
        buffer.push(tr)
    return buffer.rows(np.arange(len(transitions)))


def _fill_buffer(env, rng, buffer_or_list, steps):
    state = env.reset(rng)
    for _ in range(steps):
        action = Action(int(rng.integers(5)))
        tr = env.step(action)
        buffer_or_list.append(tr) if isinstance(buffer_or_list, list) else buffer_or_list.push(tr)
        state = tr.next_state if not tr.done else env.reset(rng)
    return state


class TestHyperparams:
    def test_defaults(self):
        hyper = Hyperparams(total_timesteps=100_000)
        assert hyper.gamma == 0.9
        assert hyper.epsilon_start == 1.0
        assert hyper.epsilon_end == 0.1
        assert hyper.replay_capacity == 10_000
        assert hyper.batch_size == 32
        assert hyper.learning_rate == 1e-4
        assert hyper.target_sync == 1_000
        assert hyper.learn_start == 1_000
        assert hyper.eval_interval == 1_000

    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(total_timesteps=100, gamma=1.0)
        with pytest.raises(ValueError):
            Hyperparams(total_timesteps=100, gamma=0.0)
        with pytest.raises(ValueError):
            Hyperparams(total_timesteps=100, epsilon_start=1.5)
        with pytest.raises(ValueError):
            Hyperparams(total_timesteps=100, epsilon_fraction=0.0)
        with pytest.raises(ValueError):
            Hyperparams(total_timesteps=100, replay_capacity=8, batch_size=16)
        with pytest.raises(ValueError):
            Hyperparams(total_timesteps=0)

    @pytest.mark.parametrize("lr", [0.0, -1e-4, float("nan"), float("inf")])
    def test_rejects_a_learning_rate_that_is_not_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            Hyperparams(total_timesteps=100, learning_rate=lr)

    @pytest.mark.parametrize("field", ["adam_beta1", "adam_beta2", "adam_eps"])
    def test_adam_constants_are_not_settings(self, field):
        # The learner's Adam runs at the constants `Adam` defaults to.
        with pytest.raises(TypeError):
            Hyperparams(total_timesteps=100, **{field: 0.5})


class TestEpsilonSchedule:
    def test_pinned_points_100k(self):
        hyper = Hyperparams(total_timesteps=100_000)
        assert epsilon_schedule(0, hyper) == 1.0
        assert epsilon_schedule(25_000, hyper) == pytest.approx(0.55)
        assert epsilon_schedule(50_000, hyper) == 0.1
        assert epsilon_schedule(99_999, hyper) == 0.1

    def test_floor_is_exact(self):
        hyper = Hyperparams(total_timesteps=20_000)
        assert epsilon_schedule(10_000, hyper) == hyper.epsilon_end
        assert epsilon_schedule(19_999, hyper) == hyper.epsilon_end

    def test_monotone_and_bounded(self):
        hyper = Hyperparams(total_timesteps=4_000)
        values = [epsilon_schedule(t, hyper) for t in range(4_000)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(hyper.epsilon_end <= v <= hyper.epsilon_start for v in values)


class TestReplayBuffer:
    @staticmethod
    def _sentinel(i):
        return Transition(
            state=StateSeq(positions=(i, i, i), action_codes=(NULL_ACTION_CODE,) * 3),
            action=Action.TERMINATE,
            reward=float(i),
            next_state=StateSeq(positions=(i, i, i), action_codes=(NULL_ACTION_CODE,) * 3),
            done=True,
            outcome=EpisodeOutcome.SUCCESS_TERMINATE,
        )

    def test_size_capped_at_capacity(self):
        buf = ReplayBuffer(4)
        for i in range(9):
            buf.push(self._sentinel(i))
        assert len(buf) == 4
        assert buf.inserted == 9

    def test_fifo_eviction(self):
        buf = ReplayBuffer(4)
        for i in range(6):
            buf.push(self._sentinel(i))
        held = sorted(buf.rows(np.arange(len(buf))).rewards.tolist())
        assert held == [2.0, 3.0, 4.0, 5.0]

    def test_sample_draws_only_held_items(self, rng):
        buf = ReplayBuffer(8)
        for i in range(20):
            buf.push(self._sentinel(i))
        batch = buf.sample(rng, 64)
        assert all(len(column) == 64 for column in batch)
        assert np.all((12 <= batch.rewards) & (batch.rewards < 20))
        # Every column of a row comes from the same transition.
        np.testing.assert_array_equal(batch.states[:, 0, 0], batch.rewards.astype(int))

    def test_sample_is_roughly_uniform(self):
        buf = ReplayBuffer(4)
        for i in range(4):
            buf.push(self._sentinel(i))
        rng = np.random.default_rng(0)
        counts = np.bincount(buf.sample(rng, 8_000).rewards.astype(int), minlength=4)
        assert counts.min() > 1_700 and counts.max() < 2_300

    def test_rows_round_trip_a_transition(self, env16):
        env16.reset_at(5)
        tr = env16.step(Action.FINE_POSITIVE)
        batch = _as_batch([tr])
        assert batch.states.tolist() == [list(map(list, tr.state))]
        assert batch.next_states.tolist() == [list(map(list, tr.next_state))]
        assert batch.actions.tolist() == [int(tr.action)]
        assert batch.rewards.tolist() == [tr.reward]
        assert batch.done.tolist() == [tr.done]


class _ListRing:
    """The list-of-transitions ring that the column buffer replaced."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._items = [None] * capacity
        self._next = 0
        self._size = 0

    def push(self, transition):
        self._items[self._next] = transition
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, rng, batch_size):
        idx = rng.integers(0, self._size, size=batch_size)
        return [self._items[i] for i in idx]


def _copy_loop_batch(states, frames, arch):
    """The per-state copy loop that the gather in `states_to_batch` replaced.

    `frames[p]` is the float32 network frame of position p.
    """
    size = arch.input_size
    x = np.empty((len(states), arch.history, size, size), dtype=np.float32)
    onehot = np.zeros((len(states), arch.onehot_len), dtype=np.float32)
    for b, state in enumerate(states):
        for k, position in enumerate(state.positions):
            x[b, k] = frames[position]
        for k, code in enumerate(state.action_codes):
            onehot[b, k * arch.action_vocab + code] = 1.0
    return x, onehot


class TestColumnsMatchTheObjectReferences:
    def _play(self, env, steps, seed):
        transitions = []
        _fill_buffer(env, np.random.default_rng(seed), transitions, steps)
        return transitions

    def test_buffer_draws_the_list_ring_rows_and_leaves_the_rng_alike(self, env16):
        transitions = self._play(env16, 300, seed=21)
        columns, ring = ReplayBuffer(64), _ListRing(64)
        rng_columns, rng_ring = np.random.default_rng(8), np.random.default_rng(8)
        for t, tr in enumerate(transitions):
            columns.push(tr)
            ring.push(tr)
            if t % 7 == 0:
                got = columns.sample(rng_columns, 32)
                want = _as_batch(ring.sample(rng_ring, 32))
                for name, a, b in zip(Batch._fields, got, want):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (t, name)
        assert rng_columns.bit_generator.state == rng_ring.bit_generator.state

    @pytest.mark.parametrize("which,size", [("tiny_stack", 32), ("exp1_stack", 64)])
    def test_gather_equals_the_copy_loop_on_replay_batches(self, request, which, size):
        stack = request.getfixturevalue(which)
        env = AutofocusEnv(EnvConfig(stack=stack, net_input_size=size))
        arch = NetArch(input_size=size)
        transitions = self._play(env, 400, seed=22)
        columns, ring = ReplayBuffer(400), _ListRing(400)
        for tr in transitions:
            columns.push(tr)
            ring.push(tr)
        # One frame per position, as the env built them before `net_frames`.
        per_position = [
            resize_bilinear(frame, size, size).pixels.astype(np.float32) for frame in stack.frames
        ]
        rng_columns, rng_ring = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(5):
            batch = columns.sample(rng_columns, 32)
            reference = ring.sample(rng_ring, 32)
            for states, old_states in ((batch.states, [tr.state for tr in reference]),
                                       (batch.next_states, [tr.next_state for tr in reference])):
                x, onehot = states_to_batch(states, env.net_frames, arch)
                want_x, want_onehot = _copy_loop_batch(old_states, per_position, arch)
                assert x.dtype == want_x.dtype and x.tobytes() == want_x.tobytes()
                assert onehot.dtype == want_onehot.dtype
                assert onehot.tobytes() == want_onehot.tobytes()


class TestAdam:
    def test_matches_reference_formula(self):
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        opt = Adam(lr, b1, b2, eps)
        params = np.array([1.0, -2.0], dtype=np.float64)
        ref = params.copy()
        m = np.zeros(2)
        v = np.zeros(2)
        rng = np.random.default_rng(3)
        for t in range(1, 4):
            grad = rng.standard_normal(2)
            opt.step(params, grad.copy())
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            ref -= lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_allclose(params, ref, rtol=1e-12)

    def test_float32_steps_match_the_formula_bit_for_bit(self):
        # The learner's case: one float32 vector, the formula written with
        # fresh temporaries per element, compared by bytes.  Parameters
        # start at zero so that they are the size of the steps, and a last
        # bit of a step does not round away.
        lr, b1, b2, eps = 1e-4, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(4)
        size = 7 * 5 + 5 + 3 * 2 * 5 * 5
        params = np.zeros(size, dtype=np.float32)
        ref = params.copy()
        m = np.zeros_like(params)
        v = np.zeros_like(params)
        opt = Adam(lr, b1, b2, eps)
        for t in range(1, 6):
            grad = rng.standard_normal(size).astype(np.float32)
            opt.step(params, grad.copy())
            for i, g in enumerate(grad):
                m[i] *= b1
                m[i] += (1.0 - b1) * g
                v[i] *= b2
                v[i] += (1.0 - b2) * g * g
                m_hat = m[i] / (1.0 - b1**t)
                v_hat = v[i] / (1.0 - b2**t)
                ref[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            assert params.tobytes() == ref.tobytes(), t

    def test_zero_gradient_moves_nothing(self):
        # Slots whose gradient is always 0 (running statistics, padding
        # rows) keep their bits, -0.0 and subnormals included, while the
        # rest of the vector steps.
        opt = Adam(1e-3)
        params = np.array([5.0, -0.0, 1e-40, 3.0], dtype=np.float32)
        before = params.copy()
        for _ in range(3):
            opt.step(params, np.array([0.0, 0.0, 0.0, 1.0], dtype=np.float32))
        assert params[:3].tobytes() == before[:3].tobytes()
        assert params[3] < before[3]


class TestSelectAction:
    def test_greedy_argmax(self, env16):
        params = _pinned_q_params([1.0, 5.0, 2.0, 0.0, 0.0])
        state = env16.reset_at(0)
        rng = np.random.default_rng(0)
        assert select_action(params, ARCH, env16.net_frames, state, 0.0, rng) == Action.FINE_POSITIVE

    def test_tie_breaks_to_lowest_code(self, env16):
        params = _pinned_q_params([3.0, 3.0, 0.0, 0.0, 0.0])
        state = env16.reset_at(0)
        rng = np.random.default_rng(0)
        assert select_action(params, ARCH, env16.net_frames, state, 0.0, rng) == Action.COARSE_POSITIVE

    def test_uniform_at_full_epsilon(self, env16, params16):
        state = env16.reset_at(0)
        rng = np.random.default_rng(7)
        counts = np.zeros(5)
        for _ in range(10_000):
            counts[int(select_action(params16, ARCH, env16.net_frames, state, 1.0, rng))] += 1
        assert counts.min() >= 1_800
        assert counts.max() <= 2_200

    def test_rejects_bad_epsilon(self, env16, params16):
        state = env16.reset_at(0)
        with pytest.raises(ValueError):
            select_action(params16, ARCH, env16.net_frames, state, 1.5, np.random.default_rng(0))


class TestBellmanTarget:
    def test_terminal_is_raw_reward(self, env16, params16):
        peak = int(np.argmax(env16.normalized_curve))
        env16.reset_at(peak)
        tr = env16.step(Action.TERMINATE)
        assert tr.done
        assert bellman_target(tr, params16, ARCH, env16.net_frames, gamma=0.99) == pytest.approx(100.0)

    def test_bootstrap_arithmetic(self, env16):
        env16.reset_at(5)
        tr = env16.step(Action.FINE_POSITIVE)
        assert not tr.done
        params = _pinned_q_params([50.0, 10.0, 0.0, 0.0, 0.0])
        expected = tr.reward + 0.99 * 50.0
        assert bellman_target(tr, params, ARCH, env16.net_frames, gamma=0.99) == pytest.approx(expected, abs=1e-5)
        # the spec's worked example: r = -2, max Q' = 50 gives 47.5
        assert -2.0 + 0.99 * 50.0 == pytest.approx(47.5)

    def test_cache_does_not_change_result(self, env16, params16):
        env16.reset_at(3)
        tr = env16.step(Action.COARSE_POSITIVE)
        cache = TargetValueCache()
        frames = env16.net_frames
        a = bellman_target(tr, params16, ARCH, frames, 0.9, cache)
        b = bellman_target(tr, params16, ARCH, frames, 0.9, cache)
        c = bellman_target(tr, params16, ARCH, frames, 0.9)
        assert a == b
        assert a == pytest.approx(c, abs=1e-6)
        assert len(cache) == 1

    def test_fixed_point_consistency(self, tiny_stack):
        # at the value-iteration fixed point, the target operator reproduces
        # the optimal Q-table: Q*(s,a) = r + gamma * max Q*(s',.)
        from focusrl.baselines import mdp_from_stack, value_iteration

        mdp = mdp_from_stack(tiny_stack)
        gamma = 0.8
        q = value_iteration(mdp, gamma=gamma)
        v = q.max(axis=1)
        targets = mdp.rewards + gamma * np.where(~mdp.done, v[mdp.next_state], 0.0)
        targets[mdp.terminal_state, :] = 0.0
        assert np.abs(targets - q).max() < 1e-6


class TestMaxTargetValues:
    def test_cache_hits_skip_recomputation(self, env16, params16):
        s1 = env16.reset_at(2)
        s2 = env16.step(Action.FINE_POSITIVE).next_state
        cache = TargetValueCache()
        frames = env16.net_frames
        first = max_target_values(params16, ARCH, frames, [s1, s2, s1], cache)
        assert len(cache) == 2
        second = max_target_values(params16, ARCH, frames, [s1, s2], cache)
        np.testing.assert_array_equal(first[:2], second)

    def test_positions_sharing_a_stack_frame_keep_separate_entries(self, env16, params16):
        # Positions mirrored about the sharpest one share one stack frame
        # object; their states still differ, and so do their cache keys.
        frames = env16.cfg.stack.frames
        mirrored = [
            (i, j) for i in range(len(frames)) for j in range(i + 1, len(frames))
            if frames[i] is frames[j]
        ]
        assert mirrored
        i, j = mirrored[0]
        cache = TargetValueCache()
        max_target_values(
            params16, ARCH, env16.net_frames, [env16.reset_at(i), env16.reset_at(j)], cache
        )
        assert len(cache) == 2
        assert cache.get((i, i, i) + (NULL_ACTION_CODE,) * 3) is not None
        assert cache.get((j, j, j) + (NULL_ACTION_CODE,) * 3) is not None

    def test_lookups_then_one_forward_then_puts_in_order(self, env16, params16, monkeypatch):
        import focusrl.agent as agent_module

        s1 = env16.reset_at(2)
        s2 = env16.step(Action.FINE_POSITIVE).next_state
        cache = TargetValueCache()
        max_target_values(params16, ARCH, env16.net_frames, [s1], cache)
        events = []
        get, put = TargetValueCache.get, TargetValueCache.put
        forward = agent_module.forward_batch
        monkeypatch.setattr(TargetValueCache, "get",
                            lambda self, key: events.append(("get", key)) or get(self, key))
        monkeypatch.setattr(TargetValueCache, "put",
                            lambda self, key, v: events.append(("put", key)) or put(self, key, v))
        monkeypatch.setattr(agent_module, "forward_batch",
                            lambda *a, **k: events.append(("forward", len(a[2]))) or forward(*a, **k))
        max_target_values(params16, ARCH, env16.net_frames, [s2, s1, s2], cache)
        k1 = (*s1.positions, *s1.action_codes)
        k2 = (*s2.positions, *s2.action_codes)
        assert events == [
            ("get", k2), ("get", k1), ("get", k2), ("forward", 2), ("put", k2), ("put", k2),
        ]

    def test_matches_direct_forward(self, env16, params16):
        state = env16.reset_at(4)
        x, onehot = states_to_batch([state], env16.net_frames, ARCH)
        q, _ = forward_batch(params16, ARCH, x, onehot, Mode.INFER)
        values = max_target_values(params16, ARCH, env16.net_frames, [state], None)
        assert values[0] == pytest.approx(float(q[0].max()), abs=1e-7)


class TestTrainStep:
    def _batch(self, env, rng, n=8):
        batch = []
        _fill_buffer(env, rng, batch, n)
        return batch

    def test_exact_targets_give_zero_loss_and_no_update(self, env16):
        rng = np.random.default_rng(11)
        params = init_params(ARCH, np.random.default_rng(1))
        raw = self._batch(env16, rng)
        x, onehot = states_to_batch([tr.state for tr in raw], env16.net_frames, ARCH)
        # On a copy: the TRAIN pass updates the running statistics it used.
        q, _ = forward_batch(copy_params(params), ARCH, x, onehot, Mode.TRAIN)
        batch = _as_batch([
            Transition(
                state=tr.state,
                action=tr.action,
                reward=float(q[i, int(tr.action)]),
                next_state=tr.next_state,
                done=True,
                outcome=EpisodeOutcome.SUCCESS_TERMINATE,
            )
            for i, tr in enumerate(raw)
        ])
        before = copy_params(params)
        loss = train_step(params, before, ARCH, env16.net_frames, batch, Adam(1e-3), gamma=0.9)
        assert loss == 0.0
        for name in learnable_names(ARCH):
            np.testing.assert_array_equal(params[name], before[name])

    def test_adam_leaves_running_statistics_and_padding_rows_alone(self, env16):
        # Adam steps the whole parameter vector; the slots with no gradient
        # must keep what the forward wrote (running statistics) or 0.
        rng = np.random.default_rng(23)
        params = init_params(ARCH, np.random.default_rng(6))
        batch = _as_batch(self._batch(env16, rng))
        before = copy_params(params)
        expected = copy_params(params)
        x, onehot = states_to_batch(batch.states, env16.net_frames, ARCH)
        forward_batch(expected, ARCH, x, onehot, Mode.TRAIN)
        train_step(params, before, ARCH, env16.net_frames, batch, Adam(1e-3), 0.9)
        for i in range(1, 5):
            for stat in ("rmean", "rvar"):
                name = f"bn{i}_{stat}"
                assert params[name].tobytes() == expected[name].tobytes(), name
                assert not np.array_equal(params[name], before[name]), name
        assert not params["embed_w"][list(ARCH.null_slots)].any()
        assert not np.array_equal(params["head_b"], expected["head_b"])

    def test_one_step_reduces_loss(self, env16):
        rng = np.random.default_rng(13)
        params = init_params(ARCH, np.random.default_rng(2))
        target = copy_params(params)
        batch = _as_batch(self._batch(env16, rng))
        opt = Adam(1e-3)
        first = train_step(params, target, ARCH, env16.net_frames, batch, opt, gamma=0.9)
        second = train_step(params, target, ARCH, env16.net_frames, batch, opt, gamma=0.9)
        assert second < first

    def test_loss_invariant_to_batch_order(self, env16):
        rng = np.random.default_rng(17)
        batch = self._batch(env16, rng)
        a = train_step(
            init_params(ARCH, np.random.default_rng(3)),
            init_params(ARCH, np.random.default_rng(3)),
            ARCH, env16.net_frames, _as_batch(batch), Adam(1e-4), gamma=0.9,
        )
        b = train_step(
            init_params(ARCH, np.random.default_rng(3)),
            init_params(ARCH, np.random.default_rng(3)),
            ARCH, env16.net_frames, _as_batch(list(reversed(batch))), Adam(1e-4), gamma=0.9,
        )
        assert a == pytest.approx(b, rel=1e-5)

    def test_bootstrapped_values_are_capped(self, env16):
        # A target net claiming 150 bootstraps as if it said value_cap.
        env16.reset_at(5)
        tr = env16.step(Action.FINE_POSITIVE)
        target = _pinned_q_params([150.0, 0.0, 0.0, 0.0, 0.0])
        capped = tr.reward + 0.9 * 100.0
        got = bellman_target(tr, target, ARCH, env16.net_frames, 0.9, value_cap=100.0)
        assert got == pytest.approx(capped, abs=1e-5)
        # An online net already at the capped target has nothing to learn.
        online = _pinned_q_params([capped, 0.0, 0.0, 0.0, 0.0])
        batch = _as_batch([dataclasses.replace(tr, action=Action.COARSE_POSITIVE)])
        loss = train_step(
            online, target, ARCH, env16.net_frames, batch, Adam(1e-4), 0.9, value_cap=100.0
        )
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_rejects_empty_batch(self, params16, env16):
        empty = ReplayBuffer(1).rows(np.arange(0))
        with pytest.raises(ValueError):
            train_step(params16, params16, ARCH, env16.net_frames, empty, Adam(1e-4), gamma=0.9)

    def test_aborts_on_non_finite_loss(self, env16):
        rng = np.random.default_rng(19)
        params = init_params(ARCH, np.random.default_rng(4))
        batch = self._batch(env16, rng, n=4)
        bad = _as_batch([
            Transition(
                state=tr.state, action=tr.action, reward=float("nan"),
                next_state=tr.next_state, done=True, outcome=tr.outcome,
            )
            for tr in batch
        ])
        with pytest.raises(RuntimeError, match="non-finite"):
            train_step(params, params, ARCH, env16.net_frames, bad, Adam(1e-4), gamma=0.9)


class TestSharedWorkspace:
    """Acting, bootstrapping and learning share one buffer set per conv stage."""

    @staticmethod
    def _stage_bytes(monkeypatch, run):
        ws = net._Workspace()
        monkeypatch.setattr(net, "_WS", ws)
        run()
        return {key: buf.nbytes for key, buf in ws._bufs.items()}

    def test_one_buffer_set_per_stage(self, tiny_env, monkeypatch):
        arch = NetArch(input_size=32)
        frames = tiny_env.net_frames
        rng = np.random.default_rng(31)
        params = init_params(arch, rng)
        target = copy_params(params)
        buffer = ReplayBuffer(100)
        _fill_buffer(tiny_env, rng, buffer, 100)
        batch = buffer.sample(rng, 32)

        def act_bootstrap_learn():
            select_action(params, arch, frames, tiny_env.reset_at(3), 0.0, rng)
            max_target_values(target, arch, frames, batch.next_states[:7])
            train_step(params, target, arch, frames, batch, Adam(1e-4), gamma=0.9)

        def lone_train_pass():
            x, onehot = states_to_batch(batch.states, frames, arch)
            q, cache = forward_batch(params, arch, x, onehot, Mode.TRAIN)
            backward_batch(params, arch, cache, q)

        shared = self._stage_bytes(monkeypatch, act_bootstrap_learn)
        assert shared == self._stage_bytes(monkeypatch, lone_train_pass)
        names = ("xpad", "cols", "out", "xhat", "pout", "ptmp", "right", "lowright", "low")
        assert set(shared) == {f"stage{i}.{name}" for i in range(1, 5) for name in names}

    def test_train_step_allocates_no_patch_sized_array(self, tiny_stack):
        # Small dense layers keep their gradients far below the conv scale.
        env = AutofocusEnv(EnvConfig(stack=tiny_stack, net_input_size=64))
        arch = NetArch(input_size=64, embed_dim=8, fc_width=8)
        rng = np.random.default_rng(32)
        params = init_params(arch, rng)
        target = copy_params(params)
        optimizer = Adam(1e-4)
        buffer = ReplayBuffer(200)
        _fill_buffer(env, rng, buffer, 200)
        for _ in range(2):  # warm-up: the workspace reaches its batch-32 size
            train_step(params, target, arch, env.net_frames, buffer.sample(rng, 32), optimizer, 0.9)
        batch = buffer.sample(rng, 32)
        tracemalloc.start()  # numpy reports its data buffers to tracemalloc
        try:
            train_step(params, target, arch, env.net_frames, batch, optimizer, 0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        patch_bytes = []
        c_in, size = arch.history, arch.input_size
        for c_out in arch.conv_channels:
            patch_bytes.append(c_in * arch.kernel_size**2 * 32 * size * size * 4)
            c_in, size = c_out, size // 2
        assert peak < min(patch_bytes), (peak, patch_bytes)


class TestEvalReport:
    def test_from_episodes_arithmetic(self):
        episodes = [
            (EpisodeOutcome.SUCCESS_TERMINATE, 3, 0.95),
            (EpisodeOutcome.SUCCESS_TERMINATE, 5, 1.0),
            (EpisodeOutcome.FAIL_TERMINATE_BLUR, 2, 0.4),
            (EpisodeOutcome.FAIL_MAX_STEPS, 20, 0.55),
        ]
        report = EvalReport.from_episodes(episodes)
        assert report.episodes == 4
        assert report.accuracy == pytest.approx(0.5)
        assert report.avg_steps == pytest.approx(7.5)
        assert report.outcome_counts["SuccessTerminate"] == 2
        assert report.outcome_counts["FailTerminateBlur"] == 1
        assert sum(report.histogram) == 4

    def test_histogram_buckets(self):
        episodes = [
            (EpisodeOutcome.SUCCESS_TERMINATE, 1, 1.0),   # top bucket
            (EpisodeOutcome.SUCCESS_TERMINATE, 1, 0.95),  # bucket 9
            (EpisodeOutcome.FAIL_TERMINATE_BLUR, 1, 0.0),  # bucket 0
            (EpisodeOutcome.FAIL_TERMINATE_BLUR, 1, 0.39),  # bucket 3
        ]
        report = EvalReport.from_episodes(episodes)
        assert len(report.histogram) == HISTOGRAM_BUCKETS
        assert report.histogram[9] == 2
        assert report.histogram[0] == 1
        assert report.histogram[3] == 1

    def test_round_trip(self, tmp_path):
        report = EvalReport.from_episodes(
            [(EpisodeOutcome.SUCCESS_TERMINATE, 2, 0.97)]
        )
        assert EvalReport.from_dict(report.to_dict()) == report
        path = tmp_path / "report.json"
        report.save(path)
        assert EvalReport.from_dict(json.loads(path.read_text())) == report

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        report = EvalReport.from_episodes([(EpisodeOutcome.SUCCESS_TERMINATE, 2, 0.97)])
        path = tmp_path / "report.json"
        report.save(path)
        before = path.read_bytes()
        # json writes the first key, then fails on the value it cannot encode.
        monkeypatch.setattr(EvalReport, "to_dict", lambda self: {"a": 1, "z": object()})
        with pytest.raises(TypeError):
            report.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_histogram_sum_validated(self):
        with pytest.raises(ValueError):
            EvalReport(
                episodes=2, accuracy=0.5, avg_steps=1.0,
                outcome_counts={}, histogram=(1,) * HISTOGRAM_BUCKETS,
            )


def _frame_key(env, state):
    """The network input a state names: its positions' frame ids, then its codes."""
    return (*(env.frame_ids[p] for p in state.positions), *state.action_codes)


def _unmemoized_evaluate(params, arch, env, visited=None):
    """Reference evaluation: one batch-1 forward at every step of every episode.

    Appends the frame key of each state it scores to `visited` when given.
    """
    episodes = []
    for start in range(env.n_positions):
        state = env.reset_at(start)
        while not env.done:
            if visited is not None:
                visited.append(_frame_key(env, state))
            x, onehot = states_to_batch([state], env.net_frames, arch)
            q, _ = forward_batch(params, arch, x, onehot, Mode.INFER)
            state = env.step(Action(int(np.argmax(q[0])))).next_state
        episodes.append(
            (env.outcome, env.steps_taken, float(env.normalized_curve[env.position_index]))
        )
    return EvalReport.from_episodes(episodes)


class TestEvaluate:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_params_match_one_forward_per_step(self, env16, seed):
        params = init_params(ARCH, np.random.default_rng(seed))
        assert evaluate(params, ARCH, env16) == _unmemoized_evaluate(params, ARCH, env16)

    @pytest.mark.parametrize("ckpt", COMMITTED_TINY, ids=lambda p: p.parent.name)
    def test_committed_checkpoints_match_one_forward_per_step(self, tiny_env, ckpt):
        params, arch, _ = load_checkpoint(ckpt)
        assert evaluate(params, arch, tiny_env) == _unmemoized_evaluate(params, arch, tiny_env)

    @pytest.mark.parametrize("ckpt", COMMITTED_TINY, ids=lambda p: p.parent.name)
    def test_one_forward_per_distinct_input(self, tiny_env, ckpt, monkeypatch):
        params, arch, _ = load_checkpoint(ckpt)
        visited = []
        _unmemoized_evaluate(params, arch, tiny_env, visited)
        forwards = []
        real_forward = agent_module.forward_batch

        def counted(*args, **kwargs):
            forwards.append(args[2].shape[0])
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(agent_module, "forward_batch", counted)
        evaluate(params, arch, tiny_env)
        assert forwards == [1] * len(set(visited))
        assert len(set(visited)) < len(visited)

    def test_always_terminate_accuracy_is_region_fraction(self, env16):
        params = _pinned_q_params([0.0, 0.0, 1.0, 0.0, 0.0])
        report = evaluate(params, ARCH, env16)
        expected = len(env16.success_region) / env16.n_positions
        assert report.episodes == env16.n_positions
        assert report.accuracy == pytest.approx(expected)
        assert report.avg_steps == 1.0

    def test_always_coarse_positive_never_succeeds(self, env16):
        params = _pinned_q_params([1.0, 0.0, 0.0, 0.0, 0.0])
        report = evaluate(params, ARCH, env16)
        assert report.accuracy == 0.0
        assert report.outcome_counts.get("SuccessTerminate", 0) == 0

    def test_oracle_policy_is_perfect(self, tiny_stack, env16):
        from focusrl.baselines import greedy_policy_report, mdp_from_stack, value_iteration

        mdp = mdp_from_stack(tiny_stack)
        q = value_iteration(mdp, gamma=0.9)
        report = greedy_policy_report(q, mdp, env16)
        assert report.episodes == env16.n_positions
        assert report.accuracy == 1.0

    def test_never_mutates_params(self, env16, params16):
        before = {k: v.copy() for k, v in params16.items()}
        evaluate(params16, ARCH, env16)
        for k, v in before.items():
            np.testing.assert_array_equal(params16[k], v)

    def test_run_episode_counts_terminate(self, env16):
        policy = lambda state: Action.TERMINATE  # noqa: E731
        peak = int(np.argmax(env16.normalized_curve))
        outcome, steps, focus = run_episode(env16, policy, start_index=peak)
        assert outcome is EpisodeOutcome.SUCCESS_TERMINATE
        assert steps == 1
        assert focus == 1.0


class TestTrain:
    HYPER = dict(
        replay_capacity=256,
        batch_size=16,
        target_sync=50,
        learn_start=60,
        eval_interval=100,
        gamma=0.9,
    )

    def test_no_learning_before_learn_start(self, env16, tmp_path):
        hyper = Hyperparams(total_timesteps=50, **self.HYPER)
        _, history = train(env16, hyper, ARCH, np.random.default_rng(0), tmp_path / "run")
        assert len(history) == 1  # final-step eval only
        assert history[0]["timestep"] == 50
        assert history[0]["loss"] is None

    def test_losses_appear_after_learn_start(self, env16, tmp_path):
        hyper = Hyperparams(total_timesteps=200, **self.HYPER)
        _, history = train(env16, hyper, ARCH, np.random.default_rng(0), tmp_path / "run")
        assert [row["timestep"] for row in history] == [100, 200]
        assert history[0]["loss"] is not None
        assert history[1]["loss"] is not None

    def test_fixed_seed_is_bit_identical(self, tiny_stack, tmp_path):
        hyper = Hyperparams(total_timesteps=150, **self.HYPER)
        outputs = []
        for name in ("a", "b"):
            env = AutofocusEnv(EnvConfig(stack=tiny_stack, net_input_size=16))
            out = tmp_path / name
            train(env, hyper, ARCH, np.random.default_rng(123), out)
            outputs.append(out)
        a, b = outputs
        for filename in ("train_log.csv", "ckpt_150", "eval_150.json"):
            assert (a / filename).read_bytes() == (b / filename).read_bytes(), filename

    def test_expected_artifacts_written(self, env16, tmp_path):
        hyper = Hyperparams(total_timesteps=100, **self.HYPER)
        out = tmp_path / "run"
        params, _ = train(env16, hyper, ARCH, np.random.default_rng(1), out)
        assert (out / "train_log.csv").exists()
        assert (out / "ckpt_100").exists()
        assert (out / "eval_100.json").exists()
        loaded, arch, step = load_checkpoint(out / "ckpt_100")
        assert step == 100
        assert arch == ARCH
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])

    def test_evaluates_on_a_copy_sharing_the_frames(self, env16, tmp_path, monkeypatch):
        seen = []
        real = agent_module.evaluate
        monkeypatch.setattr(agent_module, "evaluate",
                            lambda params, arch, env: seen.append(env) or real(params, arch, env))
        hyper = Hyperparams(total_timesteps=100, **self.HYPER)
        train(env16, hyper, ARCH, np.random.default_rng(1), tmp_path / "run")
        assert len(seen) == 1
        assert seen[0] is not env16 and seen[0].net_frames is env16.net_frames

    def test_log_header(self, env16, tmp_path):
        hyper = Hyperparams(total_timesteps=50, **self.HYPER)
        out = tmp_path / "run"
        train(env16, hyper, ARCH, np.random.default_rng(2), out)
        first_line = (out / "train_log.csv").read_text().splitlines()[0]
        assert first_line == ",".join(LOG_HEADER)

    def test_resume_from_checkpoint(self, env16, tmp_path):
        out = tmp_path / "run"
        train(
            env16,
            Hyperparams(total_timesteps=100, **self.HYPER),
            ARCH, np.random.default_rng(3), out,
        )
        params, history = train(
            env16,
            Hyperparams(total_timesteps=200, **self.HYPER),
            ARCH, np.random.default_rng(4), out,
            resume_from=out / "ckpt_100",
        )
        assert [row["timestep"] for row in history] == [200]
        _, _, step = load_checkpoint(out / "ckpt_200")
        assert step == 200

    @pytest.mark.slow
    def test_start_state_q_values_stay_feasible(self, tiny_stack, tmp_path):
        # No return exceeds the success bonus, so no learned Q-value should:
        # after 1800 learner steps of the tiny preset's network and defaults,
        # every Q-value on the 21 start states stays within a fitting error
        # of 15 above +100.  This run, learning from a 200-transition
        # buffer, ends at 111.3; a full seed-7 run read at most 106 at its
        # checkpoints from step 2000 to 13000.
        # Uncapped targets overshoot too slowly to fail here (206 and 551
        # only after 20K steps); test_bootstrapped_values_are_capped guards
        # the cap itself.
        env = AutofocusEnv(EnvConfig(stack=tiny_stack, net_input_size=32))
        arch = NetArch(input_size=32)
        hyper = Hyperparams(total_timesteps=2000, learn_start=200, eval_interval=2000)
        train(env, hyper, arch, np.random.default_rng(7), tmp_path / "run")
        params, _, _ = load_checkpoint(tmp_path / "run" / "ckpt_2000")
        x, onehot = states_to_batch(
            [env.reset_at(i) for i in range(env.n_positions)], env.net_frames, arch
        )
        q, _ = forward_batch(params, arch, x, onehot, Mode.INFER)
        assert q.max() <= env.cfg.bonus_magnitude + 15.0, q.max()

    def test_resume_past_end_rejected(self, env16, tmp_path):
        out = tmp_path / "run"
        train(
            env16,
            Hyperparams(total_timesteps=100, **self.HYPER),
            ARCH, np.random.default_rng(5), out,
        )
        with pytest.raises(ValueError, match="already"):
            train(
                env16,
                Hyperparams(total_timesteps=100, **self.HYPER),
                ARCH, np.random.default_rng(6), out,
                resume_from=out / "ckpt_100",
            )

    def test_evaluation_is_serial_only(self, env16, tmp_path):
        hyper = Hyperparams(total_timesteps=50, **self.HYPER)
        with pytest.raises(ValueError, match="eval_threads"):
            train(env16, hyper, ARCH, np.random.default_rng(0), tmp_path / "run", eval_threads=2)
        assert not (tmp_path / "run").exists()
