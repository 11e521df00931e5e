"""Episode state machine, reward shaping, and termination rules."""

import copy

import numpy as np
import pytest

from focusrl import env as env_module
from focusrl.env import (
    ACTION_HISTORY,
    NULL_ACTION_CODE,
    Action,
    AutofocusEnv,
    EnvConfig,
    EpisodeOutcome,
    StateSeq,
    action_delta,
    is_success,
    reward,
)
from focusrl.imaging import resize_bilinear


def _cfg(stack, **kw):
    return EnvConfig(stack=stack, net_input_size=32, **kw)


class TestAction:
    def test_five_codes(self):
        assert [int(a) for a in Action] == [0, 1, 2, 3, 4]

    def test_deltas(self):
        assert action_delta(Action.COARSE_POSITIVE) == pytest.approx(2.7)
        assert action_delta(Action.FINE_POSITIVE) == pytest.approx(0.3)
        assert action_delta(Action.TERMINATE) == 0.0
        assert action_delta(Action.FINE_NEGATIVE) == pytest.approx(-0.3)
        assert action_delta(Action.COARSE_NEGATIVE) == pytest.approx(-2.7)

    def test_null_action_is_not_executable(self):
        with pytest.raises(ValueError, match="not executable"):
            action_delta(NULL_ACTION_CODE)


class TestStateSeq:
    def test_requires_three_of_each(self, tiny_env):
        state = tiny_env.reset_at(0)
        assert len(state.positions) == ACTION_HISTORY
        assert len(state.action_codes) == ACTION_HISTORY
        with pytest.raises(ValueError):
            StateSeq(positions=state.positions[:2], action_codes=state.action_codes)

    def test_rejects_out_of_range_codes(self, tiny_env):
        state = tiny_env.reset_at(0)
        with pytest.raises(ValueError):
            StateSeq(positions=state.positions, action_codes=(0, 1, 6))

    def test_is_a_hashable_tuple_of_ints(self, tiny_env):
        state = tiny_env.reset_at(4)
        assert state == ((4, 4, 4), (NULL_ACTION_CODE,) * 3)
        assert hash(state) == hash(((4, 4, 4), (NULL_ACTION_CODE,) * 3))
        assert all(type(v) is int for v in (*state.positions, *state.action_codes))

    def test_null_codes_only_lead_a_fresh_episode(self, tiny_env):
        state = tiny_env.reset_at(3)
        assert state.action_codes == (NULL_ACTION_CODE,) * 3
        state = tiny_env.step(Action.FINE_POSITIVE).next_state
        assert state.action_codes == (NULL_ACTION_CODE, NULL_ACTION_CODE, int(Action.FINE_POSITIVE))
        state = tiny_env.step(Action.FINE_NEGATIVE).next_state
        assert state.action_codes[0] == NULL_ACTION_CODE
        assert NULL_ACTION_CODE not in state.action_codes[1:]


class TestEnvConfig:
    def test_validation(self, tiny_stack):
        with pytest.raises(ValueError):
            EnvConfig(stack=tiny_stack, max_steps=0)
        with pytest.raises(ValueError):
            EnvConfig(stack=tiny_stack, success_ratio=1.0)
        with pytest.raises(ValueError):
            EnvConfig(stack=tiny_stack, success_ratio=0.0)
        with pytest.raises(ValueError):
            EnvConfig(stack=tiny_stack, bonus_magnitude=0.0)

    def test_defaults(self, tiny_stack):
        cfg = EnvConfig(stack=tiny_stack)
        assert cfg.max_steps == 20
        assert cfg.success_ratio == 0.9
        assert cfg.reward_coeff == 10.0
        assert cfg.bonus_magnitude == 100.0


class TestReward:
    def test_success_at_peak(self, tiny_stack):
        cfg = _cfg(tiny_stack)
        assert reward(1.0, EpisodeOutcome.SUCCESS_TERMINATE, cfg) == pytest.approx(100.0)

    def test_blur_termination(self, tiny_stack):
        cfg = _cfg(tiny_stack)
        assert reward(0.5, EpisodeOutcome.FAIL_TERMINATE_BLUR, cfg) == pytest.approx(-105.0)

    def test_running_shaping_only(self, tiny_stack):
        cfg = _cfg(tiny_stack)
        assert reward(0.8, EpisodeOutcome.RUNNING, cfg) == pytest.approx(-2.0)

    def test_other_failures_carry_negative_bonus(self, tiny_stack):
        cfg = _cfg(tiny_stack)
        assert reward(1.0, EpisodeOutcome.FAIL_OUT_OF_RANGE, cfg) == pytest.approx(-100.0)
        assert reward(0.9, EpisodeOutcome.FAIL_MAX_STEPS, cfg) == pytest.approx(-101.0)

    def test_rejects_unnormalized_focus(self, tiny_stack):
        cfg = _cfg(tiny_stack)
        with pytest.raises(ValueError):
            reward(1.2, EpisodeOutcome.RUNNING, cfg)
        with pytest.raises(ValueError):
            reward(-0.1, EpisodeOutcome.RUNNING, cfg)


class TestIsSuccess:
    def test_threshold(self, tiny_stack):
        cfg = _cfg(tiny_stack)
        assert is_success(0.95, cfg)
        assert is_success(0.9, cfg)  # boundary included
        assert not is_success(0.899, cfg)


class TestReset:
    def test_frames_repeat_start_frame(self, tiny_env, rng):
        state = tiny_env.reset(rng)
        assert state.positions == (tiny_env.position_index,) * 3
        frames = tiny_env.net_frames[list(state.positions)]
        np.testing.assert_array_equal(frames[0], frames[1])
        np.testing.assert_array_equal(frames[1], frames[2])

    def test_one_net_frame_per_position(self, tiny_env, tiny_stack):
        # The stack shares frames between positions of equal blur; the env
        # still has one row per position, and a state names it by index.
        assert len({id(frame) for frame in tiny_stack.frames}) < len(tiny_stack)
        assert tiny_env.net_frames.shape == (tiny_env.n_positions, 32, 32)
        assert tiny_env.net_frames.dtype == np.float32
        for i in range(tiny_env.n_positions):
            assert tiny_env.reset_at(i).positions[2] == i

    def test_net_frames_are_read_only(self, tiny_env):
        with pytest.raises(ValueError):
            tiny_env.net_frames[0, 0, 0] = 0.5

    @pytest.mark.parametrize("which,size", [("tiny_stack", 32), ("exp1_stack", 64)])
    def test_net_frames_equal_a_per_position_resize(self, request, which, size):
        stack = request.getfixturevalue(which)
        env = AutofocusEnv(EnvConfig(stack=stack, net_input_size=size))
        for i, frame in enumerate(stack.frames):
            want = resize_bilinear(frame, size, size).pixels.astype(np.float32)
            got = env.net_frames[env.reset_at(i).positions[2]]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_one_resize_per_distinct_frame(self, tiny_stack, monkeypatch):
        calls = []

        def counted(image, width, height):
            calls.append(id(image))
            return resize_bilinear(image, width, height)

        monkeypatch.setattr(env_module, "resize_bilinear", counted)
        AutofocusEnv(_cfg(tiny_stack))
        assert sorted(calls) == sorted({id(frame) for frame in tiny_stack.frames})

    @pytest.mark.parametrize("which,size", [("tiny_stack", 32), ("exp1_stack", 64)])
    def test_frame_ids_name_the_first_row_with_equal_bytes(self, request, which, size):
        env = AutofocusEnv(EnvConfig(stack=request.getfixturevalue(which), net_input_size=size))
        ids = env.frame_ids
        assert isinstance(ids, tuple) and len(ids) == env.n_positions
        rows = [row.tobytes() for row in env.net_frames]
        for i in range(env.n_positions):
            assert ids[i] <= i and ids[ids[i]] == ids[i]
            for j in range(env.n_positions):
                assert (ids[i] == ids[j]) == (rows[i] == rows[j]), (i, j)

    def test_tiny_preset_frame_ids(self, tiny_env, tiny_stack):
        # Mirrored positions and the sharpest position's two neighbours
        # resize to the same net frame as their partners.
        ids = tiny_env.frame_ids
        assert len(set(ids)) == 12
        assert tiny_stack.sharpest_index == 8
        assert ids[7] == ids[8] == ids[9] == 7

    def test_copy_shares_frames_not_episodes(self, tiny_env):
        original = tiny_env
        original.reset_at(5)
        original.step(Action.FINE_POSITIVE)
        before = (original.position_index, original.steps_taken, original.outcome)
        twin = copy.copy(original)
        assert twin.net_frames is original.net_frames
        assert twin.frame_ids is original.frame_ids
        # Slots: copying reads no instance dict, which would slow the original.
        assert not hasattr(original, "__dict__")
        twin.reset_at(0)
        while not twin.done:
            twin.step(Action.FINE_NEGATIVE)  # ends out of range
        assert twin.outcome is EpisodeOutcome.FAIL_OUT_OF_RANGE
        assert (original.position_index, original.steps_taken, original.outcome) == before
        # The original's episode goes on from where it was.
        transition = original.step(Action.FINE_NEGATIVE)
        assert transition.state == StateSeq((5, 5, 6), (NULL_ACTION_CODE, NULL_ACTION_CODE, 1))
        assert transition.next_state.positions == (5, 6, 5)

    def test_step_counter_reads_zero(self, tiny_env, rng):
        tiny_env.reset(rng)
        assert tiny_env.steps_taken == 0

    def test_uniform_start_indices(self, exp1_env):
        # 10,000 draws over 131 indices; each frequency within 40% of uniform
        rng = np.random.default_rng(123)
        counts = np.zeros(exp1_env.n_positions, dtype=int)
        for _ in range(10_000):
            exp1_env.reset(rng)
            counts[exp1_env.position_index] += 1
        expected = 10_000 / exp1_env.n_positions
        assert counts.min() >= 0.6 * expected
        assert counts.max() <= 1.4 * expected

    def test_rejects_bad_index(self, tiny_env):
        with pytest.raises(ValueError):
            tiny_env.reset_at(-1)
        with pytest.raises(ValueError):
            tiny_env.reset_at(tiny_env.n_positions)


class TestStep:
    def test_fine_positive_moves_one_index(self, exp1_env):
        exp1_env.reset_at(50)
        tr = exp1_env.step(Action.FINE_POSITIVE)
        assert exp1_env.position_index == 51
        assert tr.outcome is EpisodeOutcome.RUNNING
        assert not tr.done

    def test_coarse_positive_moves_nine(self, exp1_env):
        exp1_env.reset_at(50)
        exp1_env.step(Action.COARSE_POSITIVE)
        assert exp1_env.position_index == 59

    def test_out_of_range_fails_without_moving(self, exp1_env):
        assert exp1_env.n_positions == 131
        exp1_env.reset_at(124)
        tr = exp1_env.step(Action.COARSE_POSITIVE)  # 124 + 9 = 133 > 130
        assert tr.outcome is EpisodeOutcome.FAIL_OUT_OF_RANGE
        assert tr.done
        assert exp1_env.position_index == 124

    def test_terminate_at_peak_pays_full_bonus(self, exp1_env):
        peak = int(np.argmax(exp1_env.normalized_curve))
        exp1_env.reset_at(peak)
        tr = exp1_env.step(Action.TERMINATE)
        assert tr.outcome is EpisodeOutcome.SUCCESS_TERMINATE
        assert tr.reward == pytest.approx(100.0)

    def test_terminate_on_blur_fails(self, tiny_env):
        blurred = [
            i
            for i in range(tiny_env.n_positions)
            if tiny_env.normalized_curve[i] < tiny_env.cfg.success_ratio
        ]
        tiny_env.reset_at(blurred[0])
        tr = tiny_env.step(Action.TERMINATE)
        assert tr.outcome is EpisodeOutcome.FAIL_TERMINATE_BLUR
        assert tr.reward < -100.0 + 1e-9

    def test_stepping_finished_episode_raises(self, tiny_env):
        peak = int(np.argmax(tiny_env.normalized_curve))
        tiny_env.reset_at(peak)
        tiny_env.step(Action.TERMINATE)
        with pytest.raises(RuntimeError, match="finished"):
            tiny_env.step(Action.FINE_POSITIVE)

    def test_step_before_reset_raises(self, tiny_stack):
        env = AutofocusEnv(_cfg(tiny_stack))
        with pytest.raises(RuntimeError, match="reset"):
            env.step(Action.FINE_POSITIVE)

    def test_null_action_code_rejected(self, tiny_env):
        tiny_env.reset_at(0)
        with pytest.raises(ValueError):
            tiny_env.step(NULL_ACTION_CODE)

    def test_next_state_shifts_history(self, tiny_env):
        tiny_env.reset_at(5)
        tr = tiny_env.step(Action.FINE_POSITIVE)
        assert tr.next_state.action_codes[-1] == int(Action.FINE_POSITIVE)
        assert tr.next_state.positions == (5, 5, tiny_env.position_index)
        assert tr.next_state.positions[1] == tr.state.positions[2]
        np.testing.assert_array_equal(
            tiny_env.net_frames[tr.next_state.positions[1]],
            tiny_env.net_frames[tr.state.positions[2]],
        )

    def test_done_iff_terminal(self, tiny_env, rng):
        tiny_env.reset(rng)
        while not tiny_env.done:
            tr = tiny_env.step(Action(int(rng.integers(5))))
            assert tr.done == (tr.outcome is not EpisodeOutcome.RUNNING)


class TestMaxSteps:
    def test_episode_never_exceeds_max_steps(self, tiny_stack, rng):
        env = AutofocusEnv(_cfg(tiny_stack, max_steps=6))
        for _ in range(50):
            env.reset(rng)
            steps = 0
            while not env.done:
                env.step(Action(int(rng.integers(5))))
                steps += 1
            assert steps <= 6

    def test_max_steps_fires_on_final_move(self, tiny_stack):
        env = AutofocusEnv(_cfg(tiny_stack, max_steps=3))
        env.reset_at(0)
        assert env.step(Action.FINE_POSITIVE).outcome is EpisodeOutcome.RUNNING
        assert env.step(Action.FINE_NEGATIVE).outcome is EpisodeOutcome.RUNNING
        tr = env.step(Action.FINE_POSITIVE)
        assert tr.outcome is EpisodeOutcome.FAIL_MAX_STEPS
        assert tr.done

    def test_final_action_may_be_terminate(self, tiny_stack):
        peak = None
        env = AutofocusEnv(_cfg(tiny_stack, max_steps=3))
        peak = int(np.argmax(env.normalized_curve))
        env.reset_at(peak)
        env.step(Action.FINE_POSITIVE)
        env.step(Action.FINE_NEGATIVE)
        tr = env.step(Action.TERMINATE)
        assert tr.outcome is EpisodeOutcome.SUCCESS_TERMINATE


class TestSeek:
    def test_places_the_decision_point(self, tiny_env):
        tiny_env.seek(5, 7)
        assert tiny_env.position_index == 5
        assert tiny_env.steps_taken == 7
        assert not tiny_env.done

    def test_zero_steps_matches_reset(self, tiny_env):
        sought = tiny_env.seek(4, 0)
        reset = tiny_env.reset_at(4)
        assert sought.action_codes == reset.action_codes
        assert sought.positions == reset.positions

    def test_max_steps_boundary_is_honored(self, tiny_env):
        tiny_env.seek(10, tiny_env.cfg.max_steps - 1)
        tr = tiny_env.step(Action.FINE_POSITIVE)
        assert tr.outcome is EpisodeOutcome.FAIL_MAX_STEPS

    @pytest.mark.parametrize("steps", [-1, 20, 99])
    def test_rejects_out_of_range_step_counts(self, tiny_env, steps):
        with pytest.raises(ValueError, match="steps_taken"):
            tiny_env.seek(0, steps)


class TestInvariants:
    def test_exactly_one_terminal_with_bonus(self, tiny_env, rng):
        for _ in range(30):
            tiny_env.reset(rng)
            terminal_count = 0
            while not tiny_env.done:
                tr = tiny_env.step(Action(int(rng.integers(5))))
                shaped = tiny_env.cfg.reward_coeff * (
                    float(tiny_env.normalized_curve[tiny_env.position_index]) - 1.0
                )
                bonus = tr.reward - shaped
                if tr.done:
                    terminal_count += 1
                    assert abs(abs(bonus) - tiny_env.cfg.bonus_magnitude) < 1e-9
                else:
                    assert abs(bonus) < 1e-9
            assert terminal_count == 1

    def test_position_always_in_range(self, tiny_env, rng):
        for _ in range(30):
            tiny_env.reset(rng)
            while not tiny_env.done:
                tiny_env.step(Action(int(rng.integers(5))))
                assert 0 <= tiny_env.position_index < tiny_env.n_positions

    def test_deterministic_replay(self, tiny_env, rng):
        tiny_env.reset(rng)
        start = tiny_env.position_index
        actions, rewards, outcomes = [], [], []
        while not tiny_env.done:
            act = Action(int(rng.integers(5)))
            tr = tiny_env.step(act)
            actions.append(act)
            rewards.append(tr.reward)
            outcomes.append(tr.outcome)
        tiny_env.reset_at(start)
        for act, rew, out in zip(actions, rewards, outcomes):
            tr = tiny_env.step(act)
            assert tr.reward == rew
            assert tr.outcome == out

    def test_success_region_equivalence(self, exp1_env):
        # Terminate from index i succeeds iff normalized_curve[i] >= 0.9,
        # checked exhaustively over all 131 indices.
        for i in range(exp1_env.n_positions):
            exp1_env.reset_at(i)
            tr = exp1_env.step(Action.TERMINATE)
            expected = exp1_env.normalized_curve[i] >= exp1_env.cfg.success_ratio
            got = tr.outcome is EpisodeOutcome.SUCCESS_TERMINATE
            assert got == expected, f"index {i}"
