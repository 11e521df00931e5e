"""Tests for the non-learning reference policies.

The tabular model is cross-checked against the simulator transition by
transition; value iteration and breadth-first search then cross-check
each other through step-count equality.  Expected step counts below were
derived by hand from the stack geometry before being frozen here.
"""

from collections import deque
import dataclasses

import numpy as np
import pytest

from focusrl import baselines, focus
from focusrl.agent import EvalReport
from focusrl.baselines import (
    TERMINAL_OUTCOMES,
    _Climber,
    exhaustive_scan,
    greedy_policy_report,
    hill_climb,
    hill_climb_episode,
    mdp_from_stack,
    value_iteration,
)
from focusrl.env import (
    ACTION_DELTAS_RAD,
    Action,
    AutofocusEnv,
    EnvConfig,
    EpisodeOutcome,
    is_success,
    reward,
)


@pytest.fixture(scope="module")
def tiny_mdp(tiny_stack):
    return mdp_from_stack(tiny_stack)


@pytest.fixture(scope="module")
def tiny_q(tiny_mdp):
    return value_iteration(tiny_mdp, 0.99)


# Fewest actions to a successful stop from each of the 21 starts: the four
# left-edge starts reach the plateau with one coarse move plus Terminate,
# the nine in-region starts stop immediately, the rest need one move.
TINY_MIN_STEPS = [2] * 4 + [1] * 9 + [2] * 8


class TestDiscreteMdp:
    def test_state_layout(self, tiny_mdp):
        n = tiny_mdp.n_positions
        assert n == 21
        assert tiny_mdp.n_states == n * tiny_mdp.max_steps + 1
        assert tiny_mdp.terminal_state == tiny_mdp.n_states - 1
        assert tiny_mdp.state_id(0, 0) == 0
        assert tiny_mdp.state_id(3, 2) == 2 * n + 3

    @pytest.mark.parametrize("index,steps", [(-1, 0), (21, 0), (0, -1), (0, 20)])
    def test_state_id_rejects_out_of_bounds(self, tiny_mdp, index, steps):
        with pytest.raises(ValueError):
            tiny_mdp.state_id(index, steps)

    def test_cfg_must_wrap_same_stack(self, tiny_stack, exp1_stack):
        with pytest.raises(ValueError, match="same stack"):
            mdp_from_stack(tiny_stack, EnvConfig(stack=exp1_stack))

    def test_terminate_rows(self, tiny_mdp, tiny_env):
        region = set(tiny_env.success_region.tolist())
        term = int(Action.TERMINATE)
        for index in range(tiny_mdp.n_positions):
            sid = tiny_mdp.state_id(index, 0)
            outcome = tiny_mdp.outcome_of(sid, term)
            if index in region:
                assert outcome is EpisodeOutcome.SUCCESS_TERMINATE
            else:
                assert outcome is EpisodeOutcome.FAIL_TERMINATE_BLUR
                assert tiny_mdp.rewards[sid, term] < 0
            assert tiny_mdp.done[sid, term]
        # Stopping on the exact peak earns the undiminished success bonus.
        assert tiny_mdp.rewards[tiny_mdp.state_id(8, 0), term] == 100.0

    def test_out_of_range_row(self, tiny_mdp):
        sid = tiny_mdp.state_id(0, 0)
        a = int(Action.FINE_NEGATIVE)
        assert tiny_mdp.done[sid, a]
        assert tiny_mdp.next_state[sid, a] == tiny_mdp.terminal_state
        assert tiny_mdp.outcome_of(sid, a) is EpisodeOutcome.FAIL_OUT_OF_RANGE

    def test_max_steps_row(self, tiny_mdp):
        last = tiny_mdp.max_steps - 1
        sid = tiny_mdp.state_id(10, last)
        assert tiny_mdp.outcome_of(sid, int(Action.FINE_POSITIVE)) is (
            EpisodeOutcome.FAIL_MAX_STEPS
        )
        assert tiny_mdp.done[sid, int(Action.FINE_POSITIVE)]
        # The final action may still be a successful Terminate.
        assert tiny_mdp.outcome_of(sid, int(Action.TERMINATE)) is (
            EpisodeOutcome.SUCCESS_TERMINATE
        )

    def test_outcome_of_running(self, tiny_mdp):
        sid = tiny_mdp.state_id(10, 0)
        assert tiny_mdp.outcome_of(sid, int(Action.FINE_POSITIVE)) is (
            EpisodeOutcome.RUNNING
        )

    def test_matches_simulator_from_every_start(self, tiny_mdp, tiny_env):
        """Depth-zero rows agree with the simulator exactly, cell by cell."""
        for index in range(tiny_mdp.n_positions):
            for act in Action:
                sid = tiny_mdp.state_id(index, 0)
                tiny_env.reset_at(index)
                t = tiny_env.step(act)
                assert tiny_mdp.rewards[sid, int(act)] == t.reward
                assert bool(tiny_mdp.done[sid, int(act)]) == t.done
                assert tiny_mdp.outcome_of(sid, int(act)) is t.outcome
                if not t.done:
                    expected = tiny_mdp.state_id(tiny_env.position_index, 1)
                    assert tiny_mdp.next_state[sid, int(act)] == expected

    def test_matches_simulator_on_random_walks(self, tiny_mdp, tiny_env, rng):
        """Deeper rows agree too: lockstep replay of full random episodes."""
        for _ in range(150):
            start = int(rng.integers(tiny_env.n_positions))
            tiny_env.reset_at(start)
            sid = tiny_mdp.state_id(start, 0)
            while not tiny_env.done:
                act = int(rng.integers(5))
                t = tiny_env.step(act)
                assert tiny_mdp.rewards[sid, act] == t.reward
                assert bool(tiny_mdp.done[sid, act]) == t.done
                assert tiny_mdp.outcome_of(sid, act) is t.outcome
                sid = int(tiny_mdp.next_state[sid, act])


def _looped_tables(stack, cfg):
    """Reference: the tables built one decision point at a time."""
    curve = stack.focus_values / stack.focus_max
    n = len(stack)
    n_states = n * cfg.max_steps + 1
    terminal = n_states - 1
    next_state = np.full((n_states, len(Action)), terminal, dtype=np.int64)
    rewards = np.zeros((n_states, len(Action)), dtype=np.float64)
    done = np.ones((n_states, len(Action)), dtype=bool)
    outcome_code = np.full((n_states, len(Action)), -1, dtype=np.int64)
    for steps in range(cfg.max_steps):
        for index in range(n):
            sid = steps * n + index
            for act in Action:
                if act is Action.TERMINATE:
                    ok = is_success(float(curve[index]), cfg)
                    out = (
                        EpisodeOutcome.SUCCESS_TERMINATE if ok else EpisodeOutcome.FAIL_TERMINATE_BLUR
                    )
                    at = index
                else:
                    target = index + int(round(ACTION_DELTAS_RAD[act] / stack.spacing))
                    at = target
                    if not 0 <= target < n:
                        out, at = EpisodeOutcome.FAIL_OUT_OF_RANGE, index
                    elif steps + 1 >= cfg.max_steps:
                        out = EpisodeOutcome.FAIL_MAX_STEPS
                    else:
                        out = EpisodeOutcome.RUNNING
                        next_state[sid, act] = (steps + 1) * n + target
                        done[sid, act] = False
                rewards[sid, act] = reward(float(curve[at]), out, cfg)
                if out is not EpisodeOutcome.RUNNING:
                    outcome_code[sid, act] = TERMINAL_OUTCOMES.index(out)
    return next_state, rewards, done, outcome_code


class TestTablesMatchLoop:
    @pytest.mark.parametrize("max_steps", [1, 2, 20])
    @pytest.mark.parametrize("which", ["tiny_stack", "exp1_stack"])
    def test_bitwise(self, request, which, max_steps):
        stack = request.getfixturevalue(which)
        cfg = EnvConfig(stack=stack, max_steps=max_steps)
        mdp = mdp_from_stack(stack, cfg)
        got = (mdp.next_state, mdp.rewards, mdp.done, mdp.outcome_code)
        for have, want in zip(got, _looped_tables(stack, cfg)):
            assert have.dtype == want.dtype and have.shape == want.shape
            assert have.tobytes() == want.tobytes()

    def test_keeps_reward_range_check(self, tiny_stack):
        # A negative focus value normalises to below 0.
        values = tiny_stack.focus_values.copy()
        values[0] = -1.0
        bad = dataclasses.replace(tiny_stack, focus_values=values)
        with pytest.raises(ValueError, match="outside"):
            mdp_from_stack(bad)


def _iterated_q(mdp, gamma, tol=1e-9):
    """Reference: iterate Q <- r + gamma * max Q' to sup-norm convergence below tol."""
    q = np.zeros((mdp.n_states, mdp.next_state.shape[1]), dtype=np.float64)
    cont = ~mdp.done
    while True:
        v = q.max(axis=1)
        q_new = mdp.rewards + gamma * np.where(cont, v[mdp.next_state], 0.0)
        q_new[mdp.terminal_state, :] = 0.0
        delta = float(np.abs(q_new - q).max())
        q = q_new
        if delta < tol:
            return q


def _greedy_action(q_table, mdp, index, steps):
    """Reference: the greedy action at one decision point; ties go to the lowest code."""
    return Action(int(np.argmax(q_table[mdp.state_id(index, steps)])))


def _min_steps_bfs(mdp, start_index):
    """Reference: fewest actions (moves plus the Terminate) to end a success episode.

    Plain breadth-first search over the tabulated dynamics; None when no
    action sequence from this start can succeed within the step budget.
    """
    n_actions = mdp.next_state.shape[1]
    seen = {mdp.state_id(start_index, 0)}
    queue = deque([(mdp.state_id(start_index, 0), 0)])
    while queue:
        state, depth = queue.popleft()
        for a in range(n_actions):
            if mdp.outcome_of(state, a) is EpisodeOutcome.SUCCESS_TERMINATE:
                return depth + 1
            if not mdp.done[state, a]:
                nxt = int(mdp.next_state[state, a])
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, depth + 1))
    return None


def _stepwise_greedy_report(q_table, mdp, env):
    """Reference: the greedy rollout with one argmax per step."""
    episodes = []
    for start in range(env.n_positions):
        env.reset_at(start)
        while not env.done:
            env.step(_greedy_action(q_table, mdp, env.position_index, env.steps_taken))
        episodes.append(
            (env.outcome, env.steps_taken, float(env.normalized_curve[env.position_index]))
        )
    return EvalReport.from_episodes(episodes)


class _ScanningClimber(_Climber):
    """Reference: the climber that finds each move's action by scanning the deltas."""

    def _move(self, delta):
        for act, rad in ACTION_DELTAS_RAD.items():
            if act is not Action.TERMINATE and int(round(rad / self.env.cfg.stack.spacing)) == delta:
                self.env.step(act)
                return float(self.env.normalized_curve[self.env.position_index])
        raise ValueError(f"no action moves {delta} indices")


class TestValueIteration:
    def test_terminal_row_is_zero(self, tiny_mdp, tiny_q):
        np.testing.assert_array_equal(tiny_q[tiny_mdp.terminal_state], 0.0)

    @pytest.mark.parametrize("gamma", [0.9, 0.99])
    @pytest.mark.parametrize("max_steps", [1, 2, 20])
    @pytest.mark.parametrize("which", ["tiny_stack", "exp1_stack"])
    def test_equals_iteration_bitwise(self, request, which, max_steps, gamma):
        stack = request.getfixturevalue(which)
        mdp = mdp_from_stack(stack, EnvConfig(stack=stack, max_steps=max_steps))
        got, want = value_iteration(mdp, gamma), _iterated_q(mdp, gamma)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "edit",
        [
            # Step 0 -> step 2, past the layer in between.
            lambda mdp, ns, done: ns.__setitem__((3, 1), 2 * mdp.n_positions + 4),
            # Step 1 -> step 1: a running move that does not advance.
            lambda mdp, ns, done: ns.__setitem__((mdp.n_positions + 3, 1), mdp.n_positions + 4),
            # A running move out of the last step, into the terminal state.
            lambda mdp, ns, done: done.__setitem__((mdp.terminal_state - 1, 1), False),
        ],
        ids=["skips_a_layer", "stays_in_its_layer", "runs_past_the_last_step"],
    )
    def test_rejects_a_transition_that_breaks_the_layers(self, tiny_mdp, edit):
        next_state, done = tiny_mdp.next_state.copy(), tiny_mdp.done.copy()
        edit(tiny_mdp, next_state, done)
        bad = dataclasses.replace(tiny_mdp, next_state=next_state, done=done)
        with pytest.raises(ValueError, match="running transition"):
            value_iteration(bad, 0.99)

    @pytest.mark.parametrize("which", ["tiny_env", "exp1_env"])
    def test_greedy_report_equals_stepwise_rollout(self, request, which):
        env = request.getfixturevalue(which)
        mdp = mdp_from_stack(env.cfg.stack, env.cfg)
        q = value_iteration(mdp, 0.9)
        assert greedy_policy_report(q, mdp, env) == _stepwise_greedy_report(q, mdp, env)

    def test_greedy_solves_every_start(self, tiny_mdp, tiny_q, tiny_env):
        report = greedy_policy_report(tiny_q, tiny_mdp, tiny_env)
        assert report.episodes == 21
        assert report.accuracy == 1.0
        assert report.avg_steps == pytest.approx(sum(TINY_MIN_STEPS) / 21)

    def test_greedy_steps_equal_bfs_minimum(self, tiny_mdp, tiny_q, tiny_env):
        # Two independent notions of "shortest" must coincide: the greedy
        # rollout length and the breadth-first distance to a success stop.
        for start in range(tiny_env.n_positions):
            tiny_env.reset_at(start)
            while not tiny_env.done:
                act = _greedy_action(
                    tiny_q, tiny_mdp, tiny_env.position_index, tiny_env.steps_taken
                )
                tiny_env.step(act)
            assert tiny_env.outcome is EpisodeOutcome.SUCCESS_TERMINATE
            assert tiny_env.steps_taken == _min_steps_bfs(tiny_mdp, start)

    def test_bfs_matches_hand_derived_counts(self, tiny_mdp):
        got = [_min_steps_bfs(tiny_mdp, i) for i in range(tiny_mdp.n_positions)]
        assert got == TINY_MIN_STEPS

    def test_bfs_none_when_budget_too_small(self, tiny_stack):
        # One action total: only in-region starts can stop successfully.
        cfg = EnvConfig(stack=tiny_stack, max_steps=1)
        mdp = mdp_from_stack(tiny_stack, cfg)
        assert _min_steps_bfs(mdp, 8) == 1
        assert _min_steps_bfs(mdp, 0) is None

    def test_last_step_in_region_terminates(self, tiny_mdp, tiny_q, tiny_env):
        # With one action left, everything except Terminate forfeits the
        # bonus, so the greedy choice inside the region must be Terminate.
        last = tiny_mdp.max_steps - 1
        for index in tiny_env.success_region.tolist():
            assert _greedy_action(tiny_q, tiny_mdp, index, last) is Action.TERMINATE


class TestHillClimb:
    @pytest.mark.parametrize("which", ["tiny_env", "exp1_env"])
    def test_equals_scanning_climber(self, request, which):
        env = request.getfixturevalue(which)
        want = EvalReport.from_episodes(
            [_ScanningClimber(env).run(i) for i in range(env.n_positions)]
        )
        assert hill_climb(env) == want

    def test_peak_start_probes_then_stops(self, tiny_env):
        # From the peak both fine probes read downhill, so the climber
        # spends three moves discovering that and stops one index off.
        outcome, steps, focus = hill_climb_episode(tiny_env, 8)
        assert outcome is EpisodeOutcome.SUCCESS_TERMINATE
        assert steps == 4
        assert focus >= tiny_env.cfg.success_ratio

    def test_solves_every_tiny_start(self, tiny_env, tiny_mdp, tiny_q):
        report = hill_climb(tiny_env)
        assert report.episodes == 21
        assert report.accuracy == 1.0
        # A model-free search can never beat the value-iteration optimum.
        optimal = greedy_policy_report(tiny_q, tiny_mdp, tiny_env)
        assert report.avg_steps >= optimal.avg_steps

    def test_solves_every_exp1_start(self, exp1_env):
        report = hill_climb(exp1_env)
        assert report.episodes == 131
        assert report.accuracy == 1.0
        assert report.avg_steps <= exp1_env.cfg.max_steps

    def test_far_edge_exp1_trace(self, exp1_env):
        # Trace from index 0: probe, nine coarse up (last one overshoots),
        # one back-up to index 73, a fine drop at 74, the reversal reads an
        # equal value back at 73 and stops there, inside the plateau.
        outcome, steps, _ = hill_climb_episode(exp1_env, 0)
        assert outcome is EpisodeOutcome.SUCCESS_TERMINATE
        assert steps == 14

    def test_worst_start_within_coarse_fine_bound(self, exp1_env):
        # Coarse legs to cross the range, fine legs to land, plus the
        # probe/back-up/terminate overhead.  Loose by design.
        coarse = 9
        spread = exp1_env.n_positions - 1
        bound = -(-spread // coarse) + 2 * coarse + 4
        worst = max(
            hill_climb_episode(exp1_env, start)[1]
            for start in range(exp1_env.n_positions)
        )
        assert worst <= bound

    def test_budget_guard_reserves_terminate(self, tiny_stack):
        cfg = EnvConfig(stack=tiny_stack, max_steps=3, net_input_size=32)
        env = AutofocusEnv(cfg)
        outcome, steps, _ = hill_climb_episode(env, 0)
        assert steps <= 3
        assert outcome is not EpisodeOutcome.FAIL_MAX_STEPS


class TestExhaustiveScan:
    def test_tiny_stack(self, tiny_stack):
        result = exhaustive_scan(tiny_stack)
        assert result.argmax_index == 8
        assert result.evaluations == 21
        assert result.position_rad == pytest.approx(32.4, abs=1e-12)

    def test_reports_the_curve_argmax(self, tiny_stack):
        from focusrl.focus import focus_curve

        assert exhaustive_scan(tiny_stack).argmax_index == focus_curve(tiny_stack).argmax_index

    def test_exp1_stack(self, exp1_stack):
        result = exhaustive_scan(exp1_stack)
        assert result.argmax_index == 70
        assert result.evaluations == 131

    def test_reads_no_pixels(self, exp1_stack, monkeypatch):
        want = focus.focus_curve(exp1_stack).argmax_index

        def boom(*args, **kwargs):
            raise AssertionError("the scan measured a frame")

        monkeypatch.setattr(focus, "tenengrad", boom)
        monkeypatch.setattr(baselines, "focus_curve", boom)
        result = exhaustive_scan(exp1_stack)
        assert result.argmax_index == want
        assert result.evaluations == len(exp1_stack)
