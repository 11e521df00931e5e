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
from focusrl.cli import load_config
from focusrl.imaging import generate_stack, render_scene


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

# The tiny and exp1 fixtures are the tiny and exp1 presets' stacks; exp2
# and exp3 (its training view) are built from their presets here.
STACKS = ["tiny_stack", "exp1_stack", "exp2_stack", "exp3_stack"]
ENVS = ["tiny_env", "exp1_env", "exp2_env", "exp3_env"]
BUDGETS = [1, 2, 3, 20]


@pytest.fixture(scope="module")
def exp2_stack():
    return load_config("exp2")[0].stack.build()


@pytest.fixture(scope="module")
def exp3_stack():
    return load_config("exp3")[0].stack.build()


@pytest.fixture()
def exp2_env(exp2_stack):
    return AutofocusEnv(EnvConfig(stack=exp2_stack, net_input_size=16))


@pytest.fixture()
def exp3_env(exp3_stack):
    return AutofocusEnv(EnvConfig(stack=exp3_stack, net_input_size=16))


def _budgeted_envs(env):
    """The env's stack at each of BUDGETS; small net frames, which no oracle reads."""
    return [AutofocusEnv(dataclasses.replace(env.cfg, max_steps=max_steps, net_input_size=16))
            for max_steps in BUDGETS]


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
    """Reference: the tables built one decision point at a time, one `reward` call each."""
    curve = stack.focus_values / stack.focus_max
    n = len(stack)
    n_states = n * cfg.max_steps + 1
    terminal = n_states - 1
    next_state = np.full((n_states, len(Action)), terminal, dtype=np.int64)
    rewards = np.zeros((n_states, len(Action)), dtype=np.float64)
    done = np.ones((n_states, len(Action)), dtype=bool)
    outcome_code = np.full((n_states, len(Action)), -1, dtype=np.int64)
    end_index = np.full((n_states, len(Action)), -1, dtype=np.int64)
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
                end_index[sid, act] = at
                if out is not EpisodeOutcome.RUNNING:
                    outcome_code[sid, act] = TERMINAL_OUTCOMES.index(out)
    return next_state, rewards, done, outcome_code, end_index


def _assert_tables_match_loop(stack, cfg):
    mdp = mdp_from_stack(stack, cfg)
    got = (mdp.next_state, mdp.rewards, mdp.done, mdp.outcome_code, mdp.end_index)
    for have, want in zip(got, _looped_tables(stack, cfg), strict=True):
        assert have.dtype == want.dtype and have.shape == want.shape
        assert have.tobytes() == want.tobytes()


class TestTablesMatchLoop:
    @pytest.mark.parametrize("max_steps", BUDGETS)
    @pytest.mark.parametrize("which", STACKS)
    def test_bitwise(self, request, which, max_steps):
        stack = request.getfixturevalue(which)
        _assert_tables_match_loop(stack, EnvConfig(stack=stack, max_steps=max_steps))

    def test_bitwise_without_shaping(self, tiny_stack, monkeypatch):
        # With reward_coeff 0 the shaping term is -0.0 below the peak, and
        # the tables must keep that sign as `reward` does.
        monkeypatch.setattr(EnvConfig, "reward_coeff", 0)
        _assert_tables_match_loop(tiny_stack, EnvConfig(stack=tiny_stack, max_steps=3))

    def test_keeps_reward_range_check(self, tiny_stack):
        # A negative focus value normalises to below 0, at either end of
        # the curve; NaN is in no range.
        for where, value in ((0, -1.0), (-1, -1.0), (0, np.nan)):
            values = tiny_stack.focus_values.copy()
            values[where] = value
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


class _Climber:
    """Reference: the hill climb driven through the simulator, one `env.step` per move.

    Shape of the search: a fine probe fixes the uphill direction, a coarse
    ascent rides it until the measure drops, one coarse back-up, then a
    fine ascent with a single allowed reversal that terminates at its
    first drop.  All measure readings come from the simulator, and the
    climber knows the stage limits, so it never commands an out-of-range
    move.  A budget guard spends the last allowed action on Terminate.
    """

    def __init__(self, env: AutofocusEnv):
        self.env = env
        # Index steps per fine and per coarse move.
        self.fine, self.coarse = (
            abs(int(round(ACTION_DELTAS_RAD[act] / env.cfg.stack.spacing)))
            for act in (Action.FINE_POSITIVE, Action.COARSE_POSITIVE)
        )

    def _measure(self):
        return float(self.env.normalized_curve[self.env.position_index])

    def _in_range(self, delta):
        return 0 <= self.env.position_index + delta < self.env.n_positions

    def _move(self, delta):
        """Issue the first move action in code order that makes `delta`; returns the new measure."""
        for act, rad in ACTION_DELTAS_RAD.items():
            if act is not Action.TERMINATE and int(round(rad / self.env.cfg.stack.spacing)) == delta:
                self.env.step(act)
                return self._measure()
        raise ValueError(f"no action moves {delta} indices")

    def _out_of_budget(self):
        # Keep one action in hand for Terminate.
        return self.env.steps_taken >= self.env.cfg.max_steps - 1

    def run(self, start_index):
        env = self.env
        env.reset_at(start_index)
        here = self._measure()
        if self._out_of_budget() or not (self._in_range(self.fine) or self._in_range(-self.fine)):
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

    def _terminate(self):
        self.env.step(Action.TERMINATE)
        return self.env.outcome, self.env.steps_taken, self._measure()


def _random_q(mdp, seed):
    """An integer-valued Q-table: many ties, and moves that leave the range or the budget."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 3, size=(mdp.n_states, len(Action))).astype(np.float64)


class TestOraclesMatchSimulator:
    """The tables, the rollout and the climber on inputs the bundled stacks do not give."""

    @pytest.mark.parametrize("max_steps", BUDGETS)
    def test_curves_with_ties(self, tiny_stack, max_steps):
        # Curves of 8, 9 and 10 (a 10 last, so 9 normalises to exactly 0.9)
        # give equal neighbours, which the stacks' own curves rarely do, and
        # positions exactly at the 0.9 success ratio.
        rng = np.random.default_rng(max_steps)
        for _ in range(20):
            values = rng.integers(8, 11, size=len(tiny_stack)).astype(np.float64)
            values[-1] = 10.0
            stack = dataclasses.replace(tiny_stack, focus_values=values)
            env = AutofocusEnv(EnvConfig(stack=stack, max_steps=max_steps, net_input_size=16))
            reference = _Climber(env)
            want = [reference.run(start) for start in range(env.n_positions)]
            assert [hill_climb_episode(env, start) for start in range(env.n_positions)] == want
            _assert_tables_match_loop(stack, env.cfg)
            mdp = mdp_from_stack(stack, env.cfg)
            q = value_iteration(mdp, 0.9)
            assert greedy_policy_report(q, mdp, env) == _stepwise_greedy_report(q, mdp, env)

    def test_random_tables_reach_every_ending(self, exp2_env):
        # The random Q-tables of the rollout test bring every kind of ending.
        counts = {}
        for env in _budgeted_envs(exp2_env):
            mdp = mdp_from_stack(env.cfg.stack, env.cfg)
            for seed in range(3):
                report = _stepwise_greedy_report(_random_q(mdp, seed), mdp, env)
                for outcome, count in report.outcome_counts.items():
                    counts[outcome] = counts.get(outcome, 0) + count
        assert all(counts[outcome.value] > 0 for outcome in TERMINAL_OUTCOMES)

    def test_no_simulator_steps(self, tiny_stack, monkeypatch):
        env = AutofocusEnv(EnvConfig(stack=tiny_stack, net_input_size=16))
        calls = []
        for name in ("step", "reset_at"):
            method = getattr(AutofocusEnv, name)

            def counted(self, *args, _method=method, _name=name):
                calls.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(AutofocusEnv, name, counted)
        mdp = mdp_from_stack(tiny_stack, env.cfg)
        greedy_policy_report(value_iteration(mdp, 0.9), mdp, env)
        hill_climb(env)
        hill_climb_episode(env, 0)
        exhaustive_scan(tiny_stack)
        assert calls == []
        env.reset_at(0)
        env.step(Action.TERMINATE)
        assert calls == ["reset_at", "step"]


class TestGreedyReportChecks:
    def test_rejects_a_q_table_of_the_wrong_shape(self, tiny_mdp, tiny_q, tiny_env):
        with pytest.raises(ValueError, match="Q-table shape"):
            greedy_policy_report(tiny_q[:10], tiny_mdp, tiny_env)
        with pytest.raises(ValueError, match="Q-table shape"):
            greedy_policy_report(tiny_q[:, :4], tiny_mdp, tiny_env)

    def test_rejects_an_env_of_another_stack(self, exp1_stack, tiny_env):
        mdp = mdp_from_stack(exp1_stack)
        with pytest.raises(ValueError, match="131 and 20"):
            greedy_policy_report(value_iteration(mdp, 0.9), mdp, tiny_env)

    def test_rejects_an_env_of_another_budget(self, tiny_mdp, tiny_q, tiny_stack):
        env = AutofocusEnv(EnvConfig(stack=tiny_stack, max_steps=5, net_input_size=16))
        with pytest.raises(ValueError, match="5 steps"):
            greedy_policy_report(tiny_q, tiny_mdp, env)


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

    @pytest.mark.parametrize("which", ENVS)
    def test_greedy_report_equals_stepwise_rollout(self, request, which):
        # From every start, at every budget, for the optimal table and for
        # random ones, which bring ties and every kind of ending.
        for env in _budgeted_envs(request.getfixturevalue(which)):
            mdp = mdp_from_stack(env.cfg.stack, env.cfg)
            for q in [value_iteration(mdp, 0.9)] + [_random_q(mdp, seed) for seed in range(3)]:
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
    @pytest.mark.parametrize("which", ENVS)
    def test_equals_scanning_climber(self, request, which):
        # Episode by episode, from every start, at every budget.
        for env in _budgeted_envs(request.getfixturevalue(which)):
            reference = _Climber(env)
            want = [reference.run(start) for start in range(env.n_positions)]
            assert [hill_climb_episode(env, start) for start in range(env.n_positions)] == want
            assert hill_climb(env) == EvalReport.from_episodes(want)

    def test_rejects_a_start_outside_the_stack(self, tiny_env):
        with pytest.raises(ValueError, match="start index 21"):
            hill_climb_episode(tiny_env, 21)

    @pytest.mark.parametrize("spacing,z_max,z_star",
                             [(0.1, 36.0, 32.4), (0.05, 36.0, 32.4), (0.1, 30.3, 30.1)],
                             ids=["spacing_0.1", "spacing_0.05", "four_positions"])
    def test_equals_scanning_climber_on_finer_grids(self, spacing, z_max, z_star):
        # A fine move spans 3 indices at 0.1 rad and 6 at 0.05 rad.  On the
        # four-position stack neither fine move is in range from the two
        # middle starts, so the climb ends where it starts.
        stack = generate_stack(render_scene(seed=3, width=32, height=32), z_min=30.0,
                               z_max=z_max, spacing=spacing, z_star=z_star)
        for env in _budgeted_envs(AutofocusEnv(EnvConfig(stack=stack, net_input_size=16))):
            reference = _Climber(env)
            want = [reference.run(start) for start in range(env.n_positions)]
            assert [hill_climb_episode(env, start) for start in range(env.n_positions)] == want
            assert hill_climb(env) == EvalReport.from_episodes(want)

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
