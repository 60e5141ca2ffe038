import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import on_cpus
from pkmforge import kinematics, optimize
from pkmforge.errors import Infeasible, SingularJacobian
from pkmforge.grid import GridSpec
from pkmforge.optimize import (
    CACHE_QUANTUM,
    CONSTRAINT_MARGIN_STEPS,
    GoalProblem,
    Objective,
    ParetoPoint,
    WorkspaceConstraint,
    analytic_preset,
    attainment_level,
    dominates,
    goal_attain,
    latin_hypercube,
    orthoglide_geometry_problem,
    pareto_filter,
    pareto_sweep,
    workspace_constraint,
    _ProblemEvaluator,
)


def starts_for(problem, count=4, seed=7):
    return latin_hypercube(problem.bounds, count, np.random.default_rng(seed))


class TestAttainmentLevel:
    @settings(database=None, derandomize=True, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(0.1, 2.0)), min_size=1, max_size=5
        )
    )
    def test_minimax_identity(self, rows):
        values, goals, weights = np.array(rows).T
        level = attainment_level(values, goals, weights)
        # every row satisfied, and tightening by any epsilon breaks one
        assert np.all(values - weights * level <= goals + 1e-12)
        assert np.any(values - weights * (level - 1e-9) > goals)

    def test_zero_weight_rows_ignored(self):
        level = attainment_level([5.0, 100.0], [0.0, 0.0], [1.0, 0.0])
        assert level == 5.0

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            attainment_level([1.0], [0.0], [0.0])


class TestGoalAttain:
    def test_symmetric_quadratics(self):
        problem, _ = analytic_preset("symmetric_quadratics")
        result = goal_attain(problem, starts_for(problem), budget=500)
        assert result.lambda_star == pytest.approx(1.0, abs=1e-4)
        assert result.pi_star[0] == pytest.approx(0.0, abs=1e-2)
        assert result.feasible

    def test_over_attainment_is_negative(self):
        problem, _ = analytic_preset("over_attained")
        result = goal_attain(problem, starts_for(problem), budget=500)
        assert result.lambda_star == pytest.approx(-1.0, abs=1e-4)
        assert result.lambda_star < 0.0

    def test_linear_minimax_matches_grid_oracle(self):
        problem, _ = analytic_preset("linear_minimax")
        # brute-force oracle at resolution 1e-4 over the bounds
        xs = np.arange(-1.0, 1.0 + 1e-9, 1e-4)
        oracle = np.minimum.reduce([np.maximum(xs, -xs)]).min()
        result = goal_attain(problem, starts_for(problem), budget=500)
        assert result.lambda_star == pytest.approx(oracle, abs=1e-4)
        assert result.pi_star[0] == pytest.approx(0.0, abs=1e-3)

    def test_result_satisfies_own_invariant(self):
        problem, _ = analytic_preset("symmetric_quadratics")
        result = goal_attain(problem, starts_for(problem), budget=500)
        for objective, value in zip(problem.objectives, result.objective_values):
            assert value - objective.weight * result.lambda_star <= objective.goal + 1e-6

    def test_weight_scaling_invariance(self):
        problem, _ = analytic_preset("symmetric_quadratics")
        result_base = goal_attain(problem, starts_for(problem), budget=500)
        scaled = problem.with_weights([3.0, 3.0])
        result_scaled = goal_attain(scaled, starts_for(problem), budget=500)
        assert result_scaled.lambda_star == pytest.approx(result_base.lambda_star / 3.0, abs=1e-4)
        assert result_scaled.pi_star[0] == pytest.approx(result_base.pi_star[0], abs=1e-2)

    def test_zero_weight_objective_becomes_hard_cap(self):
        problem = GoalProblem(
            objectives=(
                Objective(lambda x: float((x[0] - 1.0) ** 2), goal=0.25, weight=0.0),
                Objective(lambda x: float(x[0] ** 2), goal=0.0, weight=1.0),
            ),
            constraints=(),
            bounds=np.array([[-3.0, 3.0]]),
        )
        result = goal_attain(problem, starts_for(problem), budget=800)
        # cap (x-1)^2 <= 0.25 forces x >= 0.5; best remaining x is 0.5
        assert result.pi_star[0] == pytest.approx(0.5, abs=1e-3)
        assert (result.pi_star[0] - 1.0) ** 2 <= 0.25 + 1e-6

    def test_infeasible_constraint_raises(self):
        problem = GoalProblem(
            objectives=(Objective(lambda x: float(x[0] ** 2), goal=0.0, weight=1.0),),
            constraints=(WorkspaceConstraint(lambda x: float(-abs(x[0])) - 1.0, bound=0.0),),
            bounds=np.array([[-1.0, 1.0]]),
        )
        with pytest.raises(Infeasible):
            goal_attain(problem, starts_for(problem), budget=200)

    def test_budget_exhaustion_reports_best_so_far(self):
        problem, _ = analytic_preset("symmetric_quadratics")
        result = goal_attain(problem, [np.array([2.0])], budget=5)
        assert result.status == "budget_exhausted"
        assert result.feasible
        assert result.evaluations <= 7  # one poll sweep past the cap at most

    def test_start_outside_bounds_rejected(self):
        problem, _ = analytic_preset("symmetric_quadratics")
        with pytest.raises(ValueError):
            goal_attain(problem, [np.array([5.0])], budget=100)

    def test_seed_change_keeps_optimum(self):
        problem, _ = analytic_preset("symmetric_quadratics")
        res_a = goal_attain(problem, starts_for(problem, seed=1), budget=500)
        res_b = goal_attain(problem, starts_for(problem, seed=99), budget=500)
        assert abs(res_a.lambda_star - res_b.lambda_star) <= 1e-4


def counting(problem):
    """``problem`` with its constraints wrapped to record every design they
    are evaluated at, directly or through an upper bound's ``value``;
    returns (problem, list of those designs)."""
    calls = []

    def wrap(constraint):
        def evaluate(x):
            calls.append(np.array(x, copy=True))
            return constraint.evaluate(x)

        def upper_bound(x):
            upper, value = constraint.upper_bound(x)

            def counted():
                calls.append(np.array(x, copy=True))
                return value()

            return upper, counted

        return replace(constraint, evaluate=evaluate, upper_bound=constraint.upper_bound and upper_bound)

    return replace(problem, constraints=tuple(wrap(c) for c in problem.constraints)), calls


def eager_goal_attain(problem, starts, budget):
    """``goal_attain`` with every trial evaluated in full: its pattern search
    passes the merit an infinite cutoff instead of the poll's running best."""
    search = optimize.pattern_search

    def full(func, *args, **kwargs):
        return search(lambda design, cutoff: func(design, np.inf), *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "pattern_search", full)
        return goal_attain(problem, starts, budget=budget)


def outcome(solve, problem, starts, budget):
    """Everything a solve reports, in bytes, or "infeasible"."""
    try:
        result = solve(problem, starts, budget)
    except Infeasible:
        return "infeasible"
    return (
        result.pi_star.tobytes(),
        float(result.lambda_star).hex(),
        result.evaluations,
        result.status,
        result.objective_values.tobytes(),
        result.constraint_values.tobytes(),
    )


LAZY_PROBLEMS = {
    "orthoglide-1x1x0.8": orthoglide_geometry_problem((1.0, 1.0, 0.8), (0.5, 2.0), resolution=8),
    "orthoglide-1x1x1": orthoglide_geometry_problem((1.0, 1.0, 1.0), (0.5, 2.0), resolution=8),
    **{name: analytic_preset(name)[0] for name in ("symmetric_quadratics", "biobjective_front")},
}


class TestLazyConstraints:
    """The search computes a trial's constraints only when its objectives
    alone could still beat the poll's running best; results are unchanged."""

    @settings(database=None, derandomize=True, deadline=None, max_examples=40)
    @given(
        name=st.sampled_from(sorted(LAZY_PROBLEMS)),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 3),
        budget=st.sampled_from((13, 40, 150)) | st.integers(1, 150),
    )
    @example(name="orthoglide-1x1x0.8", seed=7, count=2, budget=13)  # the budget runs out mid-poll
    @example(name="orthoglide-1x1x1", seed=3, count=1, budget=150)
    @example(name="symmetric_quadratics", seed=1, count=2, budget=13)
    @example(name="biobjective_front", seed=1, count=4, budget=60)
    def test_lazy_search_equals_eager(self, name, seed, count, budget):
        problem = LAZY_PROBLEMS[name]
        starts = starts_for(problem, count, seed)
        lazy = outcome(lambda p, s, b: goal_attain(p, s, budget=b), problem, starts, budget)
        assert lazy == outcome(eager_goal_attain, problem, starts, budget)

    def test_fewer_constraint_calls_on_orthoglide(self):
        problem, calls = counting(LAZY_PROBLEMS["orthoglide-1x1x0.8"])
        starts = starts_for(problem, 2, seed=5)
        eager = eager_goal_attain(problem, starts, budget=150)
        eager_calls = len(calls)
        calls.clear()
        lazy = goal_attain(problem, starts, budget=150)
        assert lazy.evaluations == eager.evaluations == eager_calls
        assert len(calls) < eager_calls


def without_bounds(problem):
    """``problem`` with every constraint's upper bound removed."""
    return replace(problem, constraints=tuple(replace(c, upper_bound=None) for c in problem.constraints))


BOUNDED_PROBLEMS = {name: LAZY_PROBLEMS[name] for name in ("orthoglide-1x1x0.8", "orthoglide-1x1x1")}


def raise_linalg(*args):
    raise np.linalg.LinAlgError("planted in the sweep")


@settings(database=None, derandomize=True, deadline=None, max_examples=60)
@given(
    name=st.sampled_from(sorted(BOUNDED_PROBLEMS)),
    unit=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
    fails=st.booleans(),
)
@example(name="orthoglide-1x1x0.8", unit=[0.0] * 6, fails=False)  # shortest legs and spans
@example(name="orthoglide-1x1x1", unit=[1.0] * 6, fails=False)
@example(name="orthoglide-1x1x1", unit=[0.5] * 6, fails=True)
def never_above_the_bound(short, name, unit, fails):
    """``evaluate(x) <= upper - short * step`` over designs of the problem's
    box, where ``(upper, value) = upper_bound(x)`` and ``step`` is one grid
    step (``a / N0``), and ``value()`` equals ``evaluate(x)``.  With
    ``fails`` the sweep raises a LinAlgError, so the exact value is -inf."""
    problem = BOUNDED_PROBLEMS[name]
    constraint = problem.constraints[0]
    lo, hi = problem.bounds.T
    design = lo + np.array(unit) * (hi - lo)
    upper, value = constraint.upper_bound(design)
    with pytest.MonkeyPatch.context() as patch:
        if fails:
            patch.setattr(kinematics, "_sym_eigvals_3x3", raise_linalg)
        exact = constraint.evaluate(design)
        assert float(value()).hex() == float(exact).hex()
    assert np.isfinite(upper)
    assert (exact == -np.inf) == fails
    assert exact <= upper - short * constraint.bound / CONSTRAINT_MARGIN_STEPS


class TestReachableBound:
    """The Orthoglide constraint's upper bound, the largest cuboid of the
    IK-reachable nodes, never falls below the exact value, and skipping the
    sweeps it rules out changes no result."""

    def test_exact_value_never_exceeds_the_bound(self):
        never_above_the_bound(short=0.0)

    def test_a_bound_one_grid_step_short_fails_the_property(self):
        # mu - 1 / N0 for the reachable cuboid's mu
        with pytest.raises(AssertionError):
            never_above_the_bound(short=1.0)

    def test_each_bound_value_sweeps_its_own_design_from_its_ik(self, monkeypatch):
        constraint = BOUNDED_PROBLEMS["orthoglide-1x1x0.8"].constraints[0]
        designs = starts_for(BOUNDED_PROBLEMS["orthoglide-1x1x0.8"], 6, seed=11)
        exact = [constraint.evaluate(x) for x in designs]
        assert len(set(exact)) > 2
        table_ik = kinematics._GridInverseKinematics.__call__
        calls = []

        def counted(self, lines):
            calls.append((lines.stop - lines.start) * self.axes[2].size)
            return table_ik(self, lines)

        def refused(positions, geometry):
            raise AssertionError("per-node IK in a grid sweep")

        monkeypatch.setattr(kinematics._GridInverseKinematics, "__call__", counted)
        monkeypatch.setattr(kinematics, "_batch_inverse_kinematics", refused)
        # every design bounded first, then the values taken in reverse order
        values = [constraint.upper_bound(x)[1] for x in designs]
        for value, expected in zip(values[::-1], exact[::-1]):
            assert float(value()).hex() == float(expected).hex()
        assert calls == [17**3] * len(designs)  # one block: one IK for a bound and its sweep
        # a value taken twice has used its IK up, and sweeps afresh
        assert float(values[0]()).hex() == float(exact[0]).hex()
        assert calls == [17**3] * (len(designs) + 1)

    def test_a_bound_and_its_value_build_one_set_of_tables(self, monkeypatch):
        # the C7 search's 33^3 grid, one transmission block
        problem = orthoglide_geometry_problem((1.0, 1.0, 0.8), (0.5, 2.0), resolution=16)
        constraint = problem.constraints[0]
        design = starts_for(problem, 1, seed=11)[0]
        exact = constraint.evaluate(design)
        build = kinematics._GridInverseKinematics.__init__
        grids = []

        def counted(self, spec, geometry):
            grids.append(spec.dims)
            build(self, spec, geometry)

        monkeypatch.setattr(kinematics._GridInverseKinematics, "__init__", counted)
        upper, value = constraint.upper_bound(design)
        assert exact <= upper and grids == [(33, 33, 33)]
        assert float(value()).hex() == float(exact).hex()
        assert grids == [(33, 33, 33)]

    @settings(database=None, derandomize=True, deadline=None, max_examples=20)
    @given(
        name=st.sampled_from(sorted(BOUNDED_PROBLEMS)),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 3),
        budget=st.sampled_from((13, 40, 150)) | st.integers(1, 150),
    )
    @example(name="orthoglide-1x1x0.8", seed=7, count=2, budget=13)  # the budget runs out mid-poll
    @example(name="orthoglide-1x1x1", seed=3, count=1, budget=150)
    def test_search_with_and_without_the_bound_alike(self, name, seed, count, budget):
        problem = BOUNDED_PROBLEMS[name]
        starts = starts_for(problem, count, seed)

        def solve(p, s, b):
            return goal_attain(p, s, budget=b)

        assert outcome(solve, problem, starts, budget) == outcome(solve, without_bounds(problem), starts, budget)

    def test_bound_skips_sweeps_and_keeps_exact_values(self, monkeypatch):
        name = "orthoglide-1x1x0.8"
        problem, calls = counting(BOUNDED_PROBLEMS[name])
        starts = starts_for(problem, 2, seed=5)
        plain = goal_attain(without_bounds(problem), starts, budget=150)
        plain_calls = len(calls)
        calls.clear()
        (constraint,) = problem.constraints
        asked = []

        def upper_bound(x):
            asked.append(np.array(x, copy=True))
            return constraint.upper_bound(x)

        problem = replace(problem, constraints=(replace(constraint, upper_bound=upper_bound),))
        evaluators = []

        class Recorded(optimize._ProblemEvaluator):
            def __init__(self, problem):
                super().__init__(problem)
                evaluators.append(self)

        monkeypatch.setattr(optimize, "_ProblemEvaluator", Recorded)
        bounded = goal_attain(problem, starts, budget=150)
        assert bounded.evaluations == plain.evaluations == len(evaluators[0].designs)
        # sweeps that the objective-only cutoff runs, skipped by the bound
        assert len(calls) < plain_calls
        (evaluator,) = evaluators
        assert bounded.evaluations == evaluator.evaluations
        # every bound is asked for at its key's first design, and a key that
        # its bound ruled out asks again when it is polled again
        asked_keys = [evaluator._key(x) for x in asked]
        for key, x in zip(asked_keys, asked):
            assert x.tobytes() == evaluator.designs[key][0].tobytes()
        ruled_out = set(asked_keys) - set(evaluator.constraints)
        assert ruled_out and any(asked_keys.count(key) > 1 for key in ruled_out)
        # each key's constraints are computed at most once, at its first design
        swept = [evaluator._key(x) for x in calls]
        assert len(swept) == len(set(swept)) == len(evaluator.constraints)
        for key, x in zip(swept, calls):
            assert x.tobytes() == evaluator.designs[key][0].tobytes()
        for key, constraints in evaluator.constraints.items():
            first = evaluator.designs[key][0]
            assert constraints.tobytes() == np.array([constraint.evaluate(first)]).tobytes()

    def test_type_error_in_the_bound_propagates(self):
        def broken(x):
            raise TypeError("deliberate")

        (constraint,) = BOUNDED_PROBLEMS["orthoglide-1x1x1"].constraints
        problem = replace(BOUNDED_PROBLEMS["orthoglide-1x1x1"], constraints=(replace(constraint, upper_bound=broken),))
        with pytest.raises(TypeError, match="deliberate"):
            goal_attain(problem, starts_for(problem, 1), budget=40)

    @pytest.mark.parametrize("error", [Infeasible, SingularJacobian, np.linalg.LinAlgError])
    def test_numeric_failure_in_the_bound_rules_nothing_out(self, error):
        failures = []

        def failing(x):
            failures.append(x)
            raise error("no bound here")

        plain, plain_calls = counting(without_bounds(BOUNDED_PROBLEMS["orthoglide-1x1x1"]))
        (constraint,) = plain.constraints
        problem = replace(plain, constraints=(replace(constraint, upper_bound=failing),))
        starts = starts_for(problem, 2, seed=4)

        def solve(p, s, b):
            return goal_attain(p, s, budget=b)

        expected = outcome(solve, plain, starts, 60)
        sweeps = len(plain_calls)
        plain_calls.clear()
        assert outcome(solve, problem, starts, 60) == expected
        assert len(failures) > 0
        assert len(plain_calls) == sweeps


class TestProblemEvaluator:
    def problem(self):
        objectives = tuple(
            Objective(lambda x, i=i: float(x[i]), goal=0.0, weight=1.0) for i in range(2)
        )
        constraint = WorkspaceConstraint(lambda x: float(x[0] - x[1]), bound=0.0)
        return counting(GoalProblem(objectives, (constraint,), np.array([[0.0, 2.0]] * 2)))

    def test_design_within_quantum_counts_once(self):
        problem, calls = self.problem()
        evaluator = _ProblemEvaluator(problem)
        first = np.array([0.25, 1.5])
        near = first + 0.2 * CACHE_QUANTUM
        assert not np.array_equal(near, first) and evaluator._key(near) == evaluator._key(first)
        values = evaluator.values(first)
        assert evaluator.evaluations == 1 and calls == []
        near_values, constraints = evaluator(near)
        assert evaluator.evaluations == 1
        assert near_values is values
        assert len(calls) == 1 and calls[0].tobytes() == first.tobytes()
        assert constraints.tolist() == [first[0] - first[1]]
        evaluator(first)
        assert evaluator.evaluations == 1 and len(calls) == 1

    def test_bound_that_rules_a_trial_out_is_not_a_value(self):
        problem, calls = self.problem()
        (constraint,) = problem.constraints
        bounds, finished = [], []

        def upper_bound(x):
            bounds.append(np.array(x, copy=True))

            def value():
                finished.append(np.array(x, copy=True))
                return constraint.evaluate(x)

            return float(x[0] - x[1]) + 0.25, value

        problem = replace(problem, constraints=(replace(constraint, upper_bound=upper_bound),))
        evaluator = _ProblemEvaluator(problem)
        first = np.array([0.25, 1.5])
        # residual at the bound: max(0, 0 - (-1.25 + 0.25)) = 1
        assert evaluator.penalty(first, 0.5, 3.0, 2.0) == 0.5 + 3.0 * 1.0
        assert evaluator.evaluations == 1 and calls == [] and len(bounds) == 1
        assert evaluator.constraints == {} and finished == []
        # polled again, the ruled-out key asks for its bound again, at its first design
        near = first + 0.2 * CACHE_QUANTUM
        assert evaluator.penalty(near, 0.5, 3.0, 2.0) == 0.5 + 3.0 * 1.0
        assert len(bounds) == 2 and bounds[1].tobytes() == first.tobytes()
        assert evaluator.evaluations == 1 and calls == [] and evaluator.constraints == {}
        # a higher cutoff needs the exact value: the trial's own bound's value, at the first design
        assert evaluator.penalty(near, 0.5, 3.0, 10.0) == 0.5 + 3.0 * 1.25
        assert len(bounds) == 3 and len(finished) == 1 and finished[0].tobytes() == first.tobytes()
        assert len(calls) == 1 and calls[0].tobytes() == first.tobytes()
        # known values answer without a bound; the part alone still cuts off
        assert evaluator.penalty(first, 0.5, 3.0, 2.0) == 0.5 + 3.0 * 1.25
        assert evaluator.penalty(near, 0.5, 3.0, 10.0) == 0.5 + 3.0 * 1.25
        assert evaluator.penalty(np.array([1.0, 1.0]), 2.0, 3.0, 2.0) == 2.0
        assert len(calls) == 1 and len(bounds) == 3 and len(finished) == 1
        assert evaluator.evaluations == len(evaluator.designs) == 1
        # a trial that its bound does not rule out takes the bound's value
        other = np.array([1.0, 0.5])
        assert evaluator.penalty(other, 0.5, 3.0, 10.0) == 0.5
        assert len(bounds) == 4 and len(finished) == 2 and finished[1].tobytes() == other.tobytes()
        assert len(calls) == 2 and evaluator.constraints[evaluator._key(other)].tolist() == [0.5]
        assert evaluator.evaluations == len(evaluator.designs) == 2

    def test_values_then_call_counts_once(self):
        problem, calls = self.problem()
        evaluator = _ProblemEvaluator(problem)
        x = np.array([1.0, 0.5])
        assert evaluator.values(x).tolist() == [1.0, 0.5]
        assert evaluator.evaluations == 1 and calls == []
        values, constraints = evaluator(x)
        assert values.tolist() == [1.0, 0.5] and constraints.tolist() == [0.5]
        assert evaluator.evaluations == 1 and len(calls) == 1
        evaluator.values(np.array([0.0, 0.0]))
        assert evaluator.evaluations == 2 and len(calls) == 1


class TestParetoFilter:
    def make_point(self, objectives, weights=(0.5, 0.5)):
        return ParetoPoint(
            design=np.zeros(1),
            objectives=np.asarray(objectives, dtype=float),
            weights=np.asarray(weights, dtype=float),
            attainment=0.0,
        )

    def test_points_compare_and_hash_by_value(self):
        a = self.make_point([1.0, 2.0])
        b = ParetoPoint(np.array([0.0]), np.array([1.0, 2.0]), np.array([0.5, 0.5]), attainment=0.0)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != self.make_point([1.0, 2.5])
        assert a != self.make_point([1.0, 2.0], weights=(0.25, 0.75))
        assert a != replace(a, attainment=0.5)
        assert a != replace(a, design=np.zeros((1, 1)))

    def test_dominated_point_removed(self):
        good = self.make_point([1.0, 2.0])
        bad = self.make_point([1.5, 2.5])
        kept = pareto_filter([good, bad])
        assert kept == [good]

    def test_idempotent_and_order_independent(self, rng):
        points = [self.make_point(rng.uniform(0, 1, size=2)) for _ in range(15)]
        once = pareto_filter(points)
        twice = pareto_filter(once)
        assert once == twice
        reversed_kept = pareto_filter(points[::-1])
        assert {tuple(p.objectives) for p in once} == {tuple(p.objectives) for p in reversed_kept}

    @settings(database=None, derandomize=True, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.lists(
                # exact ties and ties within the 1e-9 dominance tolerance
                st.lists(
                    st.sampled_from([0.0, 1.0, 1.0 + 5e-10, 2.0]) | st.floats(0.0, 2.0), min_size=dim, max_size=dim
                ),
                max_size=12,
            )
        ),
        st.data(),
    )
    def test_filter_idempotent_and_order_independent_property(self, objectives, data):
        points = [self.make_point(o) for o in objectives]
        once = pareto_filter(points)
        assert [id(p) for p in pareto_filter(once)] == [id(p) for p in once]
        order = data.draw(st.permutations(range(len(points))))
        shuffled = pareto_filter([points[i] for i in order])
        assert sorted(map(id, shuffled)) == sorted(map(id, once))

    def test_ties_are_kept(self):
        a = self.make_point([1.0, 2.0])
        b = self.make_point([1.0, 2.0])
        assert len(pareto_filter([a, b])) == 2

    def test_dominates_needs_strict_improvement(self):
        assert not dominates(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert dominates(np.array([1.0, 0.5]), np.array([1.0, 1.0]))


class TestParetoSweep:
    def test_single_weight_gives_singleton(self):
        problem, _ = analytic_preset("biobjective_front")
        front = pareto_sweep(problem, [np.array([0.5, 0.5])], starts_for(problem), budget=400)
        assert len(front.points) == 1

    def test_biobjective_front_identity(self):
        problem, weights = analytic_preset("biobjective_front")
        front = pareto_sweep(problem, weights, starts_for(problem), budget=500)
        assert len(front.points) == 11
        for point in front.points:
            total = np.sqrt(point.objectives[0]) + np.sqrt(point.objectives[1])
            assert total == pytest.approx(1.0, abs=1e-3)
            assert 0.0 - 1e-9 <= point.design[0] <= 1.0 + 1e-9

    @staticmethod
    def solved_on(monkeypatch, cpus, problem, weights, starts, budget):
        """The Pareto set on ``cpus`` CPUs and the threads its objectives ran in."""
        threads = set()

        def recorded(evaluate):
            def wrapper(x):
                threads.add(threading.current_thread())
                return evaluate(x)

            return wrapper

        objectives = tuple(replace(o, evaluate=recorded(o.evaluate)) for o in problem.objectives)
        on_cpus(monkeypatch, cpus)
        front = pareto_sweep(replace(problem, objectives=objectives), weights, starts, budget=budget)
        return front, threads

    def test_threaded_sweep_matches_serial(self, monkeypatch):
        biobjective, weights = analytic_preset("biobjective_front")
        orthoglide = orthoglide_geometry_problem((1.0, 1.0, 0.8), (0.5, 2.0), resolution=8)
        cases = (
            (biobjective, weights, starts_for(biobjective), 300),
            (orthoglide, [np.array([1.0, 1.0, 0.8]), np.array([0.8, 1.0, 1.0])], starts_for(orthoglide, 2), 40),
        )
        for problem, weights, starts, budget in cases:
            serial, serial_threads = self.solved_on(monkeypatch, 1, problem, weights, starts, budget)
            threaded, threads = self.solved_on(monkeypatch, 2, problem, weights, starts, budget)
            assert serial_threads == {threading.main_thread()}
            assert len(threads) >= 2  # the caller and a worker thread each ran solves
            assert len(serial.points) >= 2
            assert threaded.points == serial.points
            assert threaded.failures == serial.failures == []

    def test_many_solves_on_more_workers_than_cores(self, monkeypatch):
        # the solves share the problem and its grid's cached node positions
        problem = orthoglide_geometry_problem((1.0, 1.0, 0.8), (0.5, 2.0), resolution=8)
        weights = [np.array(w) for w in ([1.0, 1.0, 0.8], [0.8, 1.0, 1.0], [1.0, 0.8, 1.0], [1.0, 1.0, 1.0])]
        starts = starts_for(problem, 2)
        serial, _ = self.solved_on(monkeypatch, 1, problem, weights, starts, 40)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.perf_counter()
            stressed, threads = self.solved_on(monkeypatch, 8, problem, weights, starts, 40)
        finally:
            sys.setswitchinterval(interval)
        assert time.perf_counter() - started < 60.0
        assert len(threads) >= 2
        assert stressed.points == serial.points

    def test_mask_sweeps_inside_solves_run_inline(self, monkeypatch):
        # a mask's block loop inside a solve runs in that solve's thread, so
        # the sweep keeps one thread per CPU
        problem = orthoglide_geometry_problem((1.0, 1.0, 0.8), (0.5, 2.0), resolution=8)
        weights = [np.array([1.0, 1.0, 0.8]), np.array([0.8, 1.0, 1.0])]
        starts = starts_for(problem, 2)
        monkeypatch.setattr(kinematics, "TRANSMISSION_BLOCK_ROWS", 64)  # several blocks per mask
        kernel = kinematics._transmission_rows
        table_ik = kinematics._GridInverseKinematics.__call__
        threads = set()

        def recorded(positions, geometry, ik):
            threads.add(threading.current_thread())
            return kernel(positions, geometry, ik)

        def recorded_ik(self, lines):
            threads.add(threading.current_thread())
            return table_ik(self, lines)

        monkeypatch.setattr(kinematics, "_transmission_rows", recorded)
        monkeypatch.setattr(kinematics._GridInverseKinematics, "__call__", recorded_ik)
        serial, _ = self.solved_on(monkeypatch, 1, problem, weights, starts, 40)
        threads.clear()
        threaded, _ = self.solved_on(monkeypatch, 2, problem, weights, starts, 40)
        assert len(serial.points) >= 2
        assert threaded.points == serial.points
        assert len(threads) <= 2

    def test_failures_recorded_and_sweep_continues(self):
        problem = GoalProblem(
            objectives=(
                Objective(lambda x: float(x[0] ** 2), goal=0.0, weight=1.0),
                Objective(lambda x: float((x[0] - 1.0) ** 2), goal=0.0, weight=1.0),
            ),
            constraints=(WorkspaceConstraint(lambda x: -1.0, bound=0.0),),  # never satisfiable
            bounds=np.array([[0.0, 1.0]]),
        )
        front = pareto_sweep(problem, [np.array([0.5, 0.5]), np.array([1.0, 1.0])], starts_for(problem), budget=100)
        assert len(front.points) == 0
        assert len(front.failures) == 2

    def test_rejected_weights_recorded_as_failure(self):
        problem, _ = analytic_preset("biobjective_front")
        weights = [np.array([0.0, 0.0]), np.array([0.5, 0.5])]
        front = pareto_sweep(problem, weights, starts_for(problem), budget=100)
        assert len(front.points) == 1
        assert len(front.failures) == 1
        assert np.array_equal(front.failures[0][0], [0.0, 0.0])
        assert front.failures[0][1].startswith("ValueError")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_programming_error_propagates(self, cpus, monkeypatch):
        problem, weights = analytic_preset("biobjective_front")
        on_cpus(monkeypatch, cpus)
        with pytest.raises(TypeError):
            pareto_sweep(problem, weights[:2], [object()], budget=50)


class TestWorkspaceConstraint:
    def spec(self, resolution=8):
        dims = (2 * resolution + 1,) * 3
        return GridSpec(origin=(-1.0, -1.0, -1.0), proportions=(1.0, 1.0, 1.0), resolution=resolution, dims=dims)

    def sphere_factory(self, design):
        radius = float(design[0])
        return SimpleNamespace(batch=lambda positions: np.linalg.norm(positions, axis=1) <= radius)

    def test_zero_target_nonnegative(self):
        value = workspace_constraint(np.array([0.4]), self.sphere_factory, self.spec(), (0.0, 0.0, 0.0))
        assert value >= 0.0

    def test_oversized_target_negative(self):
        value = workspace_constraint(np.array([0.4]), self.sphere_factory, self.spec(), (5.0, 5.0, 5.0))
        assert value < 0.0

    def test_factory_failure_maps_to_sentinel(self):
        def broken(design):
            raise Infeasible("no predicate for you")

        value = workspace_constraint(np.array([0.4]), broken, self.spec(), (0.5, 0.5, 0.5))
        assert value == float("-inf")

    def test_factory_programming_error_propagates(self):
        def broken(design):
            raise TypeError("deliberate")

        with pytest.raises(TypeError, match="deliberate"):
            workspace_constraint(np.array([0.4]), broken, self.spec(), (0.5, 0.5, 0.5))

    def test_predicate_programming_error_propagates(self):
        def factory(design):
            class Broken:
                def batch(self, positions):
                    raise TypeError("deliberate")

            return Broken()

        with pytest.raises(TypeError, match="deliberate"):
            workspace_constraint(np.array([0.4]), factory, self.spec(), (0.5, 0.5, 0.5))

    def test_resolution_refinement_moves_h_at_most_one_step(self):
        design = np.array([0.731])
        coarse = workspace_constraint(design, self.sphere_factory, self.spec(8), (0.5, 0.5, 0.5))
        fine = workspace_constraint(design, self.sphere_factory, self.spec(16), (0.5, 0.5, 0.5))
        assert abs(coarse - fine) <= 1.0 / 8 + 1e-12


class TestOrthoglideProblem:
    def test_problem_shape(self):
        problem = orthoglide_geometry_problem((1.0, 1.0, 0.8), (0.5, 2.0), resolution=8)
        assert problem.design_dim == 6
        assert len(problem.objectives) == 3
        assert [o.weight for o in problem.objectives] == [1.0, 1.0, 0.8]
        assert len(problem.constraints) == 1
        assert problem.poll_directions is not None

    def test_objectives_are_leg_lengths(self):
        problem = orthoglide_geometry_problem((1.0, 1.0, 0.8), (0.5, 2.0), resolution=8)
        design = np.array([1.4, 1.5, 1.6, 2.0, 2.0, 2.0])
        assert [o.evaluate(design) for o in problem.objectives] == [1.4, 1.5, 1.6]

    def test_constraint_increases_with_leg_growth(self):
        problem = orthoglide_geometry_problem((1.0, 1.0, 0.8), (0.5, 2.0), resolution=8)
        h = problem.constraints[0].evaluate
        small = h(np.array([1.0, 1.0, 1.0, 2.2, 2.2, 2.2]))
        large = h(np.array([1.9, 1.9, 1.9, 2.2, 2.2, 2.2]))
        assert large >= small

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            orthoglide_geometry_problem((1.0, -1.0, 0.8), (0.5, 2.0))
        with pytest.raises(ValueError):
            orthoglide_geometry_problem((1.0, 1.0, 0.8), (2.0, 0.5))
        # a zero length or span would otherwise fail inside every evaluation
        for field in ("length_bounds", "span_bounds"):
            for pair in ((0.0, 3.0), (-0.5, 3.0), (2.0, 1.0), (1.0, 1.0), (np.nan, 3.0)):
                with pytest.raises(ValueError, match=field.replace("_", " ")):
                    orthoglide_geometry_problem((1.0, 1.0, 0.8), (0.5, 2.0), **{field: pair})


class TestProblemValidation:
    def test_requires_an_objective(self):
        with pytest.raises(ValueError):
            GoalProblem(objectives=(), constraints=(), bounds=np.array([[0.0, 1.0]]))

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ValueError):
            GoalProblem(
                objectives=(Objective(lambda x: 0.0, goal=0.0, weight=0.0),),
                constraints=(),
                bounds=np.array([[0.0, 1.0]]),
            )

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            GoalProblem(
                objectives=(Objective(lambda x: 0.0, goal=0.0, weight=-1.0),),
                constraints=(),
                bounds=np.array([[0.0, 1.0]]),
            )

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError):
            GoalProblem(
                objectives=(Objective(lambda x: 0.0, goal=0.0, weight=1.0),),
                constraints=(),
                bounds=np.array([[1.0, 1.0]]),
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["goal", "weight"])
    def test_rejects_non_finite_goals_and_weights(self, field, value):
        # a NaN goal makes the level NaN; an infinite goal or a non-finite
        # weight drops its objective from the level
        first = Objective(lambda x: float((x[0] - 1.0) ** 2), goal=0.0, weight=1.0)
        second = Objective(lambda x: float((x[0] + 1.0) ** 2), goal=0.0, weight=1.0)
        with pytest.raises(ValueError, match=f"{field}s must be finite"):
            GoalProblem((replace(first, **{field: value}), second), (), np.array([[-3.0, 3.0]]))
        problem, _ = analytic_preset("symmetric_quadratics")
        if field == "weight":
            with pytest.raises(ValueError, match="weights must be finite"):
                problem.with_weights([1.0, value])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_rejects_non_finite_bounds(self, side, value):
        bounds = np.array([[-3.0, 3.0]])
        bounds[0, side] = value
        objective = Objective(lambda x: float(x[0] ** 2), goal=0.0, weight=1.0)
        with pytest.raises(ValueError, match="bounds must be finite"):
            GoalProblem((objective,), (), bounds)


class TestProblemIdentity:
    def test_problems_compare_and_hash_by_identity(self):
        problem, _ = analytic_preset("symmetric_quadratics")
        assert problem == problem
        assert len({problem, problem}) == 1
        assert hash(problem) == hash(problem)
        weights = [o.weight for o in problem.objectives]
        assert problem.with_weights(weights) != problem
        assert replace(problem) != problem


class TestLatinHypercube:
    def test_stratified_and_in_bounds(self, rng):
        bounds = np.array([[0.0, 1.0], [10.0, 20.0]])
        sample = latin_hypercube(bounds, 16, rng)
        assert sample.shape == (16, 2)
        assert np.all(sample >= bounds[:, 0]) and np.all(sample <= bounds[:, 1])
        # one point per stratum along each axis
        strata = np.floor((sample[:, 0] - 0.0) / (1.0 / 16)).astype(int)
        assert sorted(strata.tolist()) == list(range(16))
