import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import on_cpus
from pkmforge.errors import Infeasible
from pkmforge.grid import GridSpec
from pkmforge.optimize import (
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
            assert threads and threading.main_thread() not in threads
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
        assert len(threads) > 1 and threading.main_thread() not in threads
        assert stressed.points == serial.points

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
