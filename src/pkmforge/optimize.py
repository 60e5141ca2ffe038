"""Goal-attainment design optimization over workspace-based constraints.

The scalarization minimizes a common attainment level ``lam`` subject to
``f_i(x) - w_i * lam <= goal_i`` and ``h_k(x) >= bound_k``.  At a fixed
design ``x`` the smallest admissible level is the weighted minimax

    lam(x) = max over i with w_i > 0 of (f_i(x) - goal_i) / w_i

so the search runs directly on ``lam(x)`` plus an exact penalty on the
constraint residual.  Objectives with zero weight become hard caps
``f_i(x) <= goal_i`` folded into the penalty.  A negative optimal level
means every goal was over-attained.

Because workspace constraints are piecewise constant in the design (they
change only when the inscribed-cuboid node count jumps), the solver is a
derivative-free bounded pattern search with coordinate step halving,
optional extra poll directions for minimax ridges, multistart, and penalty
escalation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import Infeasible, PkmforgeError
from .grid import GridSpec, _ValueSemantics, evaluate_mask, largest_cuboid, parallel_map
from .kinematics import GeometryParams, transmission_predicate

LAMBDA_TOL = 1e-6
CONSTRAINT_TOL = 1e-6
PENALTY_SCHEDULE = (1e1, 1e3, 1e5)
INITIAL_STEP_FRACTION = 0.25
STEP_TOLERANCE_FRACTION = 1e-7
EXTENT_FACTOR = 2.0
CONSTRAINT_MARGIN_STEPS = 1.0
DOMINANCE_TOL = 1e-9
CACHE_QUANTUM = 1e-9
INFEASIBLE_SENTINEL = float("-inf")


@dataclass(frozen=True)
class Objective:
    evaluate: Callable[[np.ndarray], float]
    goal: float
    weight: float


@dataclass(frozen=True)
class WorkspaceConstraint:
    """Scalar constraint ``evaluate(x) >= bound``."""

    evaluate: Callable[[np.ndarray], float]
    bound: float


@dataclass(frozen=True, eq=False)
class GoalProblem:
    """Objectives with goals/weights, lower-bounded constraints, box bounds.

    A problem holds callables, which have no value to compare, so problems
    compare and hash by identity: a problem equals only itself, and
    ``with_weights`` returns a new, unequal one.
    """

    objectives: tuple[Objective, ...]
    constraints: tuple[WorkspaceConstraint, ...]
    bounds: np.ndarray
    poll_directions: Optional[tuple[np.ndarray, ...]] = None

    def __post_init__(self):
        objectives = tuple(self.objectives)
        constraints = tuple(self.constraints)
        bounds = np.asarray(self.bounds, dtype=float)
        if len(objectives) == 0:
            raise ValueError("need at least one objective")
        weights = np.array([o.weight for o in objectives])
        if np.any(weights < 0.0) or not np.any(weights > 0.0):
            raise ValueError("weights must be >= 0 and not all zero")
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise ValueError(f"bounds must have shape (n, 2), got {bounds.shape}")
        if np.any(bounds[:, 0] >= bounds[:, 1]):
            raise ValueError("bounds must satisfy lower < upper")
        object.__setattr__(self, "objectives", objectives)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "bounds", bounds)
        if self.poll_directions is not None:
            dirs = tuple(np.asarray(d, dtype=float) for d in self.poll_directions)
            object.__setattr__(self, "poll_directions", dirs)

    @property
    def design_dim(self) -> int:
        return self.bounds.shape[0]

    def with_weights(self, weights) -> "GoalProblem":
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(self.objectives),):
            raise ValueError("weight vector length must match the objective count")
        objectives = tuple(replace(o, weight=float(w)) for o, w in zip(self.objectives, weights))
        return replace(self, objectives=objectives)


@dataclass
class AttainmentResult:
    pi_star: np.ndarray
    lambda_star: float
    feasible: bool
    evaluations: int
    objective_values: np.ndarray
    constraint_values: np.ndarray
    status: str  # "converged" or "budget_exhausted"


@dataclass(frozen=True, eq=False)
class ParetoPoint(_ValueSemantics):
    """One solved weight vector; points compare and hash by value."""

    design: np.ndarray
    objectives: np.ndarray
    weights: np.ndarray
    attainment: float


@dataclass
class ParetoSet:
    points: list[ParetoPoint]
    failures: list[tuple[np.ndarray, str]] = field(default_factory=list)


def attainment_level(values, goals, weights) -> float:
    """Smallest level satisfying every weighted objective row at fixed values.

    This is the exact minimax transform of the goal-attainment rows; rows
    with zero weight do not participate (they are hard caps handled by the
    penalty instead).
    """
    values = np.asarray(values, dtype=float)
    goals = np.asarray(goals, dtype=float)
    weights = np.asarray(weights, dtype=float)
    active = weights > 0.0
    if not np.any(active):
        raise ValueError("at least one weight must be positive")
    return float(np.max((values[active] - goals[active]) / weights[active]))


class _ProblemEvaluator:
    """Caches objective/constraint evaluations keyed on the quantized design."""

    def __init__(self, problem: GoalProblem):
        self.problem = problem
        self.cache: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        self.evaluations = 0

    def _key(self, x: np.ndarray) -> tuple[int, ...]:
        return tuple(int(v) for v in np.round(x / CACHE_QUANTUM))

    def __call__(self, x: np.ndarray):
        key = self._key(x)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        values = np.array([o.evaluate(x) for o in self.problem.objectives], dtype=float)
        constraints = np.array([c.evaluate(x) for c in self.problem.constraints], dtype=float)
        self.evaluations += 1
        self.cache[key] = (values, constraints)
        return values, constraints

    def residual(self, values: np.ndarray, constraints: np.ndarray) -> float:
        total = 0.0
        for c, value in zip(self.problem.constraints, constraints):
            total += max(0.0, c.bound - value)
        for o, value in zip(self.problem.objectives, values):
            if o.weight == 0.0:
                total += max(0.0, value - o.goal)
        return total

    def level(self, values: np.ndarray) -> float:
        goals = np.array([o.goal for o in self.problem.objectives])
        weights = np.array([o.weight for o in self.problem.objectives])
        return attainment_level(values, goals, weights)

    def squared_excess(self, values: np.ndarray) -> float:
        """Sum of squared weighted goal excesses; the lexicographic tie-breaker.

        Within the level-optimal set this prefers the equalized solution (the
        squares penalize spread), which is what breaks staircase ties that
        the plain level cannot resolve.
        """
        total = 0.0
        for o, value in zip(self.problem.objectives, values):
            if o.weight > 0.0:
                total += ((value - o.goal) / o.weight) ** 2
        return total


def latin_hypercube(bounds, count: int, rng: np.random.Generator) -> np.ndarray:
    """Latin hypercube sample of designs inside the box bounds."""
    bounds = np.asarray(bounds, dtype=float)
    dim = bounds.shape[0]
    u = (rng.random((count, dim)) + np.stack([rng.permutation(count) for _ in range(dim)], axis=1)) / count
    return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])


def pattern_search(
    func: Callable[[np.ndarray], float],
    start: np.ndarray,
    bounds: np.ndarray,
    budget: int,
    evaluations_used: Callable[[], int],
    extra_directions: Sequence[np.ndarray] = (),
):
    """Bounded coordinate pattern search with step halving.

    Polls +/- every coordinate plus any extra directions (scaled by the
    per-coordinate steps, which start at ``INITIAL_STEP_FRACTION`` of the
    box span), moves greedily to the best improving trial, and halves the
    steps when no poll improves.  Stops once every step is at most
    ``STEP_TOLERANCE_FRACTION`` of its span, or when ``evaluations_used``
    exceeds the budget.  Returns (x, f, converged).
    """
    bounds = np.asarray(bounds, dtype=float)
    span = bounds[:, 1] - bounds[:, 0]
    steps = INITIAL_STEP_FRACTION * span
    x = np.clip(np.asarray(start, dtype=float), bounds[:, 0], bounds[:, 1])
    fx = func(x)
    dim = x.size

    directions = [np.eye(dim)[i] for i in range(dim)]
    directions += [np.asarray(d, dtype=float) for d in extra_directions]

    while evaluations_used() < budget:
        best_trial = None
        best_value = fx
        for direction in directions:
            for sign in (1.0, -1.0):
                if evaluations_used() >= budget:
                    break
                trial = np.clip(x + sign * direction * steps, bounds[:, 0], bounds[:, 1])
                if np.array_equal(trial, x):
                    continue
                value = func(trial)
                if value < best_value:
                    best_value = value
                    best_trial = trial
            if evaluations_used() >= budget:
                break
        if best_trial is not None:
            x, fx = best_trial, best_value
        else:
            steps = steps / 2.0
            if np.all(steps <= STEP_TOLERANCE_FRACTION * span):
                return x, fx, True
    return x, fx, False


def goal_attain(
    problem: GoalProblem,
    starts: Sequence[np.ndarray],
    budget: int,
) -> AttainmentResult:
    """Minimize the attainment level over the design box, multistarted.

    Each start runs the pattern search on ``lam(x) + rho * residual(x)``
    with the penalty factor ``rho`` escalated through ``PENALTY_SCHEDULE``
    (restarting from the incumbent) until the constraint residual is at
    most ``CONSTRAINT_TOL``.  A lexicographic pass follows: minimize the
    sum of squared weighted goal excesses subject to the attainment level
    not degrading by more than ``LAMBDA_TOL``, which pins objectives that
    the minimax level alone leaves free on its ridge; when it moves the
    design, the minimax stage and the pass run once more from there.
    Raises Infeasible when no start reaches a feasible design within its
    budget.
    """
    bounds = np.asarray(problem.bounds, dtype=float)
    starts = [np.asarray(s, dtype=float) for s in starts]
    inside = [s for s in starts if np.all(s >= bounds[:, 0]) and np.all(s <= bounds[:, 1])]
    if not inside:
        raise ValueError("at least one start must lie inside the bounds")

    evaluator = _ProblemEvaluator(problem)
    extra = problem.poll_directions or ()

    best: Optional[tuple[float, np.ndarray, bool]] = None  # (lambda, x, converged)
    for start in inside:
        start_budget_base = evaluator.evaluations

        def used() -> int:
            return evaluator.evaluations - start_budget_base

        def minimax_stage(x0, converged0):
            x, converged = x0, converged0
            for rho in PENALTY_SCHEDULE:

                def penalized(design, rho=rho):
                    values, constraints = evaluator(design)
                    return evaluator.level(values) + rho * evaluator.residual(values, constraints)

                x, _, converged = pattern_search(
                    penalized, x, bounds, budget, used, extra_directions=extra
                )
                values, constraints = evaluator(x)
                if evaluator.residual(values, constraints) <= CONSTRAINT_TOL:
                    break
            return x, converged

        def refine_stage(x0):
            values, constraints = evaluator(x0)
            if evaluator.residual(values, constraints) > CONSTRAINT_TOL:
                return x0
            cap = evaluator.level(values) + LAMBDA_TOL
            rho = PENALTY_SCHEDULE[-1]
            guard = 1e6 * max(1.0, abs(cap))

            def lexicographic(design):
                values, constraints = evaluator(design)
                total = evaluator.squared_excess(values)
                total += guard * max(0.0, evaluator.level(values) - cap)
                total += rho * guard * evaluator.residual(values, constraints)
                return total

            x, _, _ = pattern_search(lexicographic, x0, bounds, budget, used, extra_directions=extra)
            values, constraints = evaluator(x)
            if evaluator.residual(values, constraints) <= CONSTRAINT_TOL and evaluator.level(values) <= cap:
                return x
            return x0

        x, converged = minimax_stage(start, False)
        refined = refine_stage(x)
        if not np.array_equal(refined, x):
            x, converged = minimax_stage(refined, converged)
            refined = refine_stage(x)
        x = refined

        values, constraints = evaluator(x)
        if evaluator.residual(values, constraints) > CONSTRAINT_TOL:
            continue
        lam = evaluator.level(values)
        if best is None or lam < best[0] or (lam == best[0] and converged and not best[2]):
            best = (lam, x, converged)

    if best is None:
        raise Infeasible("no start reached a feasible design within its budget")

    lam, x, converged = best
    values, constraints = evaluator(x)
    return AttainmentResult(
        pi_star=x,
        lambda_star=lam,
        feasible=True,
        evaluations=evaluator.evaluations,
        objective_values=values,
        constraint_values=constraints,
        status="converged" if converged else "budget_exhausted",
    )


def dominates(first: np.ndarray, second: np.ndarray) -> bool:
    """Componentwise ``first <= second`` with at least one strict improvement,
    both up to ``DOMINANCE_TOL``."""
    return bool(np.all(first <= second + DOMINANCE_TOL) and np.any(first < second - DOMINANCE_TOL))


def pareto_filter(points: Sequence[ParetoPoint]) -> list[ParetoPoint]:
    """Drop every point dominated by another; idempotent, order independent."""
    kept = []
    for i, candidate in enumerate(points):
        dominated = False
        for j, other in enumerate(points):
            if i == j:
                continue
            if dominates(other.objectives, candidate.objectives):
                dominated = True
                break
        if not dominated:
            kept.append(candidate)
    return kept


def pareto_sweep(
    problem: GoalProblem,
    weight_vectors: Sequence[np.ndarray],
    starts: Sequence[np.ndarray],
    budget: int,
) -> ParetoSet:
    """One goal-attainment solve per weight vector, dominance filtered.

    The solves are independent and run on ``grid.parallel_map``, one worker
    per CPU, and come back in input order, so the set does not depend on the
    CPU count.  A weight vector that ``problem.with_weights`` rejects
    (ValueError), or whose solve raises a PkmforgeError or LinAlgError, is
    recorded as a failure and the sweep continues; any other exception
    propagates.
    """
    weight_vectors = [np.asarray(w, dtype=float) for w in weight_vectors]

    def solve(weights):
        """The solved point, or the failure's message."""
        try:
            weighted = problem.with_weights(weights)
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"
        try:
            result = goal_attain(weighted, starts, budget=budget)
        except (PkmforgeError, np.linalg.LinAlgError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return ParetoPoint(
            design=result.pi_star,
            objectives=result.objective_values,
            weights=weights,
            attainment=result.lambda_star,
        )

    outcomes = parallel_map(solve, weight_vectors)
    points = [outcome for outcome in outcomes if isinstance(outcome, ParetoPoint)]
    failures = [(w, outcome) for w, outcome in zip(weight_vectors, outcomes) if isinstance(outcome, str)]
    return ParetoSet(points=pareto_filter(points), failures=failures)


# ---------------------------------------------------------------------------
# analytic presets with known solutions (used as CLI presets and test anchors)
# ---------------------------------------------------------------------------


def analytic_preset(name: str) -> tuple[GoalProblem, Optional[list[np.ndarray]]]:
    """Small closed-form problems; returns (problem, default sweep weights).

    symmetric_quadratics: f = ((x-1)^2, (x+1)^2), goals 0 -> level 1 at x=0.
    over_attained:        f = (x^2,), goal 1 -> level -1 at x=0.
    linear_minimax:       f = (x, -x) on [-1, 1], goals 0 -> level 0 at x=0.
    biobjective_front:    f = (x^2, (x-1)^2) on [0, 1]; the exact front obeys
                          sqrt(f1) + sqrt(f2) = 1.
    """
    if name == "symmetric_quadratics":
        problem = GoalProblem(
            objectives=(
                Objective(lambda x: float((x[0] - 1.0) ** 2), goal=0.0, weight=1.0),
                Objective(lambda x: float((x[0] + 1.0) ** 2), goal=0.0, weight=1.0),
            ),
            constraints=(),
            bounds=np.array([[-3.0, 3.0]]),
        )
        return problem, None
    if name == "over_attained":
        problem = GoalProblem(
            objectives=(Objective(lambda x: float(x[0] ** 2), goal=1.0, weight=1.0),),
            constraints=(),
            bounds=np.array([[-3.0, 3.0]]),
        )
        return problem, None
    if name == "linear_minimax":
        problem = GoalProblem(
            objectives=(
                Objective(lambda x: float(x[0]), goal=0.0, weight=1.0),
                Objective(lambda x: float(-x[0]), goal=0.0, weight=1.0),
            ),
            constraints=(),
            bounds=np.array([[-1.0, 1.0]]),
        )
        return problem, None
    if name == "biobjective_front":
        problem = GoalProblem(
            objectives=(
                Objective(lambda x: float(x[0] ** 2), goal=0.0, weight=1.0),
                Objective(lambda x: float((x[0] - 1.0) ** 2), goal=0.0, weight=1.0),
            ),
            constraints=(),
            bounds=np.array([[0.0, 1.0]]),
        )
        weights = [np.array([k / 10.0, 1.0 - k / 10.0]) for k in range(11)]
        return problem, weights
    raise ValueError(f"unknown analytic preset {name!r}")


# ---------------------------------------------------------------------------
# workspace-based constraints and the geometry design problem
# ---------------------------------------------------------------------------


def workspace_constraint(
    design: np.ndarray,
    predicate_factory: Callable[[np.ndarray], object],
    spec: GridSpec,
    target: Sequence[float],
) -> float:
    """Scalarized workspace-size constraint value for one design.

    Builds the design's feasibility predicate, sweeps the grid, and returns
    ``mu * a - a0`` where ``a`` is the first cuboid proportion and ``a0`` the
    first target extent (callers choose proportions matching the target, so
    one axis decides).  A PkmforgeError or LinAlgError maps to -inf (an
    infeasible design); any other exception propagates.
    """
    target = np.asarray(target, dtype=float)
    try:
        predicate = predicate_factory(np.asarray(design, dtype=float))
        mask = evaluate_mask(spec, predicate)
        result = largest_cuboid(mask, spec)
    except (PkmforgeError, np.linalg.LinAlgError):
        return INFEASIBLE_SENTINEL
    return float(result.mu * spec.proportions[0] - target[0])


def orthoglide_geometry_problem(
    target: Sequence[float],
    sigma_range: tuple[float, float],
    resolution: int = 16,
    length_bounds: tuple[float, float] = (0.7, 3.0),
    span_bounds: tuple[float, float] = (0.4, 3.4),
) -> GoalProblem:
    """Leg-length minimization subject to a conditioned-workspace target.

    Design vector: (L_x, L_y, L_z, span_x, span_y, span_z) where span_i is
    the drive travel centered on the leg's home position.  Objectives are
    the three leg lengths with goals 0 and weights proportional to the
    target extents, so equal attainment shapes the legs like the target.
    The constraint requires the inscribed cuboid of the velocity-transmission
    region to cover the target box, with a safety margin of
    ``CONSTRAINT_MARGIN_STEPS`` grid steps.  The grid is centered on the
    origin, spans ``EXTENT_FACTOR`` target extents per axis and has
    ``EXTENT_FACTOR * resolution + 1`` nodes per axis.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (3,) or np.any(target <= 0.0):
        raise ValueError(f"target must be three positive extents, got {target}")
    lo, hi = sigma_range
    if not 0.0 < lo < hi:
        raise ValueError(f"sigma range must satisfy 0 < lo < hi, got {sigma_range}")

    dims = tuple(int(round(EXTENT_FACTOR * resolution)) + 1 for _ in range(3))
    origin = -0.5 * EXTENT_FACTOR * target
    spec = GridSpec(origin=origin, proportions=target, resolution=resolution, dims=dims)

    def predicate_factory(design: np.ndarray):
        lengths = design[:3]
        spans = design[3:]
        centers = -lengths  # home drive position of the (-1, -1, -1) branch
        limits = np.column_stack([centers - spans / 2.0, centers + spans / 2.0])
        geometry = GeometryParams(
            leg_lengths=lengths, joint_limits=limits, assembly_signs=(-1.0, -1.0, -1.0)
        )
        return transmission_predicate(geometry, sigma_range=(lo, hi))

    margin = CONSTRAINT_MARGIN_STEPS * float(spec.steps[0])

    def constraint_value(design: np.ndarray) -> float:
        return workspace_constraint(design, predicate_factory, spec, target)

    objectives = tuple(
        Objective(evaluate=(lambda x, i=i: float(x[i])), goal=0.0, weight=float(target[i]))
        for i in range(3)
    )
    bounds = np.array([[length_bounds[0], length_bounds[1]]] * 3 + [[span_bounds[0], span_bounds[1]]] * 3)
    # weighted leg-block polls: the full ridge plus every pairwise sum and
    # trade, so the search can walk the minimax ridge and the constraint
    # staircase instead of stalling on single coordinates
    weights = target / np.max(target)
    combos = []
    for signs in ((1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1)):
        direction = np.zeros(6)
        direction[:3] = weights * signs
        combos.append(direction)
    return GoalProblem(
        objectives=objectives,
        constraints=(WorkspaceConstraint(evaluate=constraint_value, bound=margin),),
        bounds=bounds,
        poll_directions=tuple(combos),
    )
