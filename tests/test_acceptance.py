"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The design-optimization criterion (C7) takes a few minutes; the
rest complete in seconds.
"""

import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from pkmforge.config import build_dynamics, build_geometry, build_grid, build_stiffness, default_config
from pkmforge.dynamics import acceleration_field, inertia_norm_field
from pkmforge.grid import (
    FeasibilityMask,
    GridSpec,
    ThresholdPredicate,
    brute_force_cuboid,
    largest_cuboid,
    nested_cuboids,
)
from pkmforge.kinematics import (
    GeometryParams,
    condition_field,
    forward_kinematics,
    inverse_kinematics,
    jacobian,
    kinematic_sample,
)
from pkmforge.optimize import (
    analytic_preset,
    goal_attain,
    latin_hypercube,
    orthoglide_geometry_problem,
    pareto_sweep,
)
from pkmforge.stiffness import ChainModel, chain_cartesian_stiffness, cross_section_sweep, deflection_field

SEED = 20240101


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def test_c1_dp_matches_brute_force_oracle():
    rng = np.random.default_rng(SEED)
    started = time.perf_counter()
    for _ in range(200):
        dims = rng.integers(2, 13, size=3)
        density = rng.uniform(0.1, 0.9)
        mask = FeasibilityMask(rng.random(dims) < density)
        spec = GridSpec(origin=(0, 0, 0), proportions=(1, 1, 1), resolution=4, dims=dims)
        assert largest_cuboid(mask, spec).node_edge == brute_force_cuboid(mask)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report("C1", f"200 random masks up to 12^3 match the exhaustive oracle in {elapsed:.2f}s")


def test_c2_isotropic_point():
    geometry = GeometryParams([1.0, 1.0, 1.0], [[-1.9, -0.1]] * 3)
    sample = kinematic_sample([0.0, 0.0, 0.0], geometry)
    assert np.array_equal(sample.jacobian, np.eye(3))
    assert abs(sample.cond - 1.0) <= 1e-12
    report("C2", f"J == I exactly at the symmetric center, cond deviates by {abs(sample.cond - 1.0):.2e}")


def test_c3_jacobian_finite_difference_agreement():
    geometry = GeometryParams([1.0, 1.0, 1.0], [[-1.9, -0.1]] * 3)
    rng = np.random.default_rng(SEED)
    step = 1e-6
    checked = 0
    worst = 0.0
    while checked < 100:
        p = rng.uniform(-0.45, 0.45, size=3)
        try:
            if kinematic_sample(p, geometry).sigma_min <= 0.1:
                continue
            rho = inverse_kinematics(p, geometry)
        except Exception:
            continue
        analytic = jacobian(p, rho)
        fd = np.empty((3, 3))
        for j in range(3):
            offset = np.zeros(3)
            offset[j] = step
            plus = forward_kinematics(rho + offset, geometry, p, residual_scale=1e-15)
            minus = forward_kinematics(rho - offset, geometry, p, residual_scale=1e-15)
            fd[:, j] = (plus - minus) / (2 * step)
        worst = max(worst, np.abs(fd - analytic).max() / np.abs(analytic).max())
        checked += 1
    assert worst <= 1e-6
    report("C3", f"100 poses with sigma_min > 0.1, worst FD relative error {worst:.2e}")


def random_chain(seed, passive_joints):
    """A chain with normal virtual-joint and passive-joint Jacobians and a
    well-conditioned SPD virtual-joint stiffness, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    j_virtual = rng.normal(size=(6, 12))
    root = rng.normal(size=(12, 12))
    k_virtual = root @ root.T + 12 * np.eye(12)
    j_passive = rng.normal(size=(6, passive_joints))
    return ChainModel(j_virtual, j_passive, k_virtual)


def test_c4_chain_stiffness_block_system():
    trivial = ChainModel(np.eye(6), np.zeros((6, 0)), 4.0 * np.eye(6))
    assert np.array_equal(chain_cartesian_stiffness(trivial).matrix, 4.0 * np.eye(6))
    worst = {"passive": 0.0, "oracle": 0.0}

    @settings(database=None, derandomize=True, deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1))
    def passive_axis_annihilated(seed):
        chain = random_chain(seed, 1)
        k = chain_cartesian_stiffness(chain).matrix
        axis = chain.j_passive[:, 0]
        error = abs(axis @ k @ axis) / np.abs(k).max()
        worst["passive"] = max(worst["passive"], error)
        assert error <= 1e-8

    @settings(database=None, derandomize=True, deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1))
    def projection_oracle_agrees(seed):
        chain = random_chain(seed, 2)
        k = chain_cartesian_stiffness(chain).matrix
        compliance = chain.j_virtual @ np.linalg.solve(chain.k_virtual, chain.j_virtual.T)
        basis = null_space(chain.j_passive.T)
        reference = basis @ np.linalg.solve(basis.T @ compliance @ basis, basis.T)
        error = np.abs(k - reference).max() / np.abs(reference).max()
        worst["oracle"] = max(worst["oracle"], error)
        assert error <= 1e-8

    passive_axis_annihilated()
    projection_oracle_agrees()
    report(
        "C4",
        f"trivial chain exact; passive annihilation {worst['passive']:.2e}; "
        f"projection-oracle agreement {worst['oracle']:.2e} over 50 drawn chains each",
    )


def test_c5_nested_cuboids_monotone_per_criterion():
    config = default_config()
    geometry = build_geometry(config)
    spec = build_grid(config)  # the default grid runs at resolution 32
    assert spec.resolution == 32
    stiffness_model, stiffness_spec = build_stiffness(config)
    inertia_model, dynamic_spec = build_dynamics(config)

    started = time.perf_counter()
    ladders = {
        "kinematic": (condition_field(geometry), "below", [1.5, 2.0, 2.5, 3.0, 4.0]),
        "stiffness": (
            deflection_field(stiffness_model, stiffness_spec.load),
            "below",
            [2e-5, 4e-5, 8e-5, 1.6e-4, 3.2e-4],
        ),
        "gie": (inertia_norm_field(geometry, inertia_model), "below", [22.0, 26.0, 32.0, 40.0, 80.0]),
        "acceleration": (
            acceleration_field(geometry, inertia_model, dynamic_spec.torque_limits),
            "above",
            [13.0, 12.0, 11.0, 10.0, 8.0],
        ),
    }
    edges = {}
    for name, (field, direction, thresholds) in ladders.items():
        results = nested_cuboids(spec, lambda t: ThresholdPredicate(field, t, direction), thresholds)
        edges[name] = [r.node_edge for r in results]
        assert edges[name] == sorted(edges[name]), f"{name} ladder not monotone: {edges[name]}"
        assert edges[name][-1] > edges[name][0], f"{name} ladder never transitions: {edges[name]}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report("C5", f"5-level ladders monotone for all criteria at N0=32 in {elapsed:.1f}s; edges {edges}")


def test_c6_goal_attainment_analytic_suite():
    rng = np.random.default_rng(SEED)

    problem, _ = analytic_preset("symmetric_quadratics")
    result = goal_attain(problem, latin_hypercube(problem.bounds, 4, rng), budget=500)
    assert abs(result.lambda_star - 1.0) <= 1e-4

    problem, _ = analytic_preset("over_attained")
    over = goal_attain(problem, latin_hypercube(problem.bounds, 4, rng), budget=500)
    assert abs(over.lambda_star + 1.0) <= 1e-4
    assert over.lambda_star < 0.0

    problem, weights = analytic_preset("biobjective_front")
    front = pareto_sweep(problem, weights, latin_hypercube(problem.bounds, 4, rng), budget=500)
    assert len(front.points) == 11
    worst = max(abs(np.sqrt(p.objectives[0]) + np.sqrt(p.objectives[1]) - 1.0) for p in front.points)
    assert worst <= 1e-3
    report(
        "C6",
        f"level 1.0 and -1.0 anchors hit within 1e-4; 11-point front obeys "
        f"sqrt(f1)+sqrt(f2)=1 within {worst:.1e}",
    )


def test_c7_geometry_synthesis_qualitative():
    started = time.perf_counter()
    solutions = {}
    for target in ((1.0, 1.0, 0.8), (1.0, 1.0, 1.0)):
        problem = orthoglide_geometry_problem(target, (0.5, 2.0), resolution=16)
        starts = latin_hypercube(problem.bounds, 4, np.random.default_rng(SEED))
        result = goal_attain(problem, starts, budget=900)
        assert result.feasible
        # verify the winning design on the fine grid of the schedule
        fine = orthoglide_geometry_problem(target, (0.5, 2.0), resolution=64)
        fine_value = fine.constraints[0].evaluate(result.pi_star)
        assert fine_value >= 0.0, f"fine-grid workspace misses target {target} by {-fine_value:.4f}"
        solutions[target] = result.pi_star[:3]

    lengths = solutions[(1.0, 1.0, 0.8)]
    assert abs(lengths[0] - lengths[1]) <= 0.02 * lengths[0]
    assert lengths[2] < lengths[0]

    symmetric = solutions[(1.0, 1.0, 1.0)]
    spread = (symmetric.max() - symmetric.min()) / symmetric.max()
    assert spread <= 0.02

    # shrinking the target never grows the legs (2% solver slack)
    assert np.all(lengths <= symmetric * 1.02)

    elapsed = time.perf_counter() - started
    assert elapsed < 15 * 60.0
    report(
        "C7",
        f"target 1x1x0.8 -> L={np.round(lengths, 4)} (x/y within "
        f"{abs(lengths[0] - lengths[1]) / lengths[0]:.3%}, shorter z leg); "
        f"target 1x1x1 -> spread {spread:.3%}; {elapsed:.0f}s total",
    )


def test_c8_cross_section_scaling_interior_optimum():
    config = default_config()
    model, stiffness_spec = build_stiffness(config)
    factors = np.linspace(0.5, 3.0, 26)
    pose = [0.2, 0.25, -0.1]
    values = cross_section_sweep(model, pose, stiffness_spec.load, factors)
    best = int(np.argmin(values))
    assert 0 < best < len(factors) - 1
    assert values[best] < values[0]
    assert values[best] < values[-1]
    report(
        "C8",
        f"deflection vs. reshape factor has an interior minimum at "
        f"{factors[best]:.2f} ({values[best]:.3e} m vs. endpoints "
        f"{values[0]:.3e} / {values[-1]:.3e} m)",
    )
