import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import on_cpus, sample_reachable_points
from pkmforge import _spectral, dynamics, grid, kinematics, stiffness
from pkmforge.config import build_dynamics, build_stiffness, default_config
from pkmforge.errors import Infeasible, NoConvergence, Singular
from pkmforge.kinematics import (
    TRANSMISSION_BLOCK_ROWS,
    GeometryParams,
    batch_transmission,
    condition_field,
    forward_kinematics,
    inverse_kinematics,
    jacobian,
    kinematic_sample,
    leg_residuals,
    rate_matrix,
    transmission_predicate,
)


class TestInverseKinematics:
    def test_symmetric_origin(self, symmetric_geometry):
        rho = inverse_kinematics([0, 0, 0], symmetric_geometry)
        assert np.array_equal(rho, [-1.0, -1.0, -1.0])

    def test_positive_branch_leg_x(self):
        # 0.8^2 + 0.6^2 = 1: the x drive sits at 0.8 on the + branch
        geometry = GeometryParams([1, 1, 1], [[-3, 3]] * 3, assembly_signs=[1, 1, 1])
        rho = inverse_kinematics([0.0, 0.6, 0.0], geometry)
        assert rho[0] == pytest.approx(0.8, abs=1e-15)
        assert abs(leg_residuals([0.0, 0.6, 0.0], rho, geometry)[0]) == 0.0

    def test_out_of_reach(self, symmetric_geometry):
        with pytest.raises(Infeasible):
            inverse_kinematics([0.0, 1.1, 0.0], symmetric_geometry)

    def test_joint_limit_violation(self):
        geometry = GeometryParams([1, 1, 1], [[-0.5, 0.5]] * 3)
        with pytest.raises(Infeasible):
            inverse_kinematics([0, 0, 0], geometry)  # rho = -1 outside [-0.5, 0.5]

    def test_residuals_within_tolerance(self, symmetric_geometry, rng):
        lengths_sq = symmetric_geometry.leg_lengths**2
        for p in sample_reachable_points(symmetric_geometry, rng, 50):
            rho = inverse_kinematics(p, symmetric_geometry)
            residual = np.abs(leg_residuals(p, rho, symmetric_geometry))
            assert np.all(residual <= 1e-9 * lengths_sq)


class TestForwardKinematics:
    def test_identity_case(self, symmetric_geometry):
        p = forward_kinematics([-1, -1, -1], symmetric_geometry, [0.1, 0.1, 0.1])
        assert np.allclose(p, 0.0, atol=1e-9)

    def test_round_trip(self, symmetric_geometry, rng):
        for p in sample_reachable_points(symmetric_geometry, rng, 100):
            rho = inverse_kinematics(p, symmetric_geometry)
            seed = p + rng.uniform(-0.02, 0.02, size=3)
            recovered = forward_kinematics(rho, symmetric_geometry, seed)
            assert np.linalg.norm(recovered - p) <= 1e-8

    @settings(database=None, derandomize=True, deadline=None)
    @given(
        st.lists(st.floats(0.7, 3.0), min_size=3, max_size=3),
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3),
        st.tuples(*[st.floats(-0.3, 0.3)] * 3),
        st.tuples(*[st.floats(-0.02, 0.02)] * 3),
    )
    def test_round_trip_property(self, lengths, signs, unit_point, unit_offset):
        # |p_j| <= 0.3 L_min keeps every leg well inside its reach, on either branch
        lengths = np.array(lengths)
        geometry = GeometryParams(lengths, [[-4.0 * lengths.max(), 4.0 * lengths.max()]] * 3, signs)
        p = np.array(unit_point) * lengths.min()
        rho = inverse_kinematics(p, geometry)
        recovered = forward_kinematics(rho, geometry, p + np.array(unit_offset) * lengths.min())
        assert np.linalg.norm(recovered - p) <= 1e-8 * lengths.max()

    def test_singular_seed_raises(self, symmetric_geometry):
        # at p = 0 the residual Jacobian row of a zeroed drive vanishes
        with pytest.raises(NoConvergence):
            forward_kinematics([0.0, -1.0, -1.0], GeometryParams([1, 1, 1], [[-3, 3]] * 3), [0.0, 0.0, 0.0])

    def test_iteration_cap(self, symmetric_geometry):
        with pytest.raises(NoConvergence):
            forward_kinematics([-1, -1, -1], symmetric_geometry, [0.4, -0.3, 0.2], max_iterations=1)


class TestJacobian:
    def test_identity_at_origin(self):
        assert np.array_equal(jacobian([0, 0, 0], [-1, -0.7, -1.3]), np.eye(3))

    def test_finite_difference_agreement(self, symmetric_geometry, rng):
        # central differences of the forward map, solved to near machine
        # precision so the quotient noise stays far below the tolerance
        step = 1e-6
        points = sample_reachable_points(symmetric_geometry, rng, 100, sigma_min_floor=0.1)
        for p in points:
            rho = inverse_kinematics(p, symmetric_geometry)
            analytic = jacobian(p, rho)
            fd = np.empty((3, 3))
            for j in range(3):
                offset = np.zeros(3)
                offset[j] = step
                plus = forward_kinematics(rho + offset, symmetric_geometry, p, residual_scale=1e-15)
                minus = forward_kinematics(rho - offset, symmetric_geometry, p, residual_scale=1e-15)
                fd[:, j] = (plus - minus) / (2 * step)
            error = np.abs(fd - analytic).max() / np.abs(analytic).max()
            assert error <= 1e-6

    def test_zero_denominator_raises(self):
        with pytest.raises(Singular):
            jacobian([0.5, 0.1, 0.1], [0.5, -1.0, -1.0])

    def test_rate_matrix_entries(self):
        p = np.array([0.1, 0.2, 0.3])
        rho = np.array([-0.9, -0.8, -0.7])
        m = rate_matrix(p, rho)
        assert m[0, 1] == pytest.approx(p[1] / (p[0] - rho[0]))
        assert m[2, 0] == pytest.approx(p[0] / (p[2] - rho[2]))
        assert np.all(np.diag(m) == 1.0)


class TestKinematicSample:
    def test_isotropic_point(self, symmetric_geometry):
        sample = kinematic_sample([0, 0, 0], symmetric_geometry)
        assert np.array_equal(sample.jacobian, np.eye(3))
        assert abs(sample.cond - 1.0) <= 1e-12
        assert sample.sigma_min == sample.sigma_max == 1.0

    def test_singular_values_match_eigensolver(self, symmetric_geometry, rng):
        for p in sample_reachable_points(symmetric_geometry, rng, 100):
            sample = kinematic_sample(p, symmetric_geometry)
            eigenvalues = np.linalg.eigvalsh(sample.jacobian.T @ sample.jacobian)
            lo, hi = np.sqrt(eigenvalues[0]), np.sqrt(eigenvalues[-1])
            assert abs(sample.sigma_min - lo) <= 1e-9 * max(1.0, lo)
            assert abs(sample.sigma_max - hi) <= 1e-9 * max(1.0, hi)

    def test_cond_at_least_one_on_grid(self, symmetric_geometry):
        axis = np.linspace(-0.5, 0.5, 21)
        xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
        points = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
        valid, cond, _, _ = batch_transmission(points, symmetric_geometry)
        assert valid.sum() > 0
        assert np.all(cond[valid] >= 1.0)

    def test_scale_invariance(self, symmetric_geometry, rng):
        scale = 3.7
        scaled_geometry = GeometryParams(
            leg_lengths=scale * symmetric_geometry.leg_lengths,
            joint_limits=scale * symmetric_geometry.joint_limits,
            assembly_signs=symmetric_geometry.assembly_signs,
        )
        for p in sample_reachable_points(symmetric_geometry, rng, 25):
            base = kinematic_sample(p, symmetric_geometry)
            scaled = kinematic_sample(scale * p, scaled_geometry)
            assert np.allclose(scaled.jacobian, base.jacobian, rtol=1e-10, atol=1e-12)
            assert scaled.cond == pytest.approx(base.cond, rel=1e-10)
            assert scaled.sigma_min == pytest.approx(base.sigma_min, rel=1e-10)
            assert scaled.sigma_max == pytest.approx(base.sigma_max, rel=1e-10)

    def test_infeasible_propagates(self, symmetric_geometry):
        with pytest.raises(Infeasible):
            kinematic_sample([0, 1.1, 0], symmetric_geometry)


class TestBatchConsistency:
    def test_batch_matches_scalar(self, symmetric_geometry, rng):
        points = sample_reachable_points(symmetric_geometry, rng, 40)
        valid, cond, sigma_min, sigma_max = batch_transmission(points, symmetric_geometry)
        assert valid.all()
        for idx, p in enumerate(points):
            sample = kinematic_sample(p, symmetric_geometry)
            assert cond[idx] == pytest.approx(sample.cond, rel=1e-12)
            assert sigma_min[idx] == pytest.approx(sample.sigma_min, rel=1e-12)
            assert sigma_max[idx] == pytest.approx(sample.sigma_max, rel=1e-12)

    @settings(database=None, derandomize=True, deadline=None)
    @given(
        st.lists(st.floats(0.7, 3.0), min_size=3, max_size=3),
        st.lists(st.floats(0.4, 3.4), min_size=3, max_size=3),
        st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), min_size=1, max_size=24),
    )
    def test_batch_rows_match_kinematic_sample_on_c7_designs(self, lengths, spans, unit_points):
        # both sides take the extreme singular values from the eigenvalues of
        # a Gram matrix (of M here, of J = inv(M) in kinematic_sample), whose
        # smallest eigenvalue carries a relative error of order eps * cond^2
        lengths, spans = np.array(lengths), np.array(spans)
        lower = -lengths - spans / 2.0
        geometry = GeometryParams(lengths, np.column_stack([lower, lower + spans]))
        points = 0.6 * np.array(unit_points)  # a +-0.6 m box mixes kept and rejected rows
        valid, cond, sigma_min, sigma_max = batch_transmission(points, geometry)
        for row, p in enumerate(points):
            try:
                sample = kinematic_sample(p, geometry)
            except (Infeasible, Singular):
                assert not valid[row]
                assert np.isnan([cond[row], sigma_min[row], sigma_max[row]]).all()
                continue
            assert valid[row]
            rel = 1e-12 * sample.cond**2
            assert cond[row] == pytest.approx(sample.cond, rel=rel)
            assert sigma_min[row] == pytest.approx(sample.sigma_min, rel=rel)
            assert sigma_max[row] == pytest.approx(sample.sigma_max, rel=rel)

    def test_unreachable_rows_are_nan(self, symmetric_geometry):
        points = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
        valid, cond, _, _ = batch_transmission(points, symmetric_geometry)
        assert valid.tolist() == [True, False]
        assert np.isnan(cond[1])


class TestGeometryValidation:
    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            GeometryParams([1, -1, 1], [[-1, 1]] * 3)

    def test_rejects_degenerate_limits(self):
        with pytest.raises(ValueError):
            GeometryParams([1, 1, 1], [[0.5, 0.5]] * 3)

    def test_rejects_bad_signs(self):
        with pytest.raises(ValueError):
            GeometryParams([1, 1, 1], [[-1, 1]] * 3, assembly_signs=[0, 1, 1])


class TestTransmissionPredicate:
    @pytest.mark.parametrize("sigma_range", [(2.0, 0.5), (1.0, 1.0), (0.0, 2.0), (float("nan"), 2.0)])
    def test_rejects_a_sigma_range_unless_0_lt_lo_lt_hi(self, symmetric_geometry, sigma_range):
        with pytest.raises(ValueError, match="0 < lo < hi"):
            transmission_predicate(symmetric_geometry, sigma_range=sigma_range)

    @pytest.mark.parametrize("bounds", [(2.0, None), (None, (0.6, 1.8)), (2.0, (0.6, 1.8))])
    def test_mask_swept_alone_equals_the_thresholded_sweep(self, symmetric_geometry, bounds):
        # two full blocks and a ragged third one, some rows out of reach
        points = np.random.default_rng(7).uniform(-0.9, 0.9, size=(2 * TRANSMISSION_BLOCK_ROWS + 777, 3))
        cond_max, sigma_range = bounds
        valid, cond, sigma_min, sigma_max = batch_transmission(points, symmetric_geometry)
        with np.errstate(invalid="ignore"):
            if cond_max is not None:
                valid = valid & (cond <= cond_max)
            if sigma_range is not None:
                valid = valid & (sigma_min >= sigma_range[0]) & (sigma_max <= sigma_range[1])
        assert 0 < valid.sum() < len(points)
        values, flags = transmission_predicate(symmetric_geometry, cond_max, sigma_range).map(points)
        assert values.tobytes() == cond.tobytes()
        assert flags.dtype == bool and flags.tolist() == valid.tolist()

    def test_mask_swept_alone_keeps_no_float_outputs(self, symmetric_geometry):
        # 129^3 nodes: 33 blocks of whole k-lines
        spec = grid.GridSpec(origin=(-0.6,) * 3, proportions=(1.2,) * 3, resolution=128, dims=(129,) * 3)
        predicate = transmission_predicate(symmetric_geometry, cond_max=2.0, sigma_range=(0.6, 1.8))
        tracemalloc.start()
        try:
            mask = grid.evaluate_mask(spec, predicate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mask.data.size >= 32 * TRANSMISSION_BLOCK_ROWS
        assert mask.count() > 0
        # a full sweep's cond, sigma_min and sigma_max alone take 24 bytes a node
        assert peak < 24 * mask.data.size


    def test_block_kernel_frees_the_rate_matrices_before_the_eigenvalues(self, symmetric_geometry):
        # a block of reachable rows, as (3, N) columns, as the sweeps pass them
        points = np.random.default_rng(8).uniform(-0.45, 0.45, size=(3, TRANSMISSION_BLOCK_ROWS)).T
        tracemalloc.start()
        try:
            rows, _, _ = kinematics._transmission_rows(points, symmetric_geometry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.size == len(points)
        # about 170 bytes a row; the rate matrices kept alive with the Gram
        # and the eigenvalue buffers would add their 72 bytes a row
        assert peak < 200 * len(points)

class TestThreadedSweep:
    """``batch_transmission`` runs its blocks on every CPU."""

    @staticmethod
    def points():
        # two full blocks and a ragged third one, some rows out of reach
        return np.random.default_rng(9).uniform(-0.9, 0.9, size=(2 * TRANSMISSION_BLOCK_ROWS + 777, 3))

    def test_bytes_independent_of_the_cpu_count(self, monkeypatch, symmetric_geometry):
        points = self.points()
        all_cpus = batch_transmission(points, symmetric_geometry)
        assert 0 < all_cpus[0].sum() < len(points)
        for cpus in (1, 3):
            on_cpus(monkeypatch, cpus)
            for actual, expected in zip(batch_transmission(points, symmetric_geometry), all_cpus):
                assert actual.tobytes() == expected.tobytes()

    def test_type_error_in_one_block_propagates(self, monkeypatch, symmetric_geometry):
        on_cpus(monkeypatch, 2)
        gram = kinematics._gram

        def planted(m):
            if threading.current_thread() is not threading.main_thread():
                raise TypeError("planted in a block")
            return gram(m)

        monkeypatch.setattr(kinematics, "_gram", planted)
        with pytest.raises(TypeError, match="planted in a block"):
            condition_field(symmetric_geometry).batch(self.points())

    def test_no_traced_name_runs_in_a_worker(self, monkeypatch, symmetric_geometry):
        # bench/tracing.py's CallSites replaces these names with spans on one
        # stack, so none of them may run in a worker thread
        traced = [
            (kinematics, "batch_inverse_kinematics"),
            (kinematics, "batch_rate_matrices"),
            (kinematics, "batch_transmission"),
            (kinematics, "sym_eigvals_3x3"),
            (_spectral, "sym_eigvals_3x3"),
            (dynamics, "batch_rate_matrices"),
            (dynamics, "sym_eigvals_3x3"),
            (stiffness, "batch_inverse_kinematics"),
            (stiffness.OrthoglideStiffnessModel, "batch_cartesian_stiffness"),
            (stiffness.OrthoglideStiffnessModel, "batch_deflection"),
            (grid.ScalarField, "batch"),
            (grid, "evaluate_mask"),
            # the block kernels, which must run in workers
            (kinematics, "_transmission_rows"),
            (kinematics._GridInverseKinematics, "__call__"),
            (stiffness.OrthoglideStiffnessModel, "_leg_stiffness"),
            (dynamics, "_joint_inertias"),
        ]
        threads = {}

        def recorder(name, fn):
            def recorded(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.current_thread())
                return fn(*args, **kwargs)

            return recorded

        for owner, attr in traced:
            name = f"{owner.__name__.rpartition('.')[2]}.{attr}"
            monkeypatch.setattr(owner, attr, recorder(name, getattr(owner, attr)))
        on_cpus(monkeypatch, 3)
        points = self.points()
        spec = mask_spec()
        config = default_config()
        stiffness_model, stiffness_spec = build_stiffness(config)
        stiffness_model = replace(stiffness_model, geometry=symmetric_geometry)
        inertia_model, dynamic_spec = build_dynamics(config)
        # at least three blocks of reachable rows
        few = points[: 4 * grid.SWEEP_BLOCK_ROWS]
        assert kinematics.batch_inverse_kinematics(few, symmetric_geometry)[0].sum() > 2 * grid.SWEEP_BLOCK_ROWS

        def predicate():
            return transmission_predicate(symmetric_geometry, cond_max=2.0, sigma_range=(0.6, 1.8))

        def deflections():
            return stiffness.deflection_field(stiffness_model, stiffness_spec.load).batch(few)

        def accelerations():
            return dynamics.acceleration_field(symmetric_geometry, inertia_model, dynamic_spec.torque_limits).batch(few)

        transmission, table_ik, stiffness_kernel, dynamics_kernel = (
            "kinematics._transmission_rows",
            "_GridInverseKinematics.__call__",
            "OrthoglideStiffnessModel._leg_stiffness",
            "dynamics._joint_inertias",
        )
        stiffness_names = {
            "ScalarField.batch",
            "OrthoglideStiffnessModel.batch_deflection",
            "OrthoglideStiffnessModel.batch_cartesian_stiffness",
            "stiffness.batch_inverse_kinematics",
        }
        dynamics_names = {"ScalarField.batch", "dynamics.batch_rate_matrices", "kinematics.batch_inverse_kinematics"}
        # each sweep takes at least three blocks; its block kernels must run in a worker
        sweeps = {
            "condition field": (lambda: condition_field(symmetric_geometry).batch(points), {"ScalarField.batch"}, [transmission]),
            "full sweep": (lambda: kinematics.batch_transmission(points, symmetric_geometry), {"kinematics.batch_transmission"}, [transmission]),
            "map over positions": (lambda: predicate().map(points), {"kinematics.batch_transmission"}, [transmission]),
            "mask over a grid": (lambda: grid.evaluate_mask(spec, predicate()), {"grid.evaluate_mask"}, [transmission, table_ik]),
            "reach over a grid": (lambda: predicate().reach(spec), set(), [table_ik]),
            "deflection field": (deflections, stiffness_names, [stiffness_kernel]),
            "inertia field": (
                lambda: dynamics.inertia_norm_field(symmetric_geometry, inertia_model).batch(few),
                dynamics_names | {"dynamics.sym_eigvals_3x3"},
                [dynamics_kernel],
            ),
            "acceleration field": (accelerations, dynamics_names, [dynamics_kernel]),
        }
        main = {threading.main_thread()}
        for label, (sweep, entry_points, kernels) in sweeps.items():
            threads.clear()
            sweep()
            for kernel in kernels:
                assert threads.pop(kernel) - main, label
            assert threads == {name: main for name in entry_points}, label


def mask_spec():
    """A 70 x 53 x 61 grid around the symmetric geometry's workspace: four
    transmission blocks of whole k-lines, the last one ragged."""
    return grid.GridSpec(origin=(-0.9, -0.8, -0.85), proportions=(1.8, 1.6, 1.7), resolution=60, dims=(70, 53, 61))


class TestGridMask:
    """``evaluate_mask`` sweeps a transmission predicate's grid block by
    block, from the axes, and keeps only its flags."""

    @pytest.mark.parametrize("cpus", [None, 1])
    @pytest.mark.parametrize("bounds", [(2.0, None), (None, (0.6, 1.8)), (2.0, (0.6, 1.8))])
    def test_flags_equal_the_thresholded_sweep(self, monkeypatch, symmetric_geometry, bounds, cpus):
        if cpus is not None:
            on_cpus(monkeypatch, cpus)
        cond_max, sigma_range = bounds
        spec = mask_spec()
        lines = spec.dims[0] * spec.dims[1]
        assert lines > 3 * (TRANSMISSION_BLOCK_ROWS // spec.dims[2])
        flags = grid.evaluate_mask(spec, transmission_predicate(symmetric_geometry, cond_max, sigma_range))
        assert "_node_positions" not in vars(spec)  # no (N, 3) positions array was built
        valid, cond, sigma_min, sigma_max = batch_transmission(spec.node_positions(), symmetric_geometry)
        with np.errstate(invalid="ignore"):
            if cond_max is not None:
                valid = valid & (cond <= cond_max)
            if sigma_range is not None:
                valid = valid & (sigma_min >= sigma_range[0]) & (sigma_max <= sigma_range[1])
        assert 0 < valid.sum() < valid.size
        assert flags.data.ravel().tobytes() == valid.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_type_error_in_one_block_propagates(self, monkeypatch, symmetric_geometry, cpus):
        on_cpus(monkeypatch, cpus)
        spec = mask_spec()
        kernel = kinematics._transmission_rows
        ragged = spec.dims[0] * spec.dims[1] % (TRANSMISSION_BLOCK_ROWS // spec.dims[2]) * spec.dims[2]
        blocks = []

        def planted(positions, geometry, ik):
            blocks.append(positions.shape[0])
            if positions.shape[0] == ragged:
                raise TypeError("planted in the last block")
            return kernel(positions, geometry, ik)

        monkeypatch.setattr(kinematics, "_transmission_rows", planted)
        with pytest.raises(TypeError, match="planted in the last block"):
            grid.evaluate_mask(spec, transmission_predicate(symmetric_geometry, cond_max=2.0))
        assert ragged in blocks and len(blocks) == 4


def count_table_ik(monkeypatch):
    """Record the nodes of each block whose IK comes from the per-leg tables,
    and refuse the per-node IK, which no grid sweep of a predicate runs."""
    table_ik = kinematics._GridInverseKinematics.__call__
    calls = []

    def counted(self, lines):
        calls.append((lines.stop - lines.start) * self.axes[2].size)
        return table_ik(self, lines)

    def refused(positions, geometry):
        raise AssertionError("per-node IK in a grid sweep")

    monkeypatch.setattr(kinematics._GridInverseKinematics, "__call__", counted)
    monkeypatch.setattr(kinematics, "_batch_inverse_kinematics", refused)
    return calls


def count_table_builds(monkeypatch):
    """Record the grid of each set of per-leg tables built."""
    build = kinematics._GridInverseKinematics.__init__
    grids = []

    def counted(self, spec, geometry):
        grids.append(spec)
        build(self, spec, geometry)

    monkeypatch.setattr(kinematics._GridInverseKinematics, "__init__", counted)
    return grids


def one_block_spec():
    """A 23 x 21 x 25 grid around the symmetric geometry's workspace: one
    transmission block."""
    spec = grid.GridSpec(origin=(-0.9, -0.8, -0.85), proportions=(1.8, 1.6, 1.7), resolution=20, dims=(23, 21, 25))
    assert spec.dims[0] * spec.dims[1] * spec.dims[2] <= TRANSMISSION_BLOCK_ROWS
    return spec


class TestReach:
    """A transmission predicate's ``reach(spec)`` flags the grid's nodes that
    pass the inverse kinematics; on a one-block grid the next ``mask(spec)``
    starts from that IK."""

    @pytest.mark.parametrize("make_spec", [one_block_spec, mask_spec])
    def test_flags_equal_the_inverse_kinematics(self, symmetric_geometry, make_spec):
        spec = make_spec()
        predicate = transmission_predicate(symmetric_geometry, cond_max=2.0, sigma_range=(0.6, 1.8))
        flags = predicate.reach(spec)
        assert "_node_positions" not in vars(spec)  # no (N, 3) positions array was built
        reachable, _ = kinematics.batch_inverse_kinematics(spec.node_positions(), symmetric_geometry)
        assert 0 < reachable.sum() < reachable.size
        assert flags.tobytes() == reachable.tobytes()
        mask = predicate.mask(spec)
        assert mask.sum() > 0 and not np.any(mask & ~flags)

    @pytest.mark.parametrize("make_spec", [one_block_spec, mask_spec])
    def test_mask_after_reach_equals_mask_alone(self, monkeypatch, symmetric_geometry, make_spec):
        spec = make_spec()
        alone = transmission_predicate(symmetric_geometry, cond_max=2.0).mask(spec)
        calls = count_table_ik(monkeypatch)
        predicate = transmission_predicate(symmetric_geometry, cond_max=2.0)
        predicate.reach(spec)
        reach_calls = len(calls)
        assert predicate.mask(spec).tobytes() == alone.tobytes()
        # the one-block grid's mask runs no IK of its own; a larger grid's does
        nodes = spec.dims[0] * spec.dims[1] * spec.dims[2]
        # (sorted: the blocks of a larger grid run on every CPU, in any order)
        assert sorted(calls[reach_calls:]) == ([] if reach_calls == 1 else sorted(calls[:reach_calls]))
        assert sum(calls[:reach_calls]) == nodes
        # the kept IK is used up: a second mask runs its own
        calls.clear()
        assert predicate.mask(spec).tobytes() == alone.tobytes()
        assert sum(calls) == nodes

    @pytest.mark.parametrize("make_spec", [one_block_spec, mask_spec])
    def test_reach_and_mask_share_one_set_of_tables(self, monkeypatch, symmetric_geometry, make_spec):
        spec = make_spec()
        alone = transmission_predicate(symmetric_geometry, cond_max=2.0).mask(spec)
        grids = count_table_builds(monkeypatch)
        fill = grid.GridSpec._line_positions
        filled = []

        def recorded(self, lines):
            filled.append(lines.stop - lines.start)
            return fill(self, lines)

        monkeypatch.setattr(grid.GridSpec, "_line_positions", recorded)
        predicate = transmission_predicate(symmetric_geometry, cond_max=2.0)
        predicate.reach(spec)
        assert len(grids) == 1 and grids[0] is spec
        assert filled == []  # reach fills no positions
        for _ in range(2):
            assert predicate.mask(spec).tobytes() == alone.tobytes()
        assert len(grids) == 1
        assert sum(filled) == 2 * spec.dims[0] * spec.dims[1]

    def test_kept_ik_is_used_only_by_a_block_of_its_rows(self, monkeypatch, symmetric_geometry):
        # the blocks shrink between reach and mask, so no block of the mask
        # has the rows of the IK that reach kept
        spec = one_block_spec()
        nodes = spec.dims[0] * spec.dims[1] * spec.dims[2]
        predicate = transmission_predicate(symmetric_geometry, cond_max=2.0)
        predicate.reach(spec)
        monkeypatch.setattr(kinematics, "TRANSMISSION_BLOCK_ROWS", 2000)
        alone = transmission_predicate(symmetric_geometry, cond_max=2.0).mask(spec)
        assert 0 < alone.sum()
        calls = count_table_ik(monkeypatch)
        assert predicate.mask(spec).tobytes() == alone.tobytes()
        assert len(calls) > 1 and sum(calls) == nodes
        # the mask dropped the IK it did not use: one block runs its own
        monkeypatch.setattr(kinematics, "TRANSMISSION_BLOCK_ROWS", TRANSMISSION_BLOCK_ROWS)
        calls.clear()
        assert predicate.mask(spec).tobytes() == alone.tobytes()
        assert calls == [nodes]

    def test_kept_ik_is_used_only_on_its_own_grid(self, symmetric_geometry):
        spec = one_block_spec()
        other = replace(spec, origin=spec.origin + 0.5 * spec.steps)
        predicate = transmission_predicate(symmetric_geometry, cond_max=2.0)
        predicate.reach(spec)
        expected = transmission_predicate(symmetric_geometry, cond_max=2.0).mask(other)
        assert 0 < expected.sum()
        assert predicate.mask(other).tobytes() == expected.tobytes()


@st.composite
def designs_on_grids(draw):
    """A geometry with its own length, travel and assembly sign per leg,
    and a non-cubic, off-centre grid: equal legs on a cubic grid could not
    tell a table's (j, k) from its (k, j)."""
    lengths = draw(st.lists(st.floats(0.7, 1.5), min_size=3, max_size=3))
    lows = draw(st.lists(st.floats(0.0, 0.3), min_size=3, max_size=3))
    spans = draw(st.lists(st.floats(0.8, 2.0), min_size=3, max_size=3))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3))
    # each drive's travel lies on its assembly's side of the foot
    limits = [sorted((sign * low, sign * (low + span))) for low, span, sign in zip(lows, spans, signs)]
    origin = draw(st.lists(st.floats(-0.9, -0.1), min_size=3, max_size=3))
    proportions = draw(st.lists(st.floats(0.5, 1.5), min_size=3, max_size=3))
    resolution = draw(st.integers(3, 12))
    dims = draw(st.lists(st.integers(2, 13), min_size=3, max_size=3).filter(lambda d: len(set(d)) > 1))
    return GeometryParams(lengths, limits, signs), grid.GridSpec(origin, proportions, resolution, dims)


class TestGridInverseKinematics:
    """The per-leg tables give a grid's IK with the bits of
    ``batch_inverse_kinematics`` over its node positions, in any blocks of
    k-lines, and the predicate's ``reach`` and ``mask`` built on them keep
    the bits of the sweeps over the positions."""

    @settings(database=None, derandomize=True, deadline=None, max_examples=80)
    @given(design=designs_on_grids(), lines=st.sampled_from([1, 2, 5, 64]))
    def test_equals_the_inverse_kinematics_of_the_nodes_bitwise_property(self, design, lines):
        geometry, spec = design
        reachable, rho = kinematics.batch_inverse_kinematics(spec.node_positions(), geometry)
        ik = kinematics._GridInverseKinematics(spec, geometry)
        count = spec.dims[0] * spec.dims[1]
        blocks = [ik(slice(start, min(start + lines, count))) for start in range(0, count, lines)]
        assert np.concatenate([flags for flags, _ in blocks]).tobytes() == reachable.tobytes()
        # the clamped branch values of unreachable nodes too
        assert np.concatenate([rho for _, rho in blocks]).tobytes() == rho.tobytes()

    @settings(database=None, derandomize=True, deadline=None, max_examples=40)
    @given(design=designs_on_grids(), lines=st.sampled_from([1, 5, 1000]))
    def test_reach_and_mask_equal_the_sweeps_over_the_positions_property(self, design, lines):
        # 1,000 k-lines make every grid one block, whose IK reach hands to mask
        geometry, spec = design
        cond_max, sigma_range = 4.0, (0.4, 2.5)
        reachable, _ = kinematics.batch_inverse_kinematics(spec.node_positions(), geometry)
        valid, cond, sigma_min, sigma_max = batch_transmission(spec.node_positions(), geometry)
        with np.errstate(invalid="ignore"):
            valid &= (cond <= cond_max) & (sigma_min >= sigma_range[0]) & (sigma_max <= sigma_range[1])
        predicate = transmission_predicate(geometry, cond_max, sigma_range)
        with mock.patch.object(kinematics, "TRANSMISSION_BLOCK_ROWS", lines * spec.dims[2]):
            assert predicate.reach(spec).tobytes() == reachable.tobytes()
            assert predicate.mask(spec).tobytes() == valid.tobytes()
