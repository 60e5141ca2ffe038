import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import on_cpus, sample_reachable_points
from pkmforge import _spectral, dynamics, grid, kinematics, stiffness
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
        alone = transmission_predicate(symmetric_geometry, cond_max, sigma_range)
        assert alone.batch(points).tolist() == valid.tolist()
        shared = transmission_predicate(symmetric_geometry, cond_max, sigma_range)
        assert shared.field.batch(points).tobytes() == cond.tobytes()
        assert shared.batch(points).tolist() == valid.tolist()

    def test_mask_swept_alone_keeps_no_float_outputs(self, symmetric_geometry):
        points = np.random.default_rng(8).uniform(-0.6, 0.6, size=(32 * TRANSMISSION_BLOCK_ROWS, 3))
        predicate = transmission_predicate(symmetric_geometry, cond_max=2.0, sigma_range=(0.6, 1.8))
        tracemalloc.start()
        try:
            flags = predicate.batch(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert flags.sum() > 0
        # a full sweep's cond, sigma_min and sigma_max alone take 24 bytes a node
        assert peak < 24 * len(points)


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
            (kinematics, "_gram"),  # the block kernel, which must run in workers
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
        condition_field(symmetric_geometry).batch(self.points())
        main = {threading.main_thread()}
        assert threads.pop("kinematics._gram") - main
        assert threads == {"kinematics.batch_transmission": main, "ScalarField.batch": main}
