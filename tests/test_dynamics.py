import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import on_cpus, reachable, sample_reachable_points, signed_zero_values
from pkmforge import dynamics, grid
from pkmforge._spectral import sym_eigvals_3x3
from pkmforge.dynamics import (
    DynamicSpec,
    InertiaModel,
    acceleration_field,
    acceleration_predicate,
    generalized_inertia,
    gie_predicate,
    inertia_norm_field,
    joint_space_inertia,
    min_achievable_acceleration,
)
from pkmforge.errors import SingularJacobian
from pkmforge.grid import GridSpec, evaluate_mask, nested_cuboids
from pkmforge.kinematics import GeometryParams, batch_rate_matrices, inverse_kinematics, jacobian


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic, roughly uniform unit directions on the sphere."""
    indices = np.arange(count, dtype=float)
    z = 1.0 - 2.0 * (indices + 0.5) / count
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    theta = golden * indices
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])


def zonotope_support_minimum(generators: np.ndarray, directions: np.ndarray) -> float:
    """Min over the given unit directions of the zonotope support function."""
    return float(np.abs(directions @ np.asarray(generators, dtype=float)).sum(axis=1).min())


def random_spd(rng, scale=1.0):
    seed = rng.normal(size=(3, 3))
    return scale * (seed @ seed.T + 3 * np.eye(3))


def random_invertible(rng):
    while True:
        m = rng.normal(size=(3, 3))
        if np.linalg.cond(m) < 50:
            return m


MODEL = InertiaModel(joint_masses=[15.0, 15.0, 15.0], tcp_mass=3.0)
SPEC = DynamicSpec(inertia_bound=40.0, min_acceleration=10.0, torque_limits=[250.0, 250.0, 250.0])


# ---------------------------------------------------------------------------
# whole-array oracle: the fields' per-row algebra on all kept rows at once
# ---------------------------------------------------------------------------


def batch_dynamics(positions, geometry, model):
    """Kept rows (see ``batch_rate_matrices``), their rate matrices and
    joint-space inertias."""
    rows, m = batch_rate_matrices(positions, geometry)
    m = np.ascontiguousarray(m)
    gram = np.einsum("nij,nkj->nik", m, m)  # M M^T
    jtj = np.linalg.inv(gram)
    inertia = np.diag(model.joint_masses)[None] + model.tcp_mass * jtj
    return rows, m, inertia


def scatter(n, rows, values):
    out = np.full(n, np.nan)
    out[rows] = values
    return out


def whole_array_inertia_norm(positions, geometry, model):
    rows, m, inertia = batch_dynamics(positions, geometry, model)
    felt = np.einsum("nji,njk,nkl->nil", m, inertia, m)
    return scatter(positions.shape[0], rows, sym_eigvals_3x3(felt)[:, 2])


def whole_array_acceleration(positions, geometry, model, limits, mode):
    rows, m, inertia = batch_dynamics(positions, geometry, model)
    dm = np.einsum("nij,njk->nik", inertia, m)
    generators = np.linalg.inv(dm) * limits[None, None, :]
    g0, g1, g2 = generators[:, :, 0], generators[:, :, 1], generators[:, :, 2]
    if mode == "max":
        best = np.zeros(rows.size)
        for s1 in (-1.0, 1.0):
            for s2 in (-1.0, 1.0):
                best = np.maximum(best, np.linalg.norm(g0 + s1 * g1 + s2 * g2, axis=1))
        return scatter(positions.shape[0], rows, best)
    normals = np.stack([np.cross(g0, g1), np.cross(g0, g2), np.cross(g1, g2)], axis=1)
    lengths = np.linalg.norm(normals, axis=2)
    ok = np.all(lengths > 0.0, axis=1)
    normals = normals / np.where(lengths > 0.0, lengths, 1.0)[:, :, None]
    support = np.abs(np.einsum("nfi,nij->nfj", normals, generators)).sum(axis=2)
    return scatter(positions.shape[0], rows[ok], support.min(axis=1)[ok])


class TestGeneralizedInertia:
    def test_identity_case(self):
        g = generalized_inertia(np.eye(3), 7.5 * np.eye(3))
        assert np.allclose(g, 7.5 * np.eye(3))
        assert np.linalg.norm(g, 2) == pytest.approx(7.5)
        assert np.linalg.cond(g) == pytest.approx(1.0)

    def test_congruence_identity(self, rng):
        for _ in range(30):
            jac = random_invertible(rng)
            inertia = random_spd(rng)
            g = generalized_inertia(jac, inertia)
            v = rng.normal(size=3)
            jv = np.linalg.solve(jac, v)
            assert v @ g @ v == pytest.approx(jv @ inertia @ jv, rel=1e-10)

    def test_linear_in_inertia(self, rng):
        jac = random_invertible(rng)
        inertia = random_spd(rng)
        g1 = generalized_inertia(jac, inertia)
        g2 = generalized_inertia(jac, 3.0 * inertia)
        assert np.linalg.norm(g2, 2) == pytest.approx(3.0 * np.linalg.norm(g1, 2), rel=1e-12)

    def test_eigenvalue_bracket(self, rng):
        for _ in range(30):
            jac = random_invertible(rng)
            inertia = random_spd(rng)
            g = generalized_inertia(jac, inertia)
            eig_g = np.linalg.eigvalsh(g)
            eig_d = np.linalg.eigvalsh(inertia)
            sigma = np.linalg.svd(jac, compute_uv=False)
            lower = eig_d[0] / sigma[0] ** 2
            upper = eig_d[-1] / sigma[-1] ** 2
            assert eig_g[0] >= lower * (1 - 1e-9)
            assert eig_g[-1] <= upper * (1 + 1e-9)

    def test_singular_jacobian_raises(self):
        singular = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(SingularJacobian):
            generalized_inertia(singular, np.eye(3))


class TestAccelerationCapability:
    def test_unit_cube_inscribed_ball(self):
        radius = min_achievable_acceleration(np.eye(3), np.eye(3), [1.0, 1.0, 1.0])
        assert radius == pytest.approx(1.0, abs=1e-12)

    def test_torque_homogeneity(self, rng):
        jac = random_invertible(rng)
        inertia = random_spd(rng)
        r1 = min_achievable_acceleration(jac, inertia, [1.0, 1.0, 1.0])
        r2 = min_achievable_acceleration(jac, inertia, [2.0, 2.0, 2.0])
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    def test_sampled_support_lower_bounds_exact_value(self, rng):
        # universal: sampling the support can never go below the facet value,
        # and folding the samples into the direction set leaves it exact
        directions = fibonacci_sphere(2048)
        for _ in range(40):
            jac = random_invertible(rng)
            inertia = random_spd(rng)
            limits = rng.uniform(0.5, 3.0, size=3)
            generators = (jac @ np.linalg.inv(inertia)) * limits[None, :]
            g0, g1, g2 = generators.T
            normals = np.stack([np.cross(g0, g1), np.cross(g0, g2), np.cross(g1, g2)])
            normals /= np.linalg.norm(normals, axis=1)[:, None]
            exact = zonotope_support_minimum(generators, normals)
            sampled = zonotope_support_minimum(generators, directions)
            assert sampled >= exact - 1e-9
            combined = min_achievable_acceleration(jac, inertia, limits)
            assert combined == pytest.approx(exact, rel=1e-12)

    def test_sampled_support_within_two_percent_near_axis_alignment(self, rng):
        # the sampled cross-check resolves the kinked minimum to 2% when the
        # zonotope stays near axis alignment; arbitrary rotations would need
        # a denser direction set than 2048
        directions = fibonacci_sphere(2048)
        for _ in range(100):
            scale = rng.uniform(0.5, 2.0)
            generators = scale * np.eye(3) + 0.001 * scale * rng.normal(size=(3, 3))
            g0, g1, g2 = generators.T
            normals = np.stack([np.cross(g0, g1), np.cross(g0, g2), np.cross(g1, g2)])
            normals /= np.linalg.norm(normals, axis=1)[:, None]
            exact = zonotope_support_minimum(generators, normals)
            sampled = zonotope_support_minimum(generators, directions)
            assert sampled >= exact - 1e-9
            assert sampled <= exact * 1.02

    def test_monotone_in_each_torque_limit(self, rng):
        jac = random_invertible(rng)
        inertia = random_spd(rng)
        base = np.array([1.0, 1.5, 2.0])
        r0 = min_achievable_acceleration(jac, inertia, base)
        for axis in range(3):
            bumped = base.copy()
            bumped[axis] *= 1.5
            assert min_achievable_acceleration(jac, inertia, bumped) >= r0 - 1e-12

    def test_max_mode_at_least_ball_mode(self, rng):
        jac = random_invertible(rng)
        inertia = random_spd(rng)
        limits = [1.0, 1.0, 1.0]
        ball = min_achievable_acceleration(jac, inertia, limits, mode="ball")
        far = min_achievable_acceleration(jac, inertia, limits, mode="max")
        assert far >= ball


class TestJointSpaceInertia:
    def test_identity_jacobian(self):
        d = joint_space_inertia(MODEL, np.eye(3))
        assert np.allclose(d, np.diag([18.0, 18.0, 18.0]))

    def test_center_acceleration_is_torque_over_mass(self, symmetric_geometry):
        rho = inverse_kinematics([0, 0, 0], symmetric_geometry)
        jac = jacobian([0, 0, 0], rho)
        inertia = joint_space_inertia(MODEL, jac)
        value = min_achievable_acceleration(jac, inertia, SPEC.torque_limits)
        assert value == pytest.approx(250.0 / 18.0, rel=1e-12)


class TestFields:
    def test_batch_matches_scalar(self, symmetric_geometry, rng):
        points = sample_reachable_points(symmetric_geometry, rng, 25)
        gie = inertia_norm_field(symmetric_geometry, MODEL)
        acc = acceleration_field(symmetric_geometry, MODEL, SPEC.torque_limits)
        gie_batch = gie.batch(points)
        acc_batch = acc.batch(points)
        for idx, p in enumerate(points):
            assert gie_batch[idx] == pytest.approx(gie(p), rel=1e-9)
            assert acc_batch[idx] == pytest.approx(acc(p), rel=1e-9)

    def test_unreachable_is_nan(self, symmetric_geometry):
        gie = inertia_norm_field(symmetric_geometry, MODEL)
        assert np.isnan(gie([5.0, 5.0, 5.0]))


class TestOrderedFeltInertia:
    """``_felt_inertia`` keeps every bit of the einsum it replaced, signed
    zeros included, and so the inertia field does too."""

    @staticmethod
    def einsum(m, inertia):
        return np.einsum("nji,njk,nkl->nil", m, inertia, m)

    def assert_same_bits(self, m, inertia):
        got = dynamics._felt_inertia(m, inertia)
        reference = self.einsum(m, inertia)
        assert got.shape == reference.shape
        assert got.tobytes() == reference.tobytes()

    @settings(database=None, derandomize=True, deadline=None, max_examples=60)
    @given(
        n=st.sampled_from((0, 1, 7, 2048, 2049)),
        seed=st.integers(0, 2**32 - 1),
        m_zeros=st.floats(0.0, 0.6),
        d_zeros=st.floats(0.0, 1.0),
    )
    def test_matches_einsum_bitwise_property(self, n, seed, m_zeros, d_zeros):
        rng = np.random.default_rng(seed)
        m = signed_zero_values(rng, (n, 3, 3), m_zeros)
        self.assert_same_bits(m, signed_zero_values(rng, (n, 3, 3), d_zeros))

    def test_field_matches_einsum_field_bitwise(self, symmetric_geometry, monkeypatch):
        points = np.random.default_rng(13).uniform(-0.8, 0.8, size=(3000, 3))
        rows, m, inertia = batch_dynamics(points, symmetric_geometry, MODEL)
        assert 0 < rows.size < points.shape[0]
        self.assert_same_bits(m, inertia)
        values = inertia_norm_field(symmetric_geometry, MODEL).batch(points)
        monkeypatch.setattr(dynamics, "_felt_inertia", self.einsum)
        # a field built after the patch, since a field returns its latest
        # sweep of the same array without running it again
        reference = inertia_norm_field(symmetric_geometry, MODEL).batch(points)
        assert np.isfinite(values).any()
        assert values.tobytes() == reference.tobytes()


class TestBlockedFields:
    """The fields' per-row algebra runs per block of kept rows on the sweep's
    threads; every bit matches the whole-array oracle on any CPU count."""

    GEOMETRY = GeometryParams([1.0, 1.0, 1.0], [[-1.9, -0.1]] * 3)
    UNEQUAL = InertiaModel(joint_masses=[15.0, 12.0, 18.0], tcp_mass=3.0)
    LIMITS = np.array([250.0, 200.0, 300.0])

    @classmethod
    def fields(cls):
        return {
            "gie": inertia_norm_field(cls.GEOMETRY, cls.UNEQUAL),
            "ball": acceleration_field(cls.GEOMETRY, cls.UNEQUAL, cls.LIMITS, "ball"),
            "max": acceleration_field(cls.GEOMETRY, cls.UNEQUAL, cls.LIMITS, "max"),
        }

    @classmethod
    def oracles(cls, points):
        return {
            "gie": whole_array_inertia_norm(points, cls.GEOMETRY, cls.UNEQUAL),
            "ball": whole_array_acceleration(points, cls.GEOMETRY, cls.UNEQUAL, cls.LIMITS, "ball"),
            "max": whole_array_acceleration(points, cls.GEOMETRY, cls.UNEQUAL, cls.LIMITS, "max"),
        }

    @classmethod
    def points(cls, rng, kept):
        """``kept`` rows that ``batch_rate_matrices`` keeps, in random order
        among about as many out of reach."""
        candidates = rng.uniform(-0.8, 0.8, size=(2 * kept + 64, 3))
        rows, _ = batch_rate_matrices(candidates, cls.GEOMETRY)
        assert rows.size >= kept
        far = rng.uniform(1.5, 3.0, size=(kept, 3)) * rng.choice([-1.0, 1.0], size=(kept, 3))
        points = np.concatenate([candidates[rows[:kept]], far])
        return points[rng.permutation(points.shape[0])]

    def assert_matches_oracles(self, points):
        oracles = self.oracles(points)
        for name, field in self.fields().items():
            values = field.batch(points)
            assert np.isfinite(values).any() and np.isnan(values).any()
            assert values.dtype == oracles[name].dtype
            assert values.tobytes() == oracles[name].tobytes(), name

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_three_blocks_and_a_ragged_tail_bitwise(self, cpus, monkeypatch):
        on_cpus(monkeypatch, cpus)
        points = self.points(np.random.default_rng(17), 3 * grid.SWEEP_BLOCK_ROWS + 77)
        self.assert_matches_oracles(points)

    @settings(database=None, derandomize=True, deadline=None, max_examples=30)
    @given(
        cpus=st.sampled_from((1, 2)),
        block=st.sampled_from((1, 16, 64)),
        tail=st.integers(0, 63),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_blocking_bitwise_property(self, cpus, block, tail, seed):
        with pytest.MonkeyPatch.context() as monkeypatch:
            on_cpus(monkeypatch, cpus)
            monkeypatch.setattr(grid, "SWEEP_BLOCK_ROWS", block)
            self.assert_matches_oracles(self.points(np.random.default_rng(seed), 3 * block + tail % block))

    def test_programming_error_in_a_block_propagates(self, monkeypatch):
        on_cpus(monkeypatch, 2)
        tail = 77
        points = self.points(np.random.default_rng(19), 3 * grid.SWEEP_BLOCK_ROWS + tail)
        joint_inertias = dynamics._joint_inertias
        threads = set()

        def broken_tail(m, model):
            threads.add(threading.current_thread())
            if m.shape[0] == tail:
                raise TypeError("broken block")
            return joint_inertias(m, model)

        monkeypatch.setattr(dynamics, "_joint_inertias", broken_tail)
        for name, field in self.fields().items():
            threads.clear()
            with pytest.raises(TypeError, match="broken block"):
                field.batch(points)
            assert threads and threading.main_thread() not in threads, name


class TestPredicates:
    def grid(self):
        return GridSpec(origin=(-0.5, -0.5, -0.5), proportions=(1, 1, 1), resolution=16, dims=(17, 17, 17))

    def test_infinite_bound_reduces_to_reachability(self, symmetric_geometry):
        spec = self.grid()
        predicate = gie_predicate(
            symmetric_geometry, MODEL, DynamicSpec(1e30, 0.0, SPEC.torque_limits)
        )
        mask = evaluate_mask(spec, predicate)
        for (i, j, k), value in np.ndenumerate(mask.data):
            assert value == reachable(spec.node_position((i, j, k)), symmetric_geometry)

    def test_zero_min_acceleration_reduces_to_reachability(self, symmetric_geometry):
        spec = self.grid()
        predicate = acceleration_predicate(
            symmetric_geometry, MODEL, DynamicSpec(SPEC.inertia_bound, 0.0, SPEC.torque_limits)
        )
        mask = evaluate_mask(spec, predicate)
        for (i, j, k), value in np.ndenumerate(mask.data):
            assert value == reachable(spec.node_position((i, j, k)), symmetric_geometry)

    def test_unattainable_bound_rejects_everything(self, symmetric_geometry):
        spec = self.grid()
        predicate = gie_predicate(
            symmetric_geometry, MODEL, DynamicSpec(1e-9, 0.0, SPEC.torque_limits)
        )
        assert not evaluate_mask(spec, predicate).data.any()

    def test_tightening_inertia_bound_shrinks_cuboid(self, symmetric_geometry):
        spec = self.grid()
        field = inertia_norm_field(symmetric_geometry, MODEL)
        from pkmforge.grid import ThresholdPredicate

        def family(bound):
            return ThresholdPredicate(field, bound, "below")

        results = nested_cuboids(spec, family, [22.0, 26.0, 32.0, 40.0, 80.0])
        edges = [r.node_edge for r in results]
        assert edges == sorted(edges)
        assert edges[-1] > edges[0]

    def test_raising_acceleration_floor_shrinks_cuboid(self, symmetric_geometry):
        spec = self.grid()
        field = acceleration_field(symmetric_geometry, MODEL, SPEC.torque_limits)
        from pkmforge.grid import ThresholdPredicate

        def family(bound):
            return ThresholdPredicate(field, bound, "above")

        loosening = [13.0, 12.0, 11.0, 10.0, 8.0]
        results = nested_cuboids(spec, family, loosening)
        edges = [r.node_edge for r in results]
        assert edges == sorted(edges)
        assert edges[-1] > edges[0]


class TestValidation:
    def test_model_rejects_bad_masses(self):
        with pytest.raises(ValueError):
            InertiaModel(joint_masses=[1.0, -1.0, 1.0], tcp_mass=1.0)

    def test_spec_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            DynamicSpec(1.0, 1.0, [1, 1, 1], acceleration_mode="sometimes")

    def test_acceleration_field_rejects_bad_mode(self, symmetric_geometry):
        with pytest.raises(ValueError, match="bal"):
            acceleration_field(symmetric_geometry, MODEL, SPEC.torque_limits, mode="bal")

    def test_fibonacci_sphere_is_unit_and_deterministic(self):
        a = fibonacci_sphere(256)
        b = fibonacci_sphere(256)
        assert np.array_equal(a, b)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
