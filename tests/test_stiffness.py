import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from conftest import on_cpus, reachable, signed_zero_values

from pkmforge import grid, stiffness
from pkmforge.errors import EmptyInput, SingularStiffness, SingularSystem
from pkmforge.grid import GridSpec, ThresholdPredicate, evaluate_mask, nested_cuboids
from pkmforge.kinematics import GeometryParams, batch_inverse_kinematics, inverse_kinematics
from pkmforge.stiffness import (
    CartesianStiffness,
    ChainModel,
    CrossSection,
    OrthoglideStiffnessModel,
    StiffnessSpec,
    aggregate_stiffness,
    beam_spring,
    chain_cartesian_stiffness,
    cross_section_sweep,
    deflection,
    deflection_field,
    scale_cross_section,
    stiffness_predicate,
)

ALUMINUM = CrossSection(width=0.025, height=0.025, elastic_modulus=7e10, shear_modulus=2.6e10)


def random_chain(rng, n_virtual=12, n_passive=2):
    j_virtual = rng.normal(size=(6, n_virtual))
    seed = rng.normal(size=(n_virtual, n_virtual))
    k_virtual = seed @ seed.T + n_virtual * np.eye(n_virtual)
    j_passive = rng.normal(size=(6, n_passive))
    return ChainModel(j_virtual=j_virtual, j_passive=j_passive, k_virtual=k_virtual)


def oracle_stiffness(chain):
    """Independent constrained-compliance elimination of the passive freedoms."""
    compliance = chain.j_virtual @ np.linalg.solve(chain.k_virtual, chain.j_virtual.T)
    if chain.n_passive == 0:
        return np.linalg.inv(compliance)
    basis = null_space(chain.j_passive.T)
    return basis @ np.linalg.solve(basis.T @ compliance @ basis, basis.T)


def default_model(deflection_limit=1e-4):
    geometry = GeometryParams([1.0, 1.0, 1.0], [[-1.9, -0.1]] * 3)
    model = OrthoglideStiffnessModel(
        geometry=geometry,
        actuator_stiffness=1e8,
        foot_section=CrossSection(0.04, 0.04, 7e10, 2.6e10),
        foot_length=0.15,
        parallelogram_section=ALUMINUM,
    )
    spec = StiffnessSpec(load=[0.0, 200.0, 200.0, 0.0, 0.0, 0.0], deflection_limit=deflection_limit)
    return model, spec


class TestChainStiffness:
    def test_trivial_chain_is_exactly_scaled_identity(self):
        chain = ChainModel(np.eye(6), np.zeros((6, 0)), 4.0 * np.eye(6))
        assert np.array_equal(chain_cartesian_stiffness(chain).matrix, 4.0 * np.eye(6))

    def test_single_passive_direction_annihilated(self, rng):
        for _ in range(50):
            chain = random_chain(rng, n_passive=1)
            k = chain_cartesian_stiffness(chain).matrix
            axis = chain.j_passive[:, 0]
            assert abs(axis @ k @ axis) <= 1e-8 * np.abs(k).max()

    def test_matches_null_space_oracle(self, rng):
        for _ in range(50):
            chain = random_chain(rng)
            k = chain_cartesian_stiffness(chain).matrix
            reference = oracle_stiffness(chain)
            assert np.abs(k - reference).max() <= 1e-8 * np.abs(reference).max()

    def test_spring_scaling_homogeneity(self, rng):
        chain = random_chain(rng)
        k1 = chain_cartesian_stiffness(chain).matrix
        scaled = ChainModel(chain.j_virtual, chain.j_passive, 2.5 * chain.k_virtual)
        k2 = chain_cartesian_stiffness(scaled).matrix
        assert np.allclose(k2, 2.5 * k1, rtol=1e-10)

    def test_rank_deficient_raises(self):
        # five passive freedoms leave the block system rank deficient
        j_virtual = np.zeros((6, 6))
        j_virtual[0, 0] = 1.0
        chain = ChainModel(j_virtual + 1e-16 * np.eye(6), np.eye(6)[:, :5], np.eye(6))
        with pytest.raises(SingularSystem):
            chain_cartesian_stiffness(chain)

    def test_output_is_symmetric_psd(self, rng):
        for _ in range(20):
            chain = random_chain(rng, n_passive=rng.integers(0, 4))
            k = chain_cartesian_stiffness(chain).matrix
            assert np.abs(k - k.T).max() <= 1e-10 * np.abs(k).max()
            assert np.linalg.eigvalsh(k).min() >= -1e-10 * np.abs(k).max()


class TestAggregation:
    def test_two_identical_chains_double(self, rng):
        k = chain_cartesian_stiffness(random_chain(rng))
        total = aggregate_stiffness([k, k])
        assert np.array_equal(total.matrix, 2.0 * k.matrix)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            aggregate_stiffness([])

    def test_permutation_invariant(self, rng):
        chains = [chain_cartesian_stiffness(random_chain(rng)) for _ in range(3)]
        forward = aggregate_stiffness(chains).matrix
        backward = aggregate_stiffness(chains[::-1]).matrix
        assert np.allclose(forward, backward, rtol=0, atol=1e-9 * np.abs(forward).max())

    def test_orthogonal_passive_chains_give_definite_sum(self):
        # each chain is soft along one passive twist; together they cover R^6
        chains = []
        for axis in range(3):
            j_passive = np.zeros((6, 1))
            j_passive[axis, 0] = 1.0
            j_passive[3 + axis, 0] = 0.5
            chains.append(
                chain_cartesian_stiffness(ChainModel(np.eye(6), j_passive, np.eye(6)))
            )
            j_passive = np.zeros((6, 1))
            j_passive[3 + axis, 0] = 1.0
            j_passive[(axis + 1) % 3, 0] = -0.5
            chains.append(
                chain_cartesian_stiffness(ChainModel(np.eye(6), j_passive, np.eye(6)))
            )
        for chain in chains:
            assert np.linalg.eigvalsh(chain.matrix).min() <= 1e-9  # each singular alone
        total = aggregate_stiffness(chains)
        assert np.linalg.eigvalsh(total.matrix).min() > 0.0

    def test_adding_a_chain_never_softens(self, rng):
        base = [chain_cartesian_stiffness(random_chain(rng)) for _ in range(2)]
        extra = chain_cartesian_stiffness(random_chain(rng))
        before = np.linalg.eigvalsh(aggregate_stiffness(base).matrix)
        after = np.linalg.eigvalsh(aggregate_stiffness(base + [extra]).matrix)
        assert np.all(after >= before - 1e-8 * np.abs(before).max())


class TestDeflection:
    def test_isotropic_stiffness(self):
        k = CartesianStiffness(5.0 * np.eye(6))
        twist = deflection(k, [10.0, 0, 0, 0, 0, 0])
        assert np.allclose(twist, [2.0, 0, 0, 0, 0, 0])

    def test_linearity(self, rng):
        seed = rng.normal(size=(6, 6))
        k = CartesianStiffness(seed @ seed.T + 6 * np.eye(6))
        f = rng.normal(size=6)
        assert np.allclose(deflection(k, 2 * f), 2 * deflection(k, f), rtol=1e-12)

    def test_residual(self, rng):
        for _ in range(20):
            seed = rng.normal(size=(6, 6))
            k = CartesianStiffness(seed @ seed.T + 6 * np.eye(6))
            f = rng.normal(size=6)
            twist = deflection(k, f)
            assert np.linalg.norm(k.matrix @ twist - f) <= 1e-9 * np.linalg.norm(f)

    def test_singular_raises(self):
        nearly_singular = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1e-14])
        with pytest.raises(SingularStiffness):
            deflection(CartesianStiffness(nearly_singular), np.ones(6))


class TestBeamSpring:
    def test_axial_entry(self):
        k = beam_spring(ALUMINUM, 0.5)
        expected = ALUMINUM.elastic_modulus * ALUMINUM.width * ALUMINUM.height / 0.5
        assert k[0, 0] == pytest.approx(expected)

    def test_doubling_modulus_doubles_elastic_entries(self):
        k1 = beam_spring(ALUMINUM, 0.5)
        stiffer = CrossSection(ALUMINUM.width, ALUMINUM.height, 2 * ALUMINUM.elastic_modulus, ALUMINUM.shear_modulus)
        k2 = beam_spring(stiffer, 0.5)
        elastic = np.ones((6, 6), bool)
        elastic[3, 3] = False  # torsion follows the shear modulus instead
        assert np.allclose(k2[elastic], 2 * k1[elastic])
        assert k2[3, 3] == k1[3, 3]

    def test_positive_definite_reference_section(self):
        section = CrossSection(0.02, 0.02, 7e10, 2.6e10)
        eigenvalues = np.linalg.eigvalsh(beam_spring(section, 0.5))
        assert eigenvalues.min() > 0.0


class TestCrossSectionScaling:
    def test_identity(self):
        assert scale_cross_section(ALUMINUM, 1.0) == ALUMINUM

    def test_area_preserved_at_reported_optimum_region(self):
        scaled = scale_cross_section(ALUMINUM, 1.8)
        assert scaled.width * scaled.height == pytest.approx(ALUMINUM.width * ALUMINUM.height, rel=1e-15)

    def test_inverse_round_trip(self):
        scaled = scale_cross_section(scale_cross_section(ALUMINUM, 1.7), 1 / 1.7)
        assert scaled.width == pytest.approx(ALUMINUM.width, rel=1e-12)
        assert scaled.height == pytest.approx(ALUMINUM.height, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_cross_section(ALUMINUM, 0.0)


class TestOrthoglideModel:
    def test_chain_shapes(self):
        model, _ = default_model()
        chains = model.chains([0.1, -0.1, 0.2])
        assert len(chains) == 3
        for chain in chains:
            assert chain.j_virtual.shape == (6, 13)
            assert chain.j_passive.shape == (6, 2)
            assert chain.k_virtual.shape == (13, 13)

    def test_aggregate_definite_at_reachable_poses(self, rng):
        model, _ = default_model()
        from conftest import sample_reachable_points

        for p in sample_reachable_points(model.geometry, rng, 10):
            total = model.cartesian_stiffness(p)
            assert np.linalg.eigvalsh(total.matrix).min() > 0.0

    def test_batch_matches_scalar(self, rng):
        model, spec = default_model()
        points = np.array([[0.0, 0.0, 0.0], [0.2, 0.1, -0.15], [0.3, -0.2, 0.25], [9.0, 0.0, 0.0]])
        valid, values = model.batch_deflection(points, spec.load)
        field = deflection_field(model, spec.load)
        for idx, p in enumerate(points):
            scalar = field(p)
            if np.isnan(scalar):
                assert not valid[idx]
            else:
                assert values[idx] == pytest.approx(scalar, rel=1e-9)

    @settings(database=None, derandomize=True, deadline=None)
    @given(st.tuples(*[st.floats(-0.45, 0.45)] * 3))
    def test_batch_row_matches_block_system(self, point):
        model, _ = default_model()
        p = np.array(point)
        assume(reachable(p, model.geometry))
        valid, stiffness = model.batch_cartesian_stiffness(p[None])
        reference = model.cartesian_stiffness(p).matrix
        assert valid[0]
        assert np.abs(stiffness[0] - reference).max() <= 1e-9 * np.abs(reference).max()

    def test_stiffer_springs_deflect_less(self):
        model, spec = default_model()
        stiffer = OrthoglideStiffnessModel(
            geometry=model.geometry,
            actuator_stiffness=model.actuator_stiffness,
            foot_section=model.foot_section,
            foot_length=model.foot_length,
            parallelogram_section=CrossSection(0.05, 0.05, 7e10, 2.6e10),
        )
        field_soft = deflection_field(model, spec.load)
        field_stiff = deflection_field(stiffer, spec.load)
        p = [0.2, 0.15, -0.1]
        assert field_stiff(p) < field_soft(p)


class TestBlockedSweep:
    """The stiffness sweep packs the reachable rows and runs them per block on
    a thread pool; no row's bits may depend on the blocking or on the CPU
    count."""

    BLOCK = grid.SWEEP_BLOCK_ROWS
    ROWS = 5 * BLOCK + 77
    # slice ends; each slice packs its own reachable rows into blocks
    CUTS = (0, 1, BLOCK // 2, BLOCK + 1, 2 * BLOCK - 1, 3 * BLOCK - BLOCK // 3, ROWS)

    @pytest.fixture(scope="class")
    def points(self):
        # 40 % of the rows are unreachable; the reachable ones fill three full
        # blocks and a short last one
        return np.random.default_rng(7).uniform(-0.9, 0.9, size=(self.ROWS, 3))

    @pytest.fixture(scope="class")
    def short_block(self, points):
        """Rows in the sweep's last, short block."""
        reachable, _ = batch_inverse_kinematics(points, default_model()[0].geometry)
        full, short = divmod(int(reachable.sum()), self.BLOCK)
        assert full == 3 and 0 < short
        return short

    @staticmethod
    def sweep(points):
        model, spec = default_model()
        valid, k = model.batch_cartesian_stiffness(points)
        solved, values = stiffness.translational_deflection(valid, k, spec.load)
        return valid, k, solved, values

    def assert_bitwise_equal(self, outputs, references):
        for output, reference in zip(outputs, references):
            assert output.dtype == reference.dtype
            assert np.array_equal(output, reference, equal_nan=output.dtype.kind == "f")
            assert output.tobytes() == reference.tobytes()

    def test_blocks_match_slices_and_one_cpu_bitwise(self, points, monkeypatch):
        on_cpus(monkeypatch, 2)
        threaded = self.sweep(points)
        assert threaded[0].any() and not threaded[0].all()
        assert threaded[2].any()
        pieces = [self.sweep(points[lo:hi]) for lo, hi in zip(self.CUTS, self.CUTS[1:])]
        self.assert_bitwise_equal(threaded, [np.concatenate(column) for column in zip(*pieces)])
        on_cpus(monkeypatch, 1)
        self.assert_bitwise_equal(threaded, self.sweep(points))

    def test_many_small_blocks_on_more_workers_than_cores(self, points, monkeypatch):
        on_cpus(monkeypatch, 1)
        reference = self.sweep(points[:1000])
        on_cpus(monkeypatch, 8)
        monkeypatch.setattr(grid, "SWEEP_BLOCK_ROWS", 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.perf_counter()
            stressed = self.sweep(points[:1000])
        finally:
            sys.setswitchinterval(interval)
        assert time.perf_counter() - started < 60.0
        self.assert_bitwise_equal(stressed, reference)

    def test_failed_batched_inverse_falls_back_per_row_in_its_block(self, points, short_block, monkeypatch):
        on_cpus(monkeypatch, 2)
        reference = self.sweep(points)
        solve = np.linalg.solve
        single_rows = []

        def short_batch_fails(a, b):
            if a.ndim == 3 and a.shape[0] == short_block:
                raise np.linalg.LinAlgError("Singular matrix")
            if a.ndim == 2:
                single_rows.append(1)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", short_batch_fails)
        model, _ = default_model()
        valid, k = model.batch_cartesian_stiffness(points)
        monkeypatch.undo()
        assert len(single_rows) == 3 * short_block  # each leg of each row in the short block
        self.assert_bitwise_equal((valid, k), reference[:2])

    def test_programming_error_in_a_block_propagates(self, points, short_block, monkeypatch):
        on_cpus(monkeypatch, 2)
        leg_jacobians = OrthoglideStiffnessModel._leg_jacobians
        threads = set()

        def broken_short_block(self, pts, rho, leg):
            threads.add(threading.current_thread())
            if pts.shape[0] == short_block:
                raise TypeError("broken block")
            return leg_jacobians(self, pts, rho, leg)

        monkeypatch.setattr(OrthoglideStiffnessModel, "_leg_jacobians", broken_short_block)
        with pytest.raises(TypeError, match="broken block"):
            self.sweep(points)
        assert threading.main_thread() not in threads

    def test_stiffness_is_zero_exactly_where_invalid(self, points, monkeypatch):
        on_cpus(monkeypatch, 2)
        reference = self.sweep(points)
        leg_jacobians = OrthoglideStiffnessModel._leg_jacobians

        def some_legs_fail(self, pts, rho, leg):
            ok, j_virtual, j_passive = leg_jacobians(self, pts, rho, leg)
            ok[leg::7] = False
            return ok, j_virtual, j_passive

        monkeypatch.setattr(OrthoglideStiffnessModel, "_leg_jacobians", some_legs_fail)
        valid, k, _, _ = self.sweep(points)
        reachable, _ = batch_inverse_kinematics(points, default_model()[0].geometry)
        # some reachable rows now fail in assembly, as out-of-reach rows do
        assert valid.any() and (reachable & ~valid).any() and (~reachable).any()
        assert not (valid & ~reference[0]).any()
        assert np.array_equal(k.any(axis=(1, 2)), valid)
        assert k[~valid].tobytes() == np.zeros_like(k[~valid]).tobytes()
        assert k[valid].tobytes() == reference[1][valid].tobytes()

    def test_six_column_solve_matches_inverse_bitwise(self, points, monkeypatch):
        # the sweep keeps the upper-left 6x6 block of each block system's
        # inverse from a solve against six identity columns; this holds it to
        # the full inverse on the real blocks of all three legs
        solve = np.linalg.solve
        systems = []

        def recording_solve(a, b):
            x = solve(a, b)
            systems.append((a.copy(), b, x))
            return x

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        model, _ = default_model()
        model.batch_cartesian_stiffness(points)
        monkeypatch.undo()
        assert len(systems) == 3 * 4  # three legs of three full blocks and a short one
        for a, b, x in systems:
            # a stack of right-hand sides, as numpy 1.x reads (n, 8, 8) with
            # (8, 6) as a stack of vectors and rejects it
            assert b.shape == (1, 8, 6)
            assert a.shape[1:] == (8, 8) and x.shape == (a.shape[0], 8, 6)
            assert x[:, :6].tobytes() == np.linalg.inv(a)[:, :6, :6].tobytes()


def eigvalsh_only_deflection(valid, stiffness_, load):
    """``translational_deflection`` as it was before the Cholesky check, with
    every row's condition guard decided by ``eigvalsh``: the bit oracle."""
    f = np.asarray(load, dtype=float)
    values = np.full(stiffness_.shape[0], np.nan)
    solved = np.zeros_like(valid)

    def block(rows):
        solvable = np.flatnonzero(valid[rows]) + rows.start
        if not solvable.size:
            return
        k_sub = stiffness_[solvable]
        eigenvalues = np.linalg.eigvalsh(0.5 * (k_sub + np.transpose(k_sub, (0, 2, 1))))
        solvable = solvable[eigenvalues[:, 0] > eigenvalues[:, -1] / stiffness.CONDITION_LIMIT]
        if solvable.size:
            rhs = np.tile(f.reshape(1, 6, 1), (solvable.size, 1, 1))
            twists = np.linalg.solve(stiffness_[solvable], rhs)[:, :, 0]
            values[solvable] = np.linalg.norm(twists[:, :3], axis=1)
            solved[solvable] = True

    grid.sweep_blocks(stiffness_.shape[0], block)
    return solved, values


def spd_with_spectrum(rng, eigenvalues):
    """Q diag(eigenvalues) Q^T for a random rotation Q."""
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    return (q * eigenvalues) @ q.T


def oracle_guard(k):
    """``eigvalsh_only_deflection``'s condition guard on one 6x6 matrix."""
    eigenvalues = np.linalg.eigvalsh(0.5 * (k + k.T))
    return bool(eigenvalues[0] > eigenvalues[-1] / stiffness.CONDITION_LIMIT)


class TestConditionGuard:
    """The Cholesky check decides only rows on which ``eigvalsh`` would say
    "conditioned"; every other row reaches ``eigvalsh`` as before, so the
    output keeps the bits of the ``eigvalsh``-only guard."""

    BLOCK = grid.SWEEP_BLOCK_ROWS
    LOAD = np.array([100.0, -50.0, 80.0, 3.0, -2.0, 1.0])
    # condition numbers of the planted SPD rows, on both sides of 1e12
    CONDITIONS = (1e9, 1e11, 5e11, 9e11, 1.1e12, 2e12, 1e13)

    @classmethod
    def rows(cls):
        """(valid, K, undecided) over four blocks: well-conditioned SPD
        rows in stiffness units, some not symmetric, and planted rows that
        the check must leave to ``eigvalsh``; ``undecided`` flags those."""
        rng = np.random.default_rng(12)
        n = 3 * cls.BLOCK + 100
        k = np.stack([spd_with_spectrum(rng, 1e7 * np.logspace(0, -rng.uniform(0, 4), 6)) for _ in range(n)])
        skew = rng.normal(size=(n, 6, 6))
        k[::5] += 1e3 * (skew[::5] - np.transpose(skew[::5], (0, 2, 1)))
        valid = np.ones(n, dtype=bool)
        undecided = np.zeros(n, dtype=bool)
        planted = []
        for condition in cls.CONDITIONS:
            for scale in (1e-3, 1e7):
                planted.append(spd_with_spectrum(rng, scale * np.logspace(0, -np.log10(condition), 6)))
        asymmetric = spd_with_spectrum(rng, 1e7 * np.logspace(0, -13, 6))
        planted.append(asymmetric + 1e-2 * (skew[0] - skew[0].T))
        planted.append(np.zeros((6, 6)))
        # ||K||_F**2 underflows: the check must not certify on a zero shift
        planted.append(spd_with_spectrum(rng, 1e-170 * np.logspace(0, -13, 6)))
        # ||K||_F**2 overflows
        planted.append(spd_with_spectrum(rng, 1e160 * np.logspace(0, -2, 6)))
        # at block edges and spread through every block
        edges = [0, cls.BLOCK - 1, cls.BLOCK, 2 * cls.BLOCK, n - 1]
        inner = rng.choice(np.setdiff1d(np.arange(n), edges), len(planted) - len(edges), replace=False)
        at = np.concatenate([edges, inner])
        assert np.unique(at // cls.BLOCK).size == 4
        k[at] = planted
        undecided[at] = True
        # rows the sweep flagged invalid hold anything and reach no guard
        invalid = rng.choice(np.flatnonzero(~undecided), 30, replace=False)
        valid[invalid] = False
        k[invalid[:10]] = np.nan
        k[invalid[10:20]] = np.inf
        k[invalid[20:]] = -np.inf
        return valid, k, undecided

    @staticmethod
    def counting_eigvalsh(monkeypatch):
        """Patches ``np.linalg.eigvalsh`` to record each matrix it sees."""
        eigvalsh = np.linalg.eigvalsh
        seen = []

        def recording(a):
            seen.extend(a.reshape(-1, 6, 6).copy())
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        return seen

    @staticmethod
    def sorted_bytes(matrices):
        return sorted(m.tobytes() for m in matrices)

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_matches_eigvalsh_only_guard_bitwise(self, monkeypatch, cpus):
        valid, k, undecided = self.rows()
        on_cpus(monkeypatch, cpus)
        reference = eigvalsh_only_deflection(valid, k, self.LOAD)
        # the planted rows fall on both sides of the guard
        assert reference[0][undecided].any() and not reference[0][undecided].all()
        assert reference[0][valid & ~undecided].all()
        seen = self.counting_eigvalsh(monkeypatch)
        solved, values = stiffness.translational_deflection(valid, k, self.LOAD)
        monkeypatch.undo()
        assert solved.tobytes() == reference[0].tobytes()
        assert values.tobytes() == reference[1].tobytes()
        # exactly the planted rows reach eigvalsh, as the symmetric part
        k_sym = 0.5 * (k + np.transpose(k, (0, 2, 1)))
        assert self.sorted_bytes(seen) == self.sorted_bytes(k_sym[undecided])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_valid_row_reaches_eigvalsh(self, monkeypatch, bad):
        # eigvalsh raises on such a row, for the whole block, as it did
        valid, k, _ = self.rows()
        k[self.BLOCK + 3, 2, 2] = bad
        on_cpus(monkeypatch, 2)
        with pytest.raises(np.linalg.LinAlgError):
            eigvalsh_only_deflection(valid, k, self.LOAD)
        seen = self.counting_eigvalsh(monkeypatch)
        with pytest.raises(np.linalg.LinAlgError):
            stiffness.translational_deflection(valid, k, self.LOAD)
        monkeypatch.undo()
        assert any(not np.isfinite(m).all() for m in seen)

    @settings(database=None, derandomize=True, deadline=None, max_examples=400)
    @given(
        log_condition=st.floats(0.0, 14.0),
        log_scale=st.floats(-6.0, 12.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_certified_row_passes_eigvalsh_guard_property(self, log_condition, log_scale, seed):
        rng = np.random.default_rng(seed)
        inner = np.sort(rng.uniform(-log_condition, 0.0, size=4))
        spectrum = 10.0 ** np.concatenate([[-log_condition], inner, [0.0]]) * 10.0**log_scale
        k = spd_with_spectrum(rng, spectrum)
        k_sym = 0.5 * (k + k.T)
        certified = stiffness._certified_conditioned(k_sym[None])[0]
        if certified:
            assert oracle_guard(k)
        if log_condition <= 8.0:  # the check leaves a margin, not a gap
            assert certified


class TestOrderedCompliance:
    """``_compliance`` keeps every bit of the einsum it replaced, signed zeros
    included, and so the sweep does too."""

    @staticmethod
    def einsum(j_virtual, k_inv):
        return np.einsum("nij,jk,nlk->nil", j_virtual, k_inv, j_virtual)

    def assert_same_bits(self, j_virtual, k_inv):
        got = stiffness._compliance(j_virtual, k_inv)
        reference = self.einsum(j_virtual, k_inv)
        assert got.shape == reference.shape
        assert got.tobytes() == reference.tobytes()

    @settings(database=None, derandomize=True, deadline=None, max_examples=60)
    @given(
        n=st.sampled_from((0, 1, 7, 2048, 2049)),
        seed=st.integers(0, 2**32 - 1),
        k_zeros=st.floats(0.0, 1.0),
        j_zeros=st.floats(0.0, 0.6),
    )
    def test_matches_einsum_bitwise_property(self, n, seed, k_zeros, j_zeros):
        rng = np.random.default_rng(seed)
        k_inv = signed_zero_values(rng, (13, 13), k_zeros)
        j_virtual = signed_zero_values(rng, (n, 6, 13), j_zeros)
        self.assert_same_bits(j_virtual, k_inv)

    @pytest.fixture(scope="class")
    def points(self):
        # two full blocks and a ragged tail, most rows reachable
        rows = 2 * grid.SWEEP_BLOCK_ROWS + 77
        return np.random.default_rng(11).uniform(-0.6, 0.6, size=(rows, 3))

    @settings(database=None, derandomize=True, deadline=None, max_examples=40)
    @given(
        n=st.sampled_from((2048, 2049)),
        seed=st.integers(0, 2**32 - 1),
        k_zeros=st.floats(0.0, 1.0),
        j_zeros=st.floats(0.0, 0.6),
    )
    def test_trimmed_rows_match_einsum_bitwise_property(self, n, seed, k_zeros, j_zeros):
        # every column is +0.0 or -0.0 from a random row on in every row of
        # the input, so the row trim skips terms on full blocks
        rng = np.random.default_rng(seed)
        k_inv = signed_zero_values(rng, (13, 13), k_zeros)
        j_virtual = signed_zero_values(rng, (n, 6, 13), j_zeros)
        trailing = np.arange(6)[:, None] >= rng.integers(0, 7, size=13)[None, :]
        zeros = np.where(rng.random(j_virtual.shape) < 0.5, -0.0, 0.0)
        self.assert_same_bits(np.where(trailing, zeros, j_virtual), k_inv)

    def test_real_leg_jacobians_bitwise(self, points):
        model, _ = default_model()
        reachable, rho = batch_inverse_kinematics(points, model.geometry)
        assert reachable.any() and not reachable.all()
        for leg in range(3):
            k_inv = np.linalg.inv(model._spring_matrix(leg))
            assert 0 < np.count_nonzero(k_inv) < k_inv.size
            _, j_virtual, _ = model._leg_jacobians(points, rho, leg)
            self.assert_same_bits(j_virtual, k_inv)
            for start in range(0, points.shape[0], grid.SWEEP_BLOCK_ROWS):
                rows = slice(start, start + grid.SWEEP_BLOCK_ROWS)
                _, j_block, _ = model._leg_jacobians(points[rows], rho[rows], leg)
                self.assert_same_bits(j_block, k_inv)

    def test_sweep_matches_einsum_sweep_bitwise(self, points, monkeypatch):
        model, _ = default_model()
        valid, k = model.batch_cartesian_stiffness(points)
        monkeypatch.setattr(stiffness, "_compliance", self.einsum)
        reference_valid, reference_k = model.batch_cartesian_stiffness(points)
        assert valid.tobytes() == reference_valid.tobytes()
        assert k.tobytes() == reference_k.tobytes()


def reference_leg_jacobians(model, pts, rho, leg):
    """One leg's (ok, J_virtual (N, 6, 13), J_passive (N, 6, 2)) built with
    ``np.cross`` and ``np.linalg.norm`` on (N, 3) rows."""
    axes = np.eye(3)
    n = pts.shape[0]
    anchor = np.zeros((n, 3))
    anchor[:, leg] = rho[:, leg]
    lever = pts - anchor
    direction = lever / model.geometry.leg_lengths[leg]
    normal1 = np.cross(direction, axes[(1, 2, 0)[leg]])
    norms = np.linalg.norm(normal1, axis=1)
    ok = norms >= 1e-9
    normal1 = normal1 / np.where(ok, norms, 1.0)[:, None]
    normal2 = np.cross(direction, normal1)
    j_virtual = np.zeros((n, 6, 13))
    j_virtual[:, :3, 0] = axes[leg]
    for m, axis in enumerate((axes[leg], axes[(leg + 1) % 3], axes[(leg + 2) % 3])):
        j_virtual[:, :3, 1 + m] = axis
        j_virtual[:, :3, 4 + m] = np.cross(np.broadcast_to(axis, lever.shape), lever)
        j_virtual[:, 3:, 4 + m] = axis
    for m, axis in enumerate((direction, normal1, normal2)):
        j_virtual[:, :3, 7 + m] = axis
        j_virtual[:, :3, 10 + m] = np.cross(axis, lever)
        j_virtual[:, 3:, 10 + m] = axis
    j_passive = np.zeros((n, 6, 2))
    j_passive[:, :3, 0] = np.cross(normal1, lever)
    j_passive[:, 3:, 0] = normal1
    j_passive[:, :3, 1] = np.cross(normal2, lever)
    j_passive[:, 3:, 1] = normal2
    return ok, j_virtual, j_passive


class TestLegJacobians:
    """The per-component leg Jacobians keep every bit of the ``np.cross``
    formulation, signed zeros and the aligned-leg guard included."""

    @staticmethod
    def assert_same_bits(actual, expected):
        for got, reference in zip(actual, expected):
            assert got.shape == reference.shape
            assert got.tobytes() == reference.tobytes()

    def test_rows_bitwise(self):
        model, _ = default_model()
        rng = np.random.default_rng(5)
        points = rng.uniform(-0.9, 0.9, size=(3000, 3))
        # zero coordinates of either sign (x * 0.0 keeps x's sign), and a
        # point where each leg in turn lies along its frame reference axis
        points[:300] *= rng.random((300, 3)) < 0.5
        aligned = np.zeros((3, 3))
        aligned[[0, 1, 2], [1, 2, 0]] = model.geometry.leg_lengths
        points = np.concatenate([points, aligned])
        _, rho = batch_inverse_kinematics(points, model.geometry)
        for leg in range(3):
            ok, j_virtual, j_passive = model._leg_jacobians(points, rho, leg)
            assert not ok[-3 + leg]
            self.assert_same_bits((ok, j_virtual, j_passive), reference_leg_jacobians(model, points, rho, leg))
            # one (13, 6, N) array, as _compliance reads it
            assert np.transpose(j_virtual, (2, 1, 0)).flags.c_contiguous

    def test_chains_keep_their_bits(self):
        model, _ = default_model()
        for point in ([0.1, -0.1, 0.2], [0.0, -0.0, 0.3], [-0.25, 0.2, 0.0]):
            p = np.array(point)
            rho = inverse_kinematics(p, model.geometry)
            for leg, chain in enumerate(model.chains(p)):
                _, j_virtual, j_passive = reference_leg_jacobians(model, p[None], rho[None], leg)
                assert chain.j_virtual.flags.c_contiguous and chain.j_passive.flags.c_contiguous
                self.assert_same_bits((chain.j_virtual, chain.j_passive), (j_virtual[0], j_passive[0]))


class TestStiffnessPredicate:
    def test_infinite_limit_reduces_to_reachability(self):
        model, _ = default_model()
        spec = GridSpec(origin=(-0.6, -0.6, -0.6), proportions=(1, 1, 1), resolution=8, dims=(11, 11, 11))
        predicate = stiffness_predicate(model, StiffnessSpec(load=[0, 200, 200, 0, 0, 0], deflection_limit=1e30))
        mask = evaluate_mask(spec, predicate)
        for (i, j, k), value in np.ndenumerate(mask.data):
            assert value == reachable(spec.node_position((i, j, k)), model.geometry)

    def test_zero_limit_rejects_everything(self):
        model, _ = default_model()
        spec = GridSpec(origin=(-0.4, -0.4, -0.4), proportions=(1, 1, 1), resolution=8, dims=(7, 7, 7))
        tiny = StiffnessSpec(load=[0, 200.0, 200.0, 0, 0, 0], deflection_limit=1e-300)
        mask = evaluate_mask(spec, stiffness_predicate(model, tiny))
        assert not mask.data.any()

    def test_tightening_limit_shrinks_cuboid(self):
        model, base = default_model()
        spec = GridSpec(origin=(-0.5, -0.5, -0.5), proportions=(1, 1, 1), resolution=16, dims=(17, 17, 17))
        field = deflection_field(model, base.load)

        def family(limit):
            return ThresholdPredicate(field, limit, "below")

        results = nested_cuboids(spec, family, [2e-5, 4e-5, 8e-5, 1.6e-4, 3.2e-4])
        edges = [r.node_edge for r in results]
        assert edges == sorted(edges)
        assert edges[-1] > edges[0]  # the sweep actually spans the transition


class TestTypeValidation:
    def test_chain_rejects_asymmetric_spring(self, rng):
        k = np.eye(6)
        k[0, 1] = 1e-3
        with pytest.raises(ValueError):
            ChainModel(np.eye(6), np.zeros((6, 0)), k)

    def test_chain_rejects_indefinite_spring(self):
        with pytest.raises(ValueError):
            ChainModel(np.eye(6), np.zeros((6, 0)), -np.eye(6))

    def test_chain_rejects_six_passive_joints(self):
        with pytest.raises(ValueError):
            ChainModel(np.eye(6), np.eye(6), np.eye(6))

    def test_cartesian_stiffness_rejects_indefinite(self):
        with pytest.raises(ValueError):
            CartesianStiffness(np.diag([1.0, 1, 1, 1, 1, -1]))

    def test_spec_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            StiffnessSpec(load=np.zeros(6), deflection_limit=0.0)

    def test_cross_section_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CrossSection(width=0.0, height=0.01, elastic_modulus=7e10, shear_modulus=2.6e10)


class TestValueSemantics:
    def test_chain_models_compare_and_hash_by_value(self, rng):
        chain = random_chain(rng)
        same = ChainModel(chain.j_virtual.tolist(), chain.j_passive.tolist(), chain.k_virtual.tolist())
        assert chain == same
        assert hash(chain) == hash(same)
        assert len({chain, same}) == 1
        bumped = chain.j_passive.copy()
        bumped[5, 1] += 1e-3
        assert chain != ChainModel(chain.j_virtual, bumped, chain.k_virtual)
        assert chain != ChainModel(chain.j_virtual, chain.j_passive[:, :1], chain.k_virtual)
        assert chain != (chain.j_virtual, chain.j_passive, chain.k_virtual)

    def test_cartesian_stiffness_compares_and_hashes_by_value(self):
        k = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        a = CartesianStiffness(k)
        b = CartesianStiffness(k.tolist())
        assert a == b
        assert hash(a) == hash(b)
        assert a != CartesianStiffness(2.0 * k)
        assert a != CartesianStiffness(k.T[::-1, ::-1])

    def test_spec_compares_and_hashes_by_value(self):
        _, spec = default_model()
        same = StiffnessSpec(load=list(spec.load), deflection_limit=spec.deflection_limit)
        assert spec == same
        assert hash(spec) == hash(same)
        assert spec != StiffnessSpec(load=spec.load, deflection_limit=2 * spec.deflection_limit)
        assert spec != StiffnessSpec(load=spec.load[::-1], deflection_limit=spec.deflection_limit)


class TestCrossSectionStudy:
    def test_interior_optimum_exists(self):
        model, spec = default_model()
        factors = np.linspace(0.5, 3.0, 21)
        pose = [0.2, 0.25, -0.1]
        values = cross_section_sweep(model, pose, spec.load, factors)
        best = int(np.argmin(values))
        assert 0 < best < len(factors) - 1
        assert values[best] < values[0]
        assert values[best] < values[-1]
