"""The kinematic and dynamics sweeps work on the kept rows only; these tests
hold them byte for byte to the full-grid formulation below, which builds M,
its einsum Gram and the joint-space inertias on every row, substitutes the
identity at invalid rows and masks the results afterwards.  Its inverse
kinematics and 3x3 eigenvalues are the plain loop and formula, with a fresh
array per operation, that the package's in-place kernels must match bit for
bit; they are held to those kernels directly too."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkmforge._spectral import sym_eigvals_3x3
from pkmforge.dynamics import InertiaModel, acceleration_field, inertia_norm_field
from pkmforge.kinematics import (
    _CYCLIC,
    CONDITION_LIMIT,
    DENOMINATOR_EPS,
    TRANSMISSION_BLOCK_ROWS,
    GeometryParams,
    batch_inverse_kinematics,
    batch_transmission,
    kinematic_sample,
)

MODEL = InertiaModel(joint_masses=[15.0, 12.0, 18.0], tcp_mass=3.0)
TORQUE_LIMITS = np.array([250.0, 200.0, 300.0])

# ---------------------------------------------------------------------------
# full-grid oracle
# ---------------------------------------------------------------------------


def reference_inverse_kinematics(positions, geometry):
    """(reachable, rho) of (N, 3) positions, one strided column at a time."""
    pts = np.asarray(positions, dtype=float)
    n = pts.shape[0]
    reachable = np.ones(n, dtype=bool)
    rho = np.empty((n, 3))
    for i, j, k in _CYCLIC:
        radicand = geometry.leg_lengths[i] ** 2 - pts[:, j] ** 2 - pts[:, k] ** 2
        ok = radicand >= 0.0
        root = np.sqrt(np.where(ok, radicand, 0.0))
        rho[:, i] = pts[:, i] + geometry.assembly_signs[i] * root
        lo, hi = geometry.joint_limits[i]
        reachable &= ok & (rho[:, i] >= lo) & (rho[:, i] <= hi)
    return reachable, rho


def reference_eigvals_3x3(a):
    """Smith's closed form for symmetric (..., 3, 3) matrices, ascending."""
    a = np.asarray(a, dtype=float)
    a00, a11, a22 = a[..., 0, 0], a[..., 1, 1], a[..., 2, 2]
    a01, a02, a12 = a[..., 0, 1], a[..., 0, 2], a[..., 1, 2]
    q = (a00 + a11 + a22) / 3.0
    d0, d1, d2 = a00 - q, a11 - q, a22 - q
    p2 = d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)
    p = np.sqrt(p2 / 6.0)
    degenerate = p2 <= 0.0
    safe_p = np.where(degenerate, 1.0, p)
    b00, b11, b22 = d0 / safe_p, d1 / safe_p, d2 / safe_p
    b01, b02, b12 = a01 / safe_p, a02 / safe_p, a12 / safe_p
    half_det = 0.5 * (
        b00 * (b11 * b22 - b12 * b12)
        - b01 * (b01 * b22 - b12 * b02)
        + b02 * (b01 * b12 - b11 * b02)
    )
    half_det = np.clip(half_det, -1.0, 1.0)
    phi = np.arccos(half_det) / 3.0
    two_p = 2.0 * p
    hi = q + two_p * np.cos(phi)
    lo = q + two_p * np.cos(phi + 2.0 * np.pi / 3.0)
    mid = 3.0 * q - hi - lo
    hi = np.where(degenerate, q, hi)
    lo = np.where(degenerate, q, lo)
    mid = np.where(degenerate, q, mid)
    return np.stack([lo, mid, hi], axis=-1)


def full_rate_matrices(positions, geometry):
    """(valid, M) with M of shape (N, 3, 3); invalid rows of M are unusable."""
    pts = np.asarray(positions, dtype=float)
    reachable, rho = reference_inverse_kinematics(pts, geometry)
    n = pts.shape[0]
    m = np.zeros((n, 3, 3))
    valid = reachable.copy()
    for i, j, k in _CYCLIC:
        den = pts[:, i] - rho[:, i]
        valid &= np.abs(den) >= DENOMINATOR_EPS
        safe = np.where(np.abs(den) >= DENOMINATOR_EPS, den, 1.0)
        m[:, i, i] = 1.0
        m[:, i, j] = pts[:, j] / safe
        m[:, i, k] = pts[:, k] / safe
    return valid, m


def full_transmission(positions, geometry):
    valid, m = full_rate_matrices(positions, geometry)
    gram = np.einsum("nji,njk->nik", m, m)
    vals = reference_eigvals_3x3(gram)
    lo_m, hi_m = vals[..., 0], vals[..., 2]
    valid = valid & (lo_m > 0.0) & (hi_m / np.where(lo_m > 0.0, lo_m, 1.0) <= CONDITION_LIMIT**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_min = 1.0 / np.sqrt(hi_m)
        sigma_max = 1.0 / np.sqrt(lo_m)
        cond = sigma_max / sigma_min
    nan = np.full(positions.shape[0], np.nan)
    return (
        valid,
        np.where(valid, cond, nan),
        np.where(valid, sigma_min, nan),
        np.where(valid, sigma_max, nan),
    )


def full_dynamics(positions, geometry, model):
    valid, m = full_rate_matrices(positions, geometry)
    gram = np.einsum("nij,nkj->nik", m, m)
    safe = np.where(valid[:, None, None], gram, np.eye(3)[None])
    jtj = np.linalg.inv(safe)
    inertia = np.diag(model.joint_masses)[None] + model.tcp_mass * jtj
    return valid, m, inertia


def full_inertia_norm(positions, geometry, model):
    valid, m, inertia = full_dynamics(positions, geometry, model)
    g = np.einsum("nji,njk,nkl->nil", m, inertia, m)
    return np.where(valid, reference_eigvals_3x3(g)[..., 2], np.nan)


def full_acceleration(positions, geometry, model, limits, mode):
    valid, m, inertia = full_dynamics(positions, geometry, model)
    dm = np.einsum("nij,njk->nik", inertia, m)
    safe = np.where(valid[:, None, None], dm, np.eye(3)[None])
    generators = np.linalg.inv(safe) * limits[None, None, :]
    g0, g1, g2 = generators[:, :, 0], generators[:, :, 1], generators[:, :, 2]
    if mode == "max":
        best = np.zeros(positions.shape[0])
        for s1 in (-1.0, 1.0):
            for s2 in (-1.0, 1.0):
                best = np.maximum(best, np.linalg.norm(g0 + s1 * g1 + s2 * g2, axis=1))
        return np.where(valid, best, np.nan)
    normals = np.stack([np.cross(g0, g1), np.cross(g0, g2), np.cross(g1, g2)], axis=1)
    lengths = np.linalg.norm(normals, axis=2)
    ok = valid & np.all(lengths > 0.0, axis=1)
    normals = normals / np.where(lengths > 0.0, lengths, 1.0)[:, :, None]
    support = np.abs(np.einsum("nfi,nij->nfj", normals, generators)).sum(axis=2)
    return np.where(ok, support.min(axis=1), np.nan)


# ---------------------------------------------------------------------------
# C7-range designs and point sets
# ---------------------------------------------------------------------------


def c7_geometry(lengths, spans):
    """The C7 design: drive travel ``spans`` centred on -L."""
    lower = -lengths - spans / 2.0
    return GeometryParams(lengths, np.column_stack([lower, lower + spans]), (-1.0, -1.0, -1.0))


def wide_drives(lengths):
    return GeometryParams(lengths, [[-100.0, 100.0]] * 3, (-1.0, -1.0, -1.0))


def guard_row(lengths):
    """A point whose shortest leg has p_i - rho_i = 0 exactly: p_j = L_i, all else 0.

    Every radicand is non-negative there, so with drive limits around its
    drive coordinates the point is reachable and only the denominator guard
    rejects it."""
    i = int(np.argmin(lengths))
    p = np.zeros(3)
    p[(i + 1) % 3] = lengths[i]
    return p


def anchored_geometry(lengths, spans, point, on_limit):
    """The C7 design with its drive travel moved so that ``point`` is reachable:
    on the lower or upper limit of every drive, or (``on_limit=None``) inside."""
    _, rho = reference_inverse_kinematics(point[None], wide_drives(lengths))
    rho, spans = rho[0], np.asarray(spans, dtype=float)
    limits = {
        "lower": (rho, rho + spans),
        "upper": (rho - spans, rho),
        None: (rho - spans / 2.0, rho + spans / 2.0),
    }[on_limit]
    return GeometryParams(lengths, np.column_stack(limits), (-1.0, -1.0, -1.0))


@st.composite
def designs_and_points(draw):
    lengths = np.array(draw(st.lists(st.floats(0.7, 3.0), min_size=3, max_size=3)))
    spans = np.array(draw(st.lists(st.floats(0.4, 3.4), min_size=3, max_size=3)))
    count = draw(st.sampled_from([0, 1, 2, 7, 64, 500]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reach = lengths.max()
    points = rng.uniform(-1.2 * reach, 1.2 * reach, size=(count, 3))
    kind = draw(st.sampled_from(["c7", "unreachable", "nonfinite", "on_limit", "guard"]))
    geometry = c7_geometry(lengths, spans)
    if kind == "unreachable":
        points = np.where(points >= 0.0, points + 3.0 * reach, points - 3.0 * reach)
    elif kind == "nonfinite":
        points[rng.random(points.shape) < 0.2] = rng.choice([np.nan, np.inf, -np.inf])
    elif kind in ("on_limit", "guard"):
        if kind == "guard":
            anchor, side = guard_row(lengths), None
        else:
            # |p_j| <= 0.3 L_min keeps every radicand positive
            anchor = rng.uniform(-0.3, 0.3, size=3) * lengths.min()
            side = draw(st.sampled_from(["lower", "upper"]))
        points = np.insert(points, draw(st.integers(0, count)), anchor, axis=0)
        geometry = anchored_geometry(lengths, spans, anchor, side)
    return geometry, points


def assert_same_bytes(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestReachableRowsOnly:
    def test_special_rows_hit_their_case(self):
        lengths, spans = np.array([1.3, 0.9, 2.1]), np.array([0.5, 0.6, 0.7])
        anchor = guard_row(lengths)
        geometry = anchored_geometry(lengths, spans, anchor, None)
        reachable, _ = batch_inverse_kinematics(anchor[None], geometry)
        valid, _ = full_rate_matrices(anchor[None], geometry)
        assert reachable.tolist() == [True] and valid.tolist() == [False]
        for side in ("lower", "upper"):
            point = np.array([0.1, -0.2, 0.15])
            geometry = anchored_geometry(lengths, spans, point, side)
            _, rho = batch_inverse_kinematics(point[None], geometry)
            assert np.array_equal(rho[0], geometry.joint_limits[:, 0 if side == "lower" else 1])
            assert full_transmission(point[None], geometry)[0].tolist() == [True]

    def test_blocks_cover_every_row(self):
        # two full blocks and a ragged third one
        points = np.random.default_rng(6).uniform(-1.2, 1.2, size=(2 * TRANSMISSION_BLOCK_ROWS + 777, 3))
        geometry = c7_geometry(np.array([1.3, 0.9, 2.1]), np.array([1.5, 1.6, 1.7]))
        expected = full_transmission(points, geometry)
        assert 0 < expected[0].sum() < len(points)
        for actual, oracle in zip(batch_transmission(points, geometry), expected):
            assert_same_bytes(actual, oracle)

    # non-finite positions give inf - inf, in the package as in the oracle
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(database=None, derandomize=True, deadline=None, max_examples=150)
    @given(designs_and_points())
    def test_bitwise_equal_to_full_grid(self, case):
        geometry, points = case
        for actual, expected in zip(batch_transmission(points, geometry), full_transmission(points, geometry)):
            assert_same_bytes(actual, expected)
        assert_same_bytes(
            inertia_norm_field(geometry, MODEL).batch(points), full_inertia_norm(points, geometry, MODEL)
        )
        for mode in ("ball", "max"):
            assert_same_bytes(
                acceleration_field(geometry, MODEL, TORQUE_LIMITS, mode).batch(points),
                full_acceleration(points, geometry, MODEL, TORQUE_LIMITS, mode),
            )


def guard_straddling_points():
    """Points whose leg-0 denominator ``p_0 - rho_0`` runs from zero through
    ``DENOMINATOR_EPS``, with a design whose leg 0 is short enough (1e-6 m)
    for the radicand's rounding to resolve it."""
    lengths = np.array([1e-6, 1.0, 1.0])
    geometry = GeometryParams(lengths, [[-100.0, 100.0]] * 3, (-1.0, -1.0, -1.0))
    p1 = lengths[0] - np.arange(0, 6000) * np.spacing(lengths[0])
    points = np.column_stack([np.zeros_like(p1), p1, np.zeros_like(p1)])
    _, rho = reference_inverse_kinematics(points, geometry)
    den = np.abs(points[:, 0] - rho[:, 0])
    return geometry, points, den


class TestKernelsMatchReference:
    """The in-place inverse kinematics and eigenvalue kernels keep every bit of
    the plain loop and formula above."""

    # non-finite positions give inf - inf, in the package as in the oracle
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(database=None, derandomize=True, deadline=None, max_examples=150)
    @given(designs_and_points())
    def test_inverse_kinematics_bitwise(self, case):
        geometry, points = case
        expected = reference_inverse_kinematics(points, geometry)
        for actual, oracle in zip(batch_inverse_kinematics(points, geometry), expected):
            assert_same_bytes(actual, oracle)

    def test_c7_grids_bitwise(self):
        rng = np.random.default_rng(20240101)
        axis = np.linspace(-1.0, 1.0, 17)
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        for _ in range(6):
            lengths, spans = rng.uniform(0.7, 3.0, size=3), rng.uniform(0.4, 3.4, size=3)
            geometry = c7_geometry(lengths, spans)
            points = grid * lengths.max()
            expected = reference_inverse_kinematics(points, geometry)
            for actual, oracle in zip(batch_inverse_kinematics(points, geometry), expected):
                assert_same_bytes(actual, oracle)
            for actual, oracle in zip(batch_transmission(points, geometry), full_transmission(points, geometry)):
                assert_same_bytes(actual, oracle)

    def test_rows_at_the_denominator_guard(self):
        geometry, points, den = guard_straddling_points()
        assert (den == 0.0).any()
        assert (den > 0.0).any() and (den < DENOMINATOR_EPS).any() and (den >= DENOMINATOR_EPS).any()
        expected = full_transmission(points, geometry)
        assert expected[0].any() and not expected[0].all()
        for actual, oracle in zip(batch_transmission(points, geometry), expected):
            assert_same_bytes(actual, oracle)

    def test_identity_multiples_and_zeros_are_exact(self):
        scales = np.array([0.0, -0.0, 1.0, -2.5, 1e-300, 3e300, 7.0 / 3.0])
        a = scales[:, None, None] * np.eye(3)
        vals = sym_eigvals_3x3(a)
        assert_same_bytes(vals, reference_eigvals_3x3(a))
        assert_same_bytes(vals, np.repeat(((a[:, 0, 0] + a[:, 1, 1] + a[:, 2, 2]) / 3.0)[:, None], 3, axis=1))

    def test_plain_matrix(self):
        rng = np.random.default_rng(3)
        for a in (np.diag([1.0, 2.0, 3.0]), 4.0 * np.eye(3), np.zeros((3, 3)), rng.standard_normal((3, 3))):
            a = a + a.T
            assert_same_bytes(sym_eigvals_3x3(a), reference_eigvals_3x3(a))
        point = np.array([0.1, -0.2, 0.15])
        geometry = c7_geometry(np.array([1.3, 0.9, 2.1]), np.array([3.0, 3.0, 3.0]))
        jac = kinematic_sample(point, geometry).jacobian
        assert_same_bytes(sym_eigvals_3x3(jac.T @ jac), reference_eigvals_3x3(jac.T @ jac))

    def test_nonfinite_entries_bitwise(self):
        # every pair of upper entries, each NaN of either sign or infinite,
        # in a batch: each operation's operand order decides which NaN wins
        base = np.random.default_rng(8).standard_normal((3, 3))
        base = base + base.T
        rows, cols = np.triu_indices(3)
        values = (np.nan, -np.nan, np.inf, -np.inf)
        stack = []
        for first in range(6):
            for second in range(first, 6):
                for x in values:
                    for y in values:
                        a = base.copy()
                        a[rows[first], cols[first]] = x
                        a[rows[second], cols[second]] = y
                        stack.append(a)
        stack = np.array(stack)
        with np.errstate(invalid="ignore"):
            assert_same_bytes(sym_eigvals_3x3(stack), reference_eigvals_3x3(stack))

    def test_plain_nonfinite_matrix(self):
        # one matrix: the formula above then runs on numpy scalars, whose
        # compiled arithmetic may pick either NaN operand, so only the sign
        # of a NaN may differ; a batch of one keeps every bit
        a = np.diag([1.0, 2.0, 3.0])
        for entry in (np.nan, np.inf, -np.inf):
            a[0, 1] = a[1, 0] = entry
            with np.errstate(invalid="ignore"):
                actual, expected = sym_eigvals_3x3(a), reference_eigvals_3x3(a)
                assert_same_bytes(sym_eigvals_3x3(a[None]), reference_eigvals_3x3(a[None]))
            assert actual.shape == expected.shape == (3,)
            assert np.array_equal(actual, expected, equal_nan=True)

    @settings(database=None, derandomize=True, deadline=None, max_examples=200)
    @given(
        shape=st.sampled_from([(), (1,), (5,), (64,), (3, 4)]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-200, 1e-6, 1.0, 1e6, 1e200]),
        special=st.floats(0.0, 0.5),
        layout=st.sampled_from(["stack", "columns"]),
    )
    def test_eigenvalues_bitwise_property(self, shape, seed, scale, special, layout):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(shape + (3, 3)) * scale
        a = a + np.swapaxes(a, -1, -2)
        flat = a.reshape(-1, 3, 3)
        picked = rng.random(flat.shape[0]) < special
        # identity multiples, zeros, diagonal and (batched only, see
        # test_plain_nonfinite_matrix) non-finite matrices: NaNs of either
        # sign or infinities in two upper entries, so that NaNs of both signs
        # meet and the order of each operation's operands shows
        kinds = rng.integers(0, 4 if shape else 3, size=flat.shape[0])
        flat[picked & (kinds == 0)] = np.eye(3) * rng.standard_normal() * scale
        flat[picked & (kinds == 1)] = 0.0
        flat[picked & (kinds == 2)] *= np.eye(3)
        nonfinite = np.flatnonzero(picked & (kinds == 3))
        rows, cols = np.triu_indices(3)
        for _ in range(2):
            entry = rng.integers(0, 6, size=nonfinite.size)
            values = rng.choice([np.nan, -np.nan, np.inf, -np.inf, 1.0], size=nonfinite.size)
            flat[nonfinite, rows[entry], cols[entry]] = values
        a = flat.reshape(a.shape)
        if layout == "columns":
            # the (..., 3, 3) view of a (3, 3, ...) array, as the sweeps pass it
            a = np.ascontiguousarray(np.moveaxis(a, (-2, -1), (0, 1)))
            a = np.moveaxis(a, (0, 1), (-2, -1))
        with np.errstate(over="ignore", invalid="ignore"):
            actual, expected = sym_eigvals_3x3(a), reference_eigvals_3x3(a)
        assert_same_bytes(actual, expected)
