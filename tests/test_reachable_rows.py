"""The kinematic and dynamics sweeps work on the kept rows only; these tests
hold them byte for byte to the full-grid formulation below, which builds M,
its einsum Gram and the joint-space inertias on every row, substitutes the
identity at invalid rows and masks the results afterwards."""

import numpy as np
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
)

MODEL = InertiaModel(joint_masses=[15.0, 12.0, 18.0], tcp_mass=3.0)
TORQUE_LIMITS = np.array([250.0, 200.0, 300.0])

# ---------------------------------------------------------------------------
# full-grid oracle
# ---------------------------------------------------------------------------


def full_rate_matrices(positions, geometry):
    """(valid, M) with M of shape (N, 3, 3); invalid rows of M are unusable."""
    pts = np.asarray(positions, dtype=float)
    reachable, rho = batch_inverse_kinematics(pts, geometry)
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
    vals = sym_eigvals_3x3(gram)
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
    return np.where(valid, sym_eigvals_3x3(g)[..., 2], np.nan)


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
    _, rho = batch_inverse_kinematics(point[None], wide_drives(lengths))
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
    kind = draw(st.sampled_from(["c7", "unreachable", "on_limit", "guard"]))
    geometry = c7_geometry(lengths, spans)
    if kind == "unreachable":
        points = np.where(points >= 0.0, points + 3.0 * reach, points - 3.0 * reach)
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
