"""Orthoglide-class kinematics: closed-form IK, Newton FK, and Jacobian
conditioning measures.

The mechanism has three mutually orthogonal prismatic drives.  Leg i (of
length ``L_i``) ties the drive coordinate ``rho_i`` to the tool point ``p``
through the sphere constraint

    (p_i - rho_i)^2 + p_j^2 + p_k^2 = L_i^2        (i, j, k cyclic)

Differentiating the three constraints gives ``M @ dp = drho`` where ``M`` has
a unit diagonal and off-diagonal entries ``p_j / (p_i - rho_i)``; the
manipulator Jacobian mapping joint rates to tool rates is ``J = inv(M)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._spectral import sym_eigvals_3x3
from .errors import Infeasible, NoConvergence, Singular
from .grid import _finite, _ValueSemantics, sweep_blocks, sweep_grid

# cyclic index triples (i, j, k) for the three legs
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

DENOMINATOR_EPS = 1e-12
CONDITION_LIMIT = 1e12
# rows per transmission sweep block, run on every CPU: a block's temporaries
# peak at about 170 bytes a row (11 MB), all a mask holds besides its flags
TRANSMISSION_BLOCK_ROWS = 1 << 16


@dataclass(frozen=True, eq=False)
class GeometryParams(_ValueSemantics):
    """Leg lengths, prismatic joint limits and the IK branch signs.

    leg_lengths    (3,) leg lengths [m], all positive
    joint_limits   (3, 2) closed [lower, upper] travel per drive [m]
    assembly_signs (3,) entries in {-1, +1}, selecting the IK branch per leg

    Geometries compare and hash by these three values.
    """

    leg_lengths: np.ndarray
    joint_limits: np.ndarray
    assembly_signs: np.ndarray = (-1.0, -1.0, -1.0)

    def __post_init__(self):
        lengths = _finite("leg_lengths", self.leg_lengths, (3,), positive=True)
        limits = _finite("joint_limits", self.joint_limits, (3, 2))
        if np.any(limits[:, 0] >= limits[:, 1]):
            raise ValueError("joint_limits must satisfy lower < upper per axis")
        signs = _finite("assembly_signs", self.assembly_signs, (3,))
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError(f"assembly_signs must be -1 or +1: {signs}")
        object.__setattr__(self, "leg_lengths", lengths)
        object.__setattr__(self, "joint_limits", limits)
        object.__setattr__(self, "assembly_signs", signs)


@dataclass(frozen=True, eq=False)
class KinematicSample(_ValueSemantics):
    """Jacobian plus its conditioning measures at one pose; compares and
    hashes by value."""

    jacobian: np.ndarray
    cond: float
    sigma_min: float
    sigma_max: float


def leg_residuals(p: np.ndarray, rho: np.ndarray, geometry: GeometryParams) -> np.ndarray:
    """Sphere-constraint residual per leg; zero on a consistent pose."""
    p = _finite("p", p, (3,))
    rho = _finite("rho", rho, (3,))
    res = np.empty(3)
    for i, j, k in _CYCLIC:
        res[i] = (p[i] - rho[i]) ** 2 + p[j] ** 2 + p[k] ** 2 - geometry.leg_lengths[i] ** 2
    return res


def inverse_kinematics(p, geometry: GeometryParams) -> np.ndarray:
    """Drive coordinates for tool point ``p``, on the configured branch.

    Raises Infeasible when the point is outside a leg's reach or the
    resulting drive coordinate violates the joint limits.
    """
    p = _finite("p", p, (3,))
    rho = np.empty(3)
    for i, j, k in _CYCLIC:
        radicand = geometry.leg_lengths[i] ** 2 - p[j] ** 2 - p[k] ** 2
        if radicand < 0.0:
            raise Infeasible(f"point {p} outside reach of leg {i} (radicand {radicand:g})")
        rho[i] = p[i] + geometry.assembly_signs[i] * np.sqrt(radicand)
        lo, hi = geometry.joint_limits[i]
        if rho[i] < lo or rho[i] > hi:
            raise Infeasible(f"drive {i} at {rho[i]:g} violates limits [{lo:g}, {hi:g}]")
    return rho


def _constraint_jacobian(p: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Derivative of the three leg residuals with respect to ``p``."""
    jac = np.empty((3, 3))
    for i, j, k in _CYCLIC:
        jac[i, i] = 2.0 * (p[i] - rho[i])
        jac[i, j] = 2.0 * p[j]
        jac[i, k] = 2.0 * p[k]
    return jac


def forward_kinematics(
    rho,
    geometry: GeometryParams,
    p_init,
    max_iterations: int = 100,
    residual_scale: float = 1e-9,
) -> np.ndarray:
    """Solve the three leg constraints for ``p`` by damped Newton iteration.

    The returned point satisfies every leg residual to
    ``residual_scale * L_i**2``.  Raises NoConvergence when the iteration cap
    is reached or the constraint Jacobian turns singular at an iterate.
    """
    rho = _finite("rho", rho, (3,))
    p = _finite("p_init", p_init, (3,)).copy()
    tol = residual_scale * geometry.leg_lengths**2

    res = leg_residuals(p, rho, geometry)
    for _ in range(max_iterations):
        if np.all(np.abs(res) <= tol):
            return p
        jac = _constraint_jacobian(p, rho)
        if np.linalg.cond(jac) > CONDITION_LIMIT:
            raise NoConvergence(f"constraint Jacobian singular at iterate {p}")
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"constraint Jacobian singular at iterate {p}") from exc
        # backtracking line search on the residual norm
        norm0 = np.linalg.norm(res)
        t = 1.0
        for _ in range(40):
            trial = p + t * step
            trial_res = leg_residuals(trial, rho, geometry)
            if np.linalg.norm(trial_res) < norm0:
                p, res = trial, trial_res
                break
            t *= 0.5
        else:
            raise NoConvergence(f"line search stalled at iterate {p}")
    if np.all(np.abs(res) <= tol):
        return p
    raise NoConvergence(f"no solution within {max_iterations} iterations (residual {res})")


def rate_matrix(p, rho) -> np.ndarray:
    """The unit-diagonal matrix ``M`` with ``M @ dp = drho``.

    Entry (i, j) for j != i is ``p_j / (p_i - rho_i)``.  Raises Singular when
    any denominator is below ``DENOMINATOR_EPS`` in magnitude.
    """
    p = _finite("p", p, (3,))
    rho = _finite("rho", rho, (3,))
    m = np.eye(3)
    for i, j, k in _CYCLIC:
        den = p[i] - rho[i]
        if abs(den) < DENOMINATOR_EPS:
            raise Singular(f"leg {i} has p_i - rho_i = {den:g}, below {DENOMINATOR_EPS:g}")
        m[i, j] = p[j] / den
        m[i, k] = p[k] / den
    return m


def jacobian(p, rho) -> np.ndarray:
    """Manipulator Jacobian ``J = inv(M)`` mapping drive rates to tool rates;
    raises Singular when ``M``'s condition number exceeds ``CONDITION_LIMIT``."""
    m = rate_matrix(p, rho)
    if np.linalg.cond(m) > CONDITION_LIMIT:
        raise Singular(f"rate matrix condition exceeds {CONDITION_LIMIT:g}")
    return np.linalg.inv(m)


def kinematic_sample(p, geometry: GeometryParams) -> KinematicSample:
    """IK, Jacobian and velocity transmission factors at one pose.

    sigma_min / sigma_max are the extreme singular values of J (computed from
    the symmetric eigenvalues of J.T @ J); cond is their ratio.
    """
    p = _finite("p", p, (3,))
    rho = inverse_kinematics(p, geometry)
    jac = jacobian(p, rho)
    lo, _, hi = sym_eigvals_3x3(jac.T @ jac)
    sigma_min = float(np.sqrt(max(lo, 0.0)))
    sigma_max = float(np.sqrt(max(hi, 0.0)))
    cond = sigma_max / sigma_min if sigma_min > 0.0 else np.inf
    return KinematicSample(jacobian=jac, cond=cond, sigma_min=sigma_min, sigma_max=sigma_max)


# ---------------------------------------------------------------------------
# vectorized evaluation over many poses (grid sweeps)
# ---------------------------------------------------------------------------


def batch_inverse_kinematics(positions: np.ndarray, geometry: GeometryParams):
    """Vectorized IK over an (N, 3) position array.

    Returns (reachable, rho) where unreachable rows of rho are filled with the
    clamped branch value and must be ignored.  ``rho`` has shape (N, 3) and
    is a view of a (3, N) array, so each drive's values are contiguous.
    The coordinates are read as the columns of ``positions.T``, contiguous
    when the positions are themselves a transposed (3, N) array, as
    ``batch_rate_matrices`` passes them.
    """
    pts = np.asarray(positions, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"positions must have shape (N, 3), got {pts.shape}")
    cols = pts.T
    squares = np.multiply(cols, cols, out=np.empty(cols.shape))
    reachable = np.ones(cols.shape[1], dtype=bool)
    rho = np.empty(cols.shape)
    radicand = np.empty(cols.shape[1])
    for i, j, k in _CYCLIC:
        np.subtract(geometry.leg_lengths[i] ** 2, squares[j], out=radicand)
        radicand -= squares[k]
        ok = radicand >= 0.0
        radicand[~ok] = 0.0
        root = np.sqrt(radicand, out=radicand)
        np.multiply(geometry.assembly_signs[i], root, out=root)
        np.add(cols[i], root, out=rho[i])
        lo, hi = geometry.joint_limits[i]
        reachable &= ok
        reachable &= rho[i] >= lo
        reachable &= rho[i] <= hi
    return reachable, rho.T


class _GridInverseKinematics:
    """``batch_inverse_kinematics`` of a grid's nodes from three per-leg
    tables, one block of whole k-lines at a time.

    Leg i's radicand ``(L_i^2 - p_j^2) - p_k^2``, its ``>= 0`` flag and the
    clamped radicand's ``s_i * sqrt`` depend only on the two other
    coordinates, and each node coordinate is bitwise its axis value, so one
    (n_j, n_k) table per leg, computed by the same operations in the same
    order, holds every node's value: 3 n^2 square roots for n^3 nodes.
    Calling it with a slice of k-lines (``grid.sweep_grid``'s blocks) gives
    those nodes' ``(reachable, rho)`` bit for bit as
    ``batch_inverse_kinematics`` gives them from the nodes' positions, ρ at
    unreachable nodes included: ``rho_i`` is the axis-i value plus the
    table entry, compared with the joint limits as there.  ``rho`` is an
    (n, 3) view of a (3, n) array.

    A transmission predicate's ``reach`` and ``mask`` share one per grid.
    ``kept``, ``(lines, ik)``, is a one-shot slot: ``take(lines)`` hands the
    IK that ``reach`` kept to the mask block of those lines, and empties it.
    """

    def __init__(self, spec, geometry: GeometryParams):
        self.spec = spec
        self.kept = None
        self.axes = spec._axes()
        self.limits = geometry.joint_limits
        self.tables = []
        for i, j, k in _CYCLIC:
            a_j, a_k = self.axes[j], self.axes[k]
            radicand = np.empty((a_j.size, a_k.size))
            np.subtract(geometry.leg_lengths[i] ** 2, (a_j * a_j)[:, None], out=radicand)
            radicand -= a_k * a_k
            ok = radicand >= 0.0
            radicand[~ok] = 0.0
            root = np.sqrt(radicand, out=radicand)
            np.multiply(geometry.assembly_signs[i], root, out=root)
            self.tables.append((ok, root))

    def __call__(self, lines: slice):
        x, y, z = self.axes
        # each line's x and y index; leg 0's table is indexed (y, z), leg
        # 1's (z, x) and leg 2's (x, y)
        xi, yi = np.divmod(np.arange(lines.start, lines.stop), self.spec.dims[1])
        (ok_0, root_0), (ok_1, root_1), (ok_2, root_2) = self.tables
        rho = np.empty((3, xi.size, z.size))
        np.add(x[xi, None], root_0[yi], out=rho[0])
        np.add(y[yi, None], root_1[:, xi].T, out=rho[1])
        np.add(z, root_2[xi, yi, None], out=rho[2])
        reachable = ok_0[yi]
        reachable &= ok_1[:, xi].T
        reachable &= ok_2[xi, yi, None]
        for i, (lo, hi) in enumerate(self.limits):
            reachable &= rho[i] >= lo
            reachable &= rho[i] <= hi
        return reachable.reshape(-1), rho.reshape(3, -1).T

    def take(self, lines: slice):
        """The kept IK of ``lines``, now the caller's alone, or ``self(lines)``."""
        kept = self.kept
        if kept is None or kept[0] != lines:
            return self(lines)
        self.kept = None
        return kept[1]


def batch_rate_matrices(positions: np.ndarray, geometry: GeometryParams):
    """Vectorized reachability plus the rate matrices ``M`` of the kept rows.

    Returns (rows, M).  ``rows`` holds, ascending, the indices of the
    positions that are reachable and whose denominators ``p_i - rho_i`` all
    pass the ``DENOMINATOR_EPS`` guard; ``M`` has shape (len(rows), 3, 3) and
    row n is the rate matrix of position ``rows[n]``.  Every other position
    has no rate matrix.  ``M`` is a view of a (3, 3, len(rows)) array, so
    each entry's values are contiguous.
    """
    # one transposed copy, shared with the inverse kinematics
    cols = np.ascontiguousarray(np.asarray(positions, dtype=float).T)
    return _rate_matrices(cols, *batch_inverse_kinematics(cols.T, geometry))


def _rate_matrices(cols: np.ndarray, reachable: np.ndarray, rho: np.ndarray):
    """``batch_rate_matrices`` of the (3, N) positions ``cols`` after their
    inverse kinematics ``(reachable, rho)``, which it uses up: ``rho``'s
    buffer takes the denominators and ``reachable`` the kept flags."""
    # p_i - rho_i, in the buffer of rho, which is not needed after it
    den = np.subtract(cols, rho.T, out=rho.T)
    kept = reachable
    for d in den:
        kept &= np.abs(d) >= DENOMINATOR_EPS
    rows = np.flatnonzero(kept)
    p = cols.take(rows, axis=1)
    m = np.empty((3, 3, rows.size))
    for i, j, k in _CYCLIC:
        d = den[i].take(rows)
        m[i, i] = 1.0
        np.divide(p[j], d, out=m[i, j])
        np.divide(p[k], d, out=m[i, k])
    return rows, m.transpose(2, 0, 1)


def _gram(m: np.ndarray) -> np.ndarray:
    """``M^T M`` per row, each entry summed over j = 0, 1, 2 in that order;
    like ``M``, a view of a (3, 3, N) array.

    ``M`` has an exact unit diagonal, so the products with a diagonal entry
    are left out: ``x * 1.0 == x`` bit for bit (``1.0 * 1.0`` is ``1.0``),
    and every sum keeps its terms and their order.
    """
    # e[j, a] is entry (j, a) of every row, contiguous; entries are indexed
    # where used, to keep few array objects alive (see sym_eigvals_3x3)
    e = m.transpose(1, 2, 0)
    gram = np.empty((3, 3, m.shape[0]))
    term = np.empty(m.shape[0])
    # g00 = (1 + m10 m10) + m20 m20
    g = np.multiply(e[1, 0], e[1, 0], out=gram[0, 0])
    np.add(1.0, g, out=g)
    g += np.multiply(e[2, 0], e[2, 0], out=term)
    # g01 = (m01 + m10) + m20 m21
    g = np.add(e[0, 1], e[1, 0], out=gram[0, 1])
    g += np.multiply(e[2, 0], e[2, 1], out=term)
    # g02 = (m02 + m10 m12) + m20
    g = np.multiply(e[1, 0], e[1, 2], out=gram[0, 2])
    np.add(e[0, 2], g, out=g)
    g += e[2, 0]
    # g11 = (m01 m01 + 1) + m21 m21
    g = np.multiply(e[0, 1], e[0, 1], out=gram[1, 1])
    g += 1.0
    g += np.multiply(e[2, 1], e[2, 1], out=term)
    # g12 = (m01 m02 + m12) + m21
    g = np.multiply(e[0, 1], e[0, 2], out=gram[1, 2])
    g += e[1, 2]
    g += e[2, 1]
    # g22 = (m02 m02 + m12 m12) + 1
    g = np.multiply(e[0, 2], e[0, 2], out=gram[2, 2])
    g += np.multiply(e[1, 2], e[1, 2], out=term)
    g += 1.0
    for a, b in ((0, 1), (0, 2), (1, 2)):
        gram[b, a] = gram[a, b]
    return gram.transpose(2, 0, 1)


# The transmission blocks run in worker threads, so they reach IK and the
# 3x3 eigenvalues through these names, bound at import: bench/tracing.py
# replaces the public ones with spans on a single-threaded stack.
_batch_inverse_kinematics = batch_inverse_kinematics
_sym_eigvals_3x3 = sym_eigvals_3x3


def _transmission_rows(positions: np.ndarray, geometry: GeometryParams, ik=None):
    """The block kernel of every transmission sweep: (rows, sigma_min,
    sigma_max) of the positions that are reachable, pass the denominator
    guard and whose condition number is at most ``CONDITION_LIMIT``.

    ``rows`` holds their indices, ascending.  Its first step is the inverse
    kinematics; a caller that already has the positions' IK, ``(reachable,
    rho)`` as ``batch_inverse_kinematics`` gives it, passes it as ``ik``,
    and the kernel starts after that step and uses the arrays up: a grid
    mask passes each block's IK from the per-leg tables
    (``_GridInverseKinematics``), or the one its predicate's ``reach``
    kept.  The singular values of J are the reciprocals of those of M, so
    no matrix inversion is needed; the Gram ``M^T M``, its eigenvalues and
    the guard are computed elementwise on the kept rows only, and ``M`` and
    the Gram are freed as soon as they have been used, so a block holds
    little more than its kept rows.
    """
    cols = np.ascontiguousarray(np.asarray(positions, dtype=float).T)
    reachable, rho = _batch_inverse_kinematics(cols.T, geometry) if ik is None else ik
    del ik
    rows, m = _rate_matrices(cols, reachable, rho)
    del cols, reachable, rho
    gram = _gram(m)
    del m
    vals = _sym_eigvals_3x3(gram)
    del gram
    lo_m, hi_m = vals[:, 0], vals[:, 2]
    keep = lo_m > 0.0
    ratio = np.divide(hi_m, lo_m, out=np.ones_like(lo_m), where=keep)
    keep &= ratio <= CONDITION_LIMIT**2
    lo_m, hi_m, rows = lo_m[keep], hi_m[keep], rows[keep]
    sigma_min = np.divide(1.0, np.sqrt(hi_m, out=hi_m), out=hi_m)
    sigma_max = np.divide(1.0, np.sqrt(lo_m, out=lo_m), out=lo_m)
    return rows, sigma_min, sigma_max


def batch_transmission(positions: np.ndarray, geometry: GeometryParams):
    """Vectorized velocity transmission factors over (N, 3) positions.

    Returns (valid, cond, sigma_min, sigma_max); entries at invalid rows are
    NaN.  The positions are swept in blocks of ``TRANSMISSION_BLOCK_ROWS``
    on every CPU (``grid.sweep_blocks``), each through the block kernel
    ``_transmission_rows``, and each block writes its kept rows in place, so
    no value depends on the blocking or the CPU count.
    """
    n = positions.shape[0]
    valid = np.zeros(n, dtype=bool)
    cond, sigma_min, sigma_max = (np.full(n, np.nan) for _ in range(3))

    def block(part):
        rows, s_min, s_max = _transmission_rows(positions[part], geometry)
        rows += part.start
        valid[rows] = True
        cond[rows] = s_max / s_min
        sigma_min[rows] = s_min
        sigma_max[rows] = s_max

    sweep_blocks(n, block, TRANSMISSION_BLOCK_ROWS)
    return valid, cond, sigma_min, sigma_max


def condition_field(geometry: GeometryParams):
    """Grid field of the Jacobian condition number (NaN when unreachable).

    Its sweep writes the condition number alone: the blocks of
    ``batch_transmission``, without its ``valid`` and singular value
    outputs.
    """
    from .grid import ScalarField

    def scalar(position):
        return kinematic_sample(position, geometry).cond

    def batch(positions):
        cond = np.full(positions.shape[0], np.nan)

        def block(part):
            rows, s_min, s_max = _transmission_rows(positions[part], geometry)
            cond[rows + part.start] = s_max / s_min

        sweep_blocks(positions.shape[0], block, TRANSMISSION_BLOCK_ROWS)
        return cond

    return ScalarField(scalar, batch)


class _TransmissionPredicate:
    """Conditioning predicate.

    ``map(positions)`` gives the condition number and the flags of (N, 3)
    positions from one ``batch_transmission`` sweep.  ``mask(spec)`` gives
    the flags of a grid's nodes alone: it sweeps the grid block by block on
    ``grid.sweep_grid``, so it builds no (N, 3) positions array and keeps
    none of the float outputs of a full sweep (24 bytes a node, 51 MB on a
    129^3 grid), only one byte a node.  ``reach(spec)`` gives the flags of
    the nodes that pass the inverse kinematics alone.  Both read the IK
    from the latest grid's per-leg tables, matched by identity.
    """

    def __init__(self, geometry: GeometryParams, cond_max, sigma_range):
        self.geometry = geometry
        self.cond_max = cond_max
        self.sigma_range = sigma_range
        self._tables = None

    def _tables_of(self, spec) -> _GridInverseKinematics:
        if self._tables is None or self._tables.spec is not spec:
            self._tables = _GridInverseKinematics(spec, self.geometry)
        return self._tables

    def _passes(self, cond, sigma_min, sigma_max) -> np.ndarray:
        """The bounds' flags; NaN values (unreachable rows) fail every bound."""
        with np.errstate(invalid="ignore"):
            flags = cond <= self.cond_max if self.cond_max is not None else None
            if self.sigma_range is not None:
                lo, hi = self.sigma_range
                in_range = (sigma_min >= lo) & (sigma_max <= hi)
                flags = in_range if flags is None else flags & in_range
        return flags

    def map(self, positions: np.ndarray):
        """(cond, flags) of (N, 3) positions, from one sweep."""
        _, cond, sigma_min, sigma_max = batch_transmission(positions, self.geometry)
        return cond, self._passes(cond, sigma_min, sigma_max)

    def reach(self, spec) -> np.ndarray:
        """The flags of a grid's nodes that pass the inverse kinematics, in
        C order: a superset of ``mask(spec)``'s flags.

        The IK comes from the grid's per-leg tables, swept in ``mask``'s
        blocks of whole k-lines on ``grid.sweep_grid``, with no positions
        filled.  On a grid of one block, ``TRANSMISSION_BLOCK_ROWS`` nodes
        or fewer, the tables keep that block's IK for ``mask(spec)``.
        """
        nk = spec.dims[2]
        flags = np.empty(spec.dims[0] * spec.dims[1] * nk, dtype=bool)
        ik = self._tables_of(spec)

        def block(lines: slice) -> None:
            reachable, rho = ik(lines)
            flags[lines.start * nk : lines.stop * nk] = reachable
            if (lines.stop - lines.start) * nk == flags.size:
                ik.kept = (lines, (reachable, rho))

        sweep_grid(spec, block, TRANSMISSION_BLOCK_ROWS)
        return flags

    def mask(self, spec) -> np.ndarray:
        """The flags of a grid's nodes, in C order, swept on
        ``grid.sweep_grid``.  Each block fills its positions from the axes
        and hands the kernel, as its ``ik``, the IK ``reach(spec)`` kept for
        its lines or the one from the grid's per-leg tables.  A kept IK that
        no block takes is dropped when the mask ends."""
        nk = spec.dims[2]
        flags = np.zeros(spec.dims[0] * spec.dims[1] * nk, dtype=bool)
        ik = self._tables_of(spec)

        def block(lines: slice) -> None:
            rows, s_min, s_max = _transmission_rows(spec._line_positions(lines), self.geometry, ik.take(lines))
            flags[rows[self._passes(s_max / s_min, s_min, s_max)] + lines.start * nk] = True

        sweep_grid(spec, block, TRANSMISSION_BLOCK_ROWS)
        ik.kept = None
        return flags


def transmission_predicate(
    geometry: GeometryParams,
    cond_max: float | None = None,
    sigma_range: tuple[float, float] | None = None,
):
    """Grid predicate for conditioning specs: ``evaluate_mask`` asks its
    ``mask(spec)`` for the flags of a grid, and ``map(positions)`` gives
    the condition number and the flags of (N, 3) positions from one sweep.

    Feasible nodes are reachable and satisfy ``cond <= cond_max`` and/or
    ``sigma_range[0] <= sigma_min`` with ``sigma_max <= sigma_range[1]``.
    At least one bound must be given.
    """
    if cond_max is None and sigma_range is None:
        raise ValueError("need cond_max, sigma_range, or both")
    if cond_max is not None:
        _finite("cond_max", cond_max, positive=True)
    if sigma_range is not None and not 0.0 < sigma_range[0] < sigma_range[1]:
        raise ValueError(f"sigma range must satisfy 0 < lo < hi, got {tuple(sigma_range)}")
    return _TransmissionPredicate(geometry, cond_max, sigma_range)
