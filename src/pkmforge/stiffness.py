"""Lumped-spring (virtual joint) elastostatics for parallel chains.

Each kinematic chain is described by the Jacobians of its sprung
(virtual + active) and passive joints plus a spring matrix.  Passive joints
carry no reaction, which the force/deflection system encodes through a zero
block:

    [ J_s K_s^-1 J_s^T   J_p ] [ f  ]   [ dt ]
    [      J_p^T          0  ] [ dq ] = [ 0  ]

Inverting this block system and reading off the upper-left 6x6 block gives
the chain's Cartesian stiffness; chains aggregate by plain summation.

The Orthoglide chain model declared here (one actuator spring, a 6-DOF foot
spring in drive-aligned axes, the parallelogram lumped into a single
equivalent beam spring in leg-aligned axes, and two passive revolutes at the
foot point) keeps the whole pipeline self-contained with analytic beam
springs instead of externally identified parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import EmptyInput, Infeasible, SingularStiffness, SingularSystem
from .grid import ScalarField, ThresholdPredicate, _finite, _ValueSemantics, sweep_blocks
from .kinematics import (
    GeometryParams,
    batch_inverse_kinematics,
    inverse_kinematics,
)

CONDITION_LIMIT = 1e12

# wrench/twist component ordering used everywhere: (x, y, z, rx, ry, rz)
WRENCH_SIZE = 6


@dataclass(frozen=True, eq=False)
class ChainModel(_ValueSemantics):
    """Per-chain Jacobians and spring matrix.

    j_virtual  (6, n_s) Jacobian of the sprung (virtual + active) joints
    j_passive  (6, n_p) Jacobian of the passive joints, n_p < 6
    k_virtual  (n_s, n_s) symmetric positive-definite spring matrix

    Chains compare and hash by these three values.
    """

    j_virtual: np.ndarray
    j_passive: np.ndarray
    k_virtual: np.ndarray

    def __post_init__(self):
        j_s = np.atleast_2d(np.asarray(self.j_virtual, dtype=float))
        j_p = np.asarray(self.j_passive, dtype=float)
        if j_p.size == 0:
            j_p = np.zeros((WRENCH_SIZE, 0))
        j_p = np.atleast_2d(j_p)
        k_s = np.atleast_2d(np.asarray(self.k_virtual, dtype=float))
        if j_s.shape[0] != WRENCH_SIZE or j_p.shape[0] != WRENCH_SIZE:
            raise ValueError("chain Jacobians must have 6 rows")
        if j_p.shape[1] >= WRENCH_SIZE:
            raise ValueError(f"passive joint count must be < 6, got {j_p.shape[1]}")
        if k_s.shape != (j_s.shape[1], j_s.shape[1]):
            raise ValueError(f"spring matrix shape {k_s.shape} does not match {j_s.shape[1]} joints")
        for name, array in (("j_virtual", j_s), ("j_passive", j_p), ("k_virtual", k_s)):
            _finite(name, array, array.shape)
        scale = np.abs(k_s).max()
        if scale <= 0.0 or np.abs(k_s - k_s.T).max() > 1e-10 * scale:
            raise ValueError("spring matrix must be symmetric")
        try:
            np.linalg.cholesky(k_s)
        except np.linalg.LinAlgError as exc:
            raise ValueError("spring matrix must be positive definite") from exc
        object.__setattr__(self, "j_virtual", j_s)
        object.__setattr__(self, "j_passive", j_p)
        object.__setattr__(self, "k_virtual", k_s)

    @property
    def n_passive(self) -> int:
        return self.j_passive.shape[1]


@dataclass(frozen=True, eq=False)
class CartesianStiffness(_ValueSemantics):
    """6x6 Cartesian stiffness, translations (x, y, z) then rotations;
    compares and hashes by value."""

    matrix: np.ndarray

    def __post_init__(self):
        k = _finite("matrix", self.matrix, (WRENCH_SIZE, WRENCH_SIZE))
        scale = max(np.abs(k).max(), 1e-300)
        if np.abs(k - k.T).max() > 1e-8 * scale:
            raise ValueError("stiffness matrix must be symmetric")
        eigenvalues = np.linalg.eigvalsh(0.5 * (k + k.T))
        if eigenvalues.min() < -1e-8 * scale:
            raise ValueError(f"stiffness matrix must be PSD (min eigenvalue {eigenvalues.min():g})")
        object.__setattr__(self, "matrix", k)

    @property
    def translational(self) -> np.ndarray:
        return self.matrix[:3, :3]


@dataclass(frozen=True)
class CrossSection:
    """Rectangular beam cross-section and material constants."""

    width: float
    height: float
    elastic_modulus: float
    shear_modulus: float

    def __post_init__(self):
        for name in ("width", "height", "elastic_modulus", "shear_modulus"):
            _finite(name, getattr(self, name), positive=True)


@dataclass(frozen=True, eq=False)
class StiffnessSpec(_ValueSemantics):
    """External load and the admissible translational deflection; compares
    and hashes by value."""

    load: np.ndarray
    deflection_limit: float

    def __post_init__(self):
        object.__setattr__(self, "load", _finite("load", self.load, (WRENCH_SIZE,)))
        _finite("deflection_limit", self.deflection_limit, positive=True)


def _compliance(j_virtual: np.ndarray, k_inv: np.ndarray) -> np.ndarray:
    """Chain compliances ``J K^-1 J^T`` of (n, 6, m) Jacobians under one (m, m)
    inverse spring matrix, bit for bit what ``np.einsum("nij,jk,nlk->nil",
    J, K^-1, J)`` gives with C-ordered inputs (numpy 2.4).

    Each entry is summed from +0.0 with ``j`` outer and ``k`` inner, term by
    term ``(J[n, i, j] * K^-1[j, k]) * J[n, l, k]``: einsum's own order.  Zero
    terms are skipped without changing a bit: under round-to-nearest a sum is
    -0 only when both addends are -0, so an accumulator that starts at +0
    never is, and adding a zero term (of either sign, as J and K^-1 are
    finite) leaves it unchanged.  Two kinds are skipped, both read at run
    time: every ``(j, k)`` with ``K^-1[j, k] == 0``, and, within a column
    ``j``, the rows ``i`` at and after ``r_j``, its last non-zero row over the
    whole input plus one, so that ``(j, k)`` updates only
    ``out[:r_j, :r_k]`` (the Orthoglide's translation-only springs have zero
    rotation rows).  The loop runs over the non-zero terms and vectorises
    over the rows; returns an (n, 6, 6) view.
    """
    jt = np.ascontiguousarray(np.transpose(j_virtual, (2, 1, 0)))  # (m, 6, n)
    # one past each column's last non-zero row, 0 for an all-zero column
    ends = (jt.any(axis=2) * np.arange(1, WRENCH_SIZE + 1)).max(axis=1)
    out = np.zeros((WRENCH_SIZE, WRENCH_SIZE, j_virtual.shape[0]))
    for j, k in zip(*np.nonzero(k_inv)):  # C order: j outer, k inner
        r_j, r_k = ends[j], ends[k]
        out[:r_j, :r_k] += (jt[j, :r_j][:, None] * k_inv[j, k]) * jt[k, :r_k][None]
    return out.transpose(2, 0, 1)


def chain_cartesian_stiffness(chain: ChainModel) -> CartesianStiffness:
    """Cartesian stiffness of one chain from its block force system.

    Builds the (6 + n_p) square block matrix, inverts it, and extracts the
    upper-left 6x6 block.  Raises SingularSystem when the block matrix's
    condition number exceeds ``CONDITION_LIMIT`` (rank-deficient sprung
    Jacobian or too many passive freedoms).
    """
    compliance = chain.j_virtual @ np.linalg.solve(chain.k_virtual, chain.j_virtual.T)
    scale = np.abs(compliance).max()
    if not np.isfinite(scale) or scale <= 0.0:
        raise SingularSystem("chain compliance is degenerate")
    n_p = chain.n_passive
    size = WRENCH_SIZE + n_p
    # equilibrate the mixed-unit block (compliance vs. bare Jacobians) so the
    # inverse stays accurate for very stiff springs
    block = np.zeros((size, size))
    block[:WRENCH_SIZE, :WRENCH_SIZE] = compliance / scale
    if n_p:
        block[:WRENCH_SIZE, WRENCH_SIZE:] = chain.j_passive
        block[WRENCH_SIZE:, :WRENCH_SIZE] = chain.j_passive.T
    if not np.all(np.isfinite(block)) or np.linalg.cond(block) > CONDITION_LIMIT:
        raise SingularSystem("chain force system is rank deficient or ill-conditioned")
    stiffness = np.linalg.inv(block)[:WRENCH_SIZE, :WRENCH_SIZE] / scale
    return CartesianStiffness(stiffness)


def aggregate_stiffness(chains: Sequence[CartesianStiffness]) -> CartesianStiffness:
    """Manipulator stiffness: elementwise sum over the chain matrices."""
    if len(chains) == 0:
        raise EmptyInput("need at least one chain stiffness")
    total = np.zeros((WRENCH_SIZE, WRENCH_SIZE))
    for chain in chains:
        total = total + chain.matrix
    return CartesianStiffness(total)


def deflection(stiffness: CartesianStiffness, load) -> np.ndarray:
    """Twist deflection under a wrench: solves ``K @ dt = f``; raises
    SingularStiffness when K's condition number exceeds ``CONDITION_LIMIT``."""
    f = _finite("load", load, (WRENCH_SIZE,))
    k = stiffness.matrix
    if np.linalg.cond(k) > CONDITION_LIMIT:
        raise SingularStiffness("aggregated stiffness is singular under this chain set")
    return np.linalg.solve(k, f)


def beam_spring(section: CrossSection, length: float) -> np.ndarray:
    """Cantilever spring matrix of a rectangular beam, tip loaded.

    Local axes: x axial, bending about y and z, torsion about x.  Uses the
    classical tip-stiffness block (12EI/L^3, 6EI/L^2, 4EI/L) with the
    beta = 1/3 thin-strip torsion constant approximation.
    """
    _finite("length", length, positive=True)
    b, h = section.width, section.height
    e_mod, g_mod = section.elastic_modulus, section.shear_modulus
    area = b * h
    i_y = b * h**3 / 12.0
    i_z = h * b**3 / 12.0
    j_t = b * h * min(b, h) ** 2 / 3.0
    length3 = length**3
    k = np.zeros((WRENCH_SIZE, WRENCH_SIZE))
    k[0, 0] = e_mod * area / length
    k[1, 1] = 12.0 * e_mod * i_z / length3
    k[1, 5] = k[5, 1] = -6.0 * e_mod * i_z / length**2
    k[5, 5] = 4.0 * e_mod * i_z / length
    k[2, 2] = 12.0 * e_mod * i_y / length3
    k[2, 4] = k[4, 2] = 6.0 * e_mod * i_y / length**2
    k[4, 4] = 4.0 * e_mod * i_y / length
    k[3, 3] = g_mod * j_t / length
    return k


def scale_cross_section(section: CrossSection, factor: float) -> CrossSection:
    """Scale width by ``factor`` and height by ``1/factor`` (area preserved)."""
    _finite("factor", factor, positive=True)
    return replace(section, width=section.width * factor, height=section.height / factor)


# ---------------------------------------------------------------------------
# Orthoglide chain construction
# ---------------------------------------------------------------------------

_AXIS = np.eye(3)
# local frame reference per chain; cyclic so the cross product never vanishes
# while the leg stays near its drive axis
_FRAME_REF = (1, 2, 0)


def _cross(a, b, out: np.ndarray) -> None:
    """Writes the cross product of the 3-vectors ``a`` and ``b`` (each a (3,)
    axis or a (3, N) array of components) into the (3, N) ``out``, each
    component computed as ``np.cross`` does, ``a1 * b2 - a2 * b1`` and so on."""
    for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.subtract(a[i] * b[j], a[j] * b[i], out=out[c])


def _distinct_levers(pts: np.ndarray, rho: np.ndarray, leg: int):
    """(first, inverse) for the levers ``p - anchor`` of leg ``leg`` over
    (n, 3) rows with drive values ``rho``, told apart by their bytes:
    ``first`` indexes one row per distinct lever, its first occurrence, in
    the order of the levers' 24 bytes, and ``inverse`` maps each row to its
    lever's entry in ``first``, as ``np.unique`` of the bytes gives them.
    Each lever is computed as ``_leg_jacobians`` computes it.

    Read as a big-endian unsigned integer, each component's 8 bytes order
    as a comparison of the bytes does, so a stable sort by the three
    integers puts equal levers in runs, each led by its first occurrence.
    """
    lever = pts.copy()
    np.subtract(pts[:, leg], rho[:, leg], out=lever[:, leg])
    key = lever.view(">u8").astype(np.uint64)
    order = np.lexsort(key.T[::-1])
    key = key[order]
    starts = np.empty(order.size, dtype=bool)
    starts[:1] = True
    np.any(key[1:] != key[:-1], axis=1, out=starts[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


@dataclass(frozen=True, eq=False)
class OrthoglideStiffnessModel(_ValueSemantics):
    """Pose-dependent chain builder for the three-legged Orthoglide.

    Per chain: a 1-DOF actuator spring along the drive, a 6-DOF foot spring
    in drive-aligned axes, a 6-DOF equivalent-beam spring for the
    parallelogram in leg-aligned axes (beam length = leg length), and two
    passive revolutes perpendicular to the leg.  Models compare and hash by
    value.
    """

    geometry: GeometryParams
    actuator_stiffness: float
    foot_section: CrossSection
    foot_length: float
    parallelogram_section: CrossSection

    def __post_init__(self):
        _finite("actuator_stiffness", self.actuator_stiffness, positive=True)
        _finite("foot_length", self.foot_length, positive=True)

    def _spring_matrix(self, leg: int) -> np.ndarray:
        k = np.zeros((13, 13))
        k[0, 0] = self.actuator_stiffness
        k[1:7, 1:7] = beam_spring(self.foot_section, self.foot_length)
        k[7:13, 7:13] = beam_spring(
            self.parallelogram_section, float(self.geometry.leg_lengths[leg])
        )
        return k

    def _leg_jacobians(self, pts: np.ndarray, rho: np.ndarray, leg: int):
        """Jacobians of one leg over (N, 3) tool points with drive values ``rho``.

        Returns (ok, J_virtual (N, 6, 13), J_passive (N, 6, 2)); ``ok`` is
        False where the leg is aligned with its frame reference axis.
        ``J_virtual`` is a view of a (13, 6, N) array, so each column's rows
        are contiguous, as ``_compliance`` reads them; ``J_passive`` is a
        view of its last two columns, the twists about the two leg normals,
        which the passive revolutes share with the beam spring.  Each cross
        product is written out per component in ``np.cross``'s own order,
        ``a1 * b2 - a2 * b1`` and so on, with the same bits.
        """
        n = pts.shape[0]
        columns = np.zeros((13, WRENCH_SIZE, n))
        # the leg's unit direction and normals are columns 7-9's first rows
        direction, normal1, normal2 = columns[7, :3], columns[8, :3], columns[9, :3]
        # the anchor is rho on the leg's drive axis and zero off it
        lever = np.subtract(pts.T, 0.0, out=np.empty((3, n)))
        np.subtract(pts[:, leg], rho[:, leg], out=lever[leg])
        np.divide(lever, self.geometry.leg_lengths[leg], out=direction)
        _cross(direction, _AXIS[_FRAME_REF[leg]], normal1)
        # summed in the order np.linalg.norm(normal1, axis=1) sums an (N, 3) row
        norms = normal1[0] * normal1[0]
        norms += normal1[1] * normal1[1]
        norms += normal1[2] * normal1[2]
        np.sqrt(norms, out=norms)
        ok = norms >= 1e-9
        norms[~ok] = 1.0
        normal1 /= norms
        _cross(direction, normal1, normal2)

        columns[0, :3] = _AXIS[leg][:, None]
        for m, axis in enumerate((_AXIS[leg], _AXIS[(leg + 1) % 3], _AXIS[(leg + 2) % 3])):
            columns[1 + m, :3] = axis[:, None]
            _cross(axis, lever, columns[4 + m, :3])
            columns[4 + m, 3:] = axis[:, None]
        for m, axis in enumerate((direction, normal1, normal2)):
            _cross(axis, lever, columns[10 + m, :3])
        columns[10:, 3:] = columns[7:10, :3]
        return ok, columns.transpose(2, 1, 0), columns[11:].transpose(2, 1, 0)

    def chains(self, p) -> list[ChainModel]:
        """The three chain models at tool point ``p`` (raises Infeasible)."""
        p = np.asarray(p, dtype=float)
        rho = inverse_kinematics(p, self.geometry)
        models = []
        for leg in range(3):
            ok, j_virtual, j_passive = self._leg_jacobians(p[None], rho[None], leg)
            if not ok[0]:
                raise Infeasible(f"leg {leg} aligned with its frame reference axis")
            models.append(
                ChainModel(
                    j_virtual=np.ascontiguousarray(j_virtual[0]),
                    j_passive=np.ascontiguousarray(j_passive[0]),
                    k_virtual=self._spring_matrix(leg),
                )
            )
        return models

    def cartesian_stiffness(self, p) -> CartesianStiffness:
        return aggregate_stiffness([chain_cartesian_stiffness(c) for c in self.chains(p)])

    # -- vectorized path ----------------------------------------------------

    def batch_cartesian_stiffness(self, positions: np.ndarray):
        """Aggregated stiffness over (N, 3) positions.

        Returns (valid, K) with K of shape (N, 6, 6); rows that are out of
        reach, or where assembly or inversion failed, are flagged invalid
        and their K is exactly zero.

        IK runs once over all rows, in the calling thread.  A leg reads a
        pose only through its lever ``p - anchor`` (``_leg_jacobians``),
        whose components are ``p_j``, ``p_k`` and ``d = p_i - rho_i``, so
        its flag and contribution are bitwise functions of the lever.  Per
        leg, the reachable rows are deduplicated on the lever's bytes, and
        ``_leg_stiffness`` runs on one row per distinct lever (``_leg_sweep``);
        on a grid the levers repeat, and at 49^3 the 98,518 reachable rows
        hold 3,379 distinct levers per leg.  The legs' contributions are
        then gathered per block of reachable rows, summed from zeros in leg
        order, so the gather's temporaries stay a block's size.  A row is
        valid when all three legs are.  Both the per-leg steps and the
        gather run in blocks on every CPU (see ``grid.sweep_blocks``), and
        no row's result depends on the blocking or the CPU count.
        """
        pts = np.asarray(positions, dtype=float)
        reachable, rho = batch_inverse_kinematics(pts, self.geometry)
        rows = np.flatnonzero(reachable)
        pts, rho = pts[rows], rho[rows]
        ok = np.ones(rows.size, dtype=bool)
        legs = []
        for leg in range(3):
            first, inverse = _distinct_levers(pts, rho, leg)
            leg_ok, contribution = self._leg_sweep(pts[first], rho[first], leg)
            ok &= leg_ok[inverse]
            legs.append((contribution, inverse))
        del pts, rho  # the reachable rows' copies, before K is allocated
        total = np.zeros((reachable.size, WRENCH_SIZE, WRENCH_SIZE))

        def gather(part):
            k = np.zeros((part.stop - part.start, WRENCH_SIZE, WRENCH_SIZE))
            for contribution, inverse in legs:
                k += contribution[inverse[part]]
            k[~ok[part]] = 0.0
            total[rows[part]] = k

        sweep_blocks(rows.size, gather)
        valid = np.zeros(reachable.size, dtype=bool)
        valid[rows] = ok
        return valid, total

    def _leg_sweep(self, pts, rho, leg):
        """``_leg_stiffness`` of leg ``leg`` over (n, 3) rows, per block of
        rows on every CPU (see ``grid.sweep_blocks``), each block written in
        place."""
        k_inv = np.linalg.inv(self._spring_matrix(leg))
        ok = np.empty(pts.shape[0], dtype=bool)
        contribution = np.empty((pts.shape[0], WRENCH_SIZE, WRENCH_SIZE))

        def block(part):
            ok[part], contribution[part] = self._leg_stiffness(pts[part], rho[part], k_inv, leg)

        sweep_blocks(pts.shape[0], block)
        return ok, contribution

    def _leg_stiffness(self, pts, rho, k_inv, leg):
        """One leg's stiffness over a block of rows, as (ok (n,),
        contribution (n, 6, 6)); ``ok`` is False where the leg fails, and
        the contribution is then meaningless.  ``k_inv`` is the leg's
        inverse spring matrix.  The upper-left 6x6 block of each block
        system's inverse comes from one LU solve against the first six
        columns of the identity, passed to the batched solve as a (1, 8, 6)
        stack (numpy 1.x reads a right-hand side with one dimension fewer
        than the matrices as a stack of vectors).  That ``dgesv`` gives
        these the bits of a full inverse is not a documented LAPACK
        guarantee: it holds on the tested build, scipy-openblas 0.3.31, and
        ``test_six_column_solve_matches_inverse_bitwise`` checks it where it
        runs, so a failure there is a platform difference.  A failed
        batched solve falls back to one solve per row of the block."""
        n = pts.shape[0]
        size = WRENCH_SIZE + 2
        columns = np.eye(size)[:, :WRENCH_SIZE]
        ok, j_virtual, j_passive = self._leg_jacobians(pts, rho, leg)
        compliance = _compliance(j_virtual, k_inv)
        scale = np.abs(compliance).max(axis=(1, 2))
        ok &= np.isfinite(scale) & (scale > 0.0)
        safe_scale = np.where(ok, scale, 1.0)
        block = np.zeros((n, size, size))
        block[:, :WRENCH_SIZE, :WRENCH_SIZE] = compliance / safe_scale[:, None, None]
        block[:, :WRENCH_SIZE, WRENCH_SIZE:] = j_passive
        block[:, WRENCH_SIZE:, :WRENCH_SIZE] = np.transpose(j_passive, (0, 2, 1))
        # keep failed rows invertible so the batched solve cannot throw
        block[~ok] = np.eye(size)
        try:
            inverse = np.linalg.solve(block, columns[None])
        except np.linalg.LinAlgError:
            inverse = np.empty((n, size, WRENCH_SIZE))
            for row in range(n):
                try:
                    inverse[row] = np.linalg.solve(block[row], columns)
                except np.linalg.LinAlgError:
                    ok[row] = False
                    inverse[row] = columns
        return ok, inverse[:, :WRENCH_SIZE] / safe_scale[:, None, None]

    def batch_deflection(self, positions: np.ndarray, load):
        """Translational deflection norm under ``load`` over (N, 3) positions;
        a non-finite or misshapen load is refused before the sweep."""
        f = _finite("load", load, (WRENCH_SIZE,))
        return translational_deflection(*self.batch_cartesian_stiffness(positions), f)


def _certified_conditioned(k_sym: np.ndarray) -> np.ndarray:
    """Flags the rows of an (n, 6, 6) stack of symmetric matrices on which
    ``eigvalsh`` is certain to find ``lambda_min > lambda_max /
    CONDITION_LIMIT``; a row left unflagged is undecided, not refused.

    A row is flagged when the Cholesky factorisation of ``A = K - t I``,
    ``t = 1000 ||K||_F / CONDITION_LIMIT = 1e-9 ||K||_F``, has every pivot
    strictly positive.  Why that is sound, with u = 2**-53 and n = 6:

    - A Cholesky that runs to completion in floating point, in any order of
      its sums, gives ``R^T R = A + dA`` with ``|dA| <= g |R^T| |R|``,
      ``g = (n + 1) u / (1 - (n + 1) u)``, and ``|| |R^T| |R| ||_2 <= n
      ||R||_2**2`` (Higham, Accuracy and Stability of Numerical Algorithms,
      2nd ed., 2002, section 10.1).  Positive pivots make ``A + dA``
      positive definite, so ``lambda_min(A) > -||dA||_2``, which is at most
      about ``n g ||A||_2 < 50 u ||K||_2`` once the rounding of the diagonal
      shift is counted.  Hence ``lambda_min(K) > t - 50 u ||K||_2 >= (1e-9
      - 6e-15) ||K||_2``, as ``||K||_F >= ||K||_2``: K is positive definite
      with ``lambda_max = ||K||_2``.
    - ``eigvalsh`` computes each eigenvalue within ``p(n) u ||K||_2``, p a
      modestly growing function (LAPACK Users' Guide, 3rd ed., section
      4.7).  Its decision ``lambda_min > lambda_max / 1e12`` could then fail
      only if ``p(6) u`` neared 1e-9, a p of millions: the shift t leaves
      a margin of about 1000x over the ratio the guard asks for.
    - The bounds hold without underflow or overflow.  Only rows with
      ``||K||_F**2`` normal and finite are flagged.  Then no entry or
      product of the factorisation exceeds about ``||K||_F < 1e155``, and
      all underflows together perturb A by less than 1e-240, far under
      ``t >= 1e-163``.  NaN and +-inf entries give a NaN or infinite norm
      and an all-zero row a zero one, so none of them is flagged.

    The factorisation is right-looking over the lower triangle and
    vectorised over the rows; its bits reach no output.
    """
    a = np.ascontiguousarray(np.transpose(k_sym, (1, 2, 0)))  # (6, 6, n)
    squares = np.einsum("ijn,ijn->n", a, a)
    shift = (1e3 / CONDITION_LIMIT) * np.sqrt(squares)
    certified = (squares >= np.finfo(float).tiny) & (squares < np.inf)
    with np.errstate(all="ignore"):  # rows that fail run on as NaN or inf
        for j in range(WRENCH_SIZE):
            pivot = a[j, j] - shift
            certified &= pivot > 0.0
            column = a[j + 1 :, j] / np.sqrt(pivot)
            for i in range(j + 1, WRENCH_SIZE):
                a[i, j + 1 : i + 1] -= column[i - j - 1] * column[: i - j]
    return certified


def translational_deflection(valid: np.ndarray, stiffness: np.ndarray, load):
    """Translational deflection norm under ``load`` for ``batch_cartesian_stiffness``'s
    (valid, K); returns (solved, values), NaN where invalid or ill-conditioned.
    Runs per block of rows on every CPU, like the stiffness sweep.

    A valid row is solved when the eigenvalues ``eigvalsh`` computes for
    ``K_sym = (K + K^T) / 2`` satisfy ``lambda_min > lambda_max /
    CONDITION_LIMIT``.  Most rows never reach ``eigvalsh``: a Cholesky of
    ``K_sym - t I``, ``t = 1e-9 ||K_sym||_F``, with every pivot positive
    proves ``lambda_min(K_sym) > ~t >= 1e-9 lambda_max``, about 1000 times
    the ratio the guard asks for, more than ``eigvalsh``'s rounding can take
    away, so that row's decision is the same (see
    ``_certified_conditioned``).  Only the rows it leaves undecided go to
    ``eigvalsh``.  The solve is ``np.linalg.solve`` on K itself.
    """
    f = _finite("load", load, (WRENCH_SIZE,))
    values = np.full(stiffness.shape[0], np.nan)
    solved = np.zeros_like(valid)

    def block(rows):
        solvable = np.flatnonzero(valid[rows]) + rows.start
        k_sub = stiffness[solvable]
        k_sym = 0.5 * (k_sub + np.transpose(k_sub, (0, 2, 1)))
        conditioned = _certified_conditioned(k_sym)
        undecided = np.flatnonzero(~conditioned)
        if undecided.size:
            eigenvalues = np.linalg.eigvalsh(k_sym[undecided])
            conditioned[undecided] = eigenvalues[:, 0] > eigenvalues[:, -1] / CONDITION_LIMIT
        solvable = solvable[conditioned]
        rhs = np.tile(f.reshape(1, WRENCH_SIZE, 1), (solvable.size, 1, 1))
        twists = np.linalg.solve(k_sub[conditioned], rhs)[:, :, 0]
        values[solvable] = np.linalg.norm(twists[:, :3], axis=1)
        solved[solvable] = True

    sweep_blocks(stiffness.shape[0], block)
    return solved, values


def min_translational_stiffness(valid: np.ndarray, stiffness: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each translational 3x3 block; NaN where invalid."""
    from ._spectral import sym_eigvals_3x3

    block = stiffness[:, :3, :3]
    lows = sym_eigvals_3x3(0.5 * (block + np.transpose(block, (0, 2, 1))))[..., 0]
    return np.where(valid, lows, np.nan)


def deflection_field(model: OrthoglideStiffnessModel, load) -> ScalarField:
    """Field of the translational deflection norm under a fixed wrench."""
    f = _finite("load", load, (WRENCH_SIZE,))

    def scalar(position):
        return float(np.linalg.norm(deflection(model.cartesian_stiffness(position), f)[:3]))

    def batch(positions):
        _, values = model.batch_deflection(positions, f)
        return values

    return ScalarField(scalar, batch)


def stiffness_predicate(model: OrthoglideStiffnessModel, spec: StiffnessSpec) -> ThresholdPredicate:
    """Node predicate: reachable and deflection norm within the limit."""
    return ThresholdPredicate(deflection_field(model, spec.load), spec.deflection_limit, feasible_when="below")


def cross_section_sweep(
    model: OrthoglideStiffnessModel,
    pose,
    load,
    scale_factors: Sequence[float],
) -> np.ndarray:
    """Deflection norm at one pose as the parallelogram section is reshaped.

    Every factor scales width by ``mu`` and height by ``1/mu``, preserving
    the section area (and so the link mass).
    """
    f = _finite("load", load, (WRENCH_SIZE,))
    values = np.empty(len(scale_factors))
    for idx, factor in enumerate(scale_factors):
        scaled = replace(
            model,
            parallelogram_section=scale_cross_section(model.parallelogram_section, factor),
        )
        stiffness = scaled.cartesian_stiffness(pose)
        values[idx] = float(np.linalg.norm(deflection(stiffness, f)[:3]))
    return values
