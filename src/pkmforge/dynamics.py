"""Dynamic performance measures: end-effector-felt inertia and the
guaranteed acceleration radius under bounded drive forces.

The inertia felt at the tool is ``G = J^-T D J^-1`` for a joint-space
inertia ``D``; its spectral norm bounds the largest inertia any direction
sees.  The acceleration capability is the set ``{J D^-1 tau}`` over the
force box ``|tau_i| <= tau_i_max`` - a zonotope.  The radius of the largest
origin-centered ball inside it is the acceleration the drives can guarantee
in *every* direction; an optional existence reading uses the zonotope's
farthest vertex instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._spectral import sym_eigvals_3x3
from .errors import SingularJacobian
from .grid import ScalarField, ThresholdPredicate, _ValueSemantics, sweep_blocks
from .kinematics import GeometryParams, batch_rate_matrices, inverse_kinematics, jacobian

_SIGMA_FLOOR = 1e-10


@dataclass(frozen=True, eq=False)
class InertiaModel(_ValueSemantics):
    """Lumped masses: one per drive carriage plus the tool platform; compares
    and hashes by value."""

    joint_masses: np.ndarray
    tcp_mass: float

    def __post_init__(self):
        masses = np.asarray(self.joint_masses, dtype=float)
        if masses.shape != (3,) or np.any(masses <= 0.0):
            raise ValueError(f"joint_masses must be three positive values: {masses}")
        if not self.tcp_mass > 0.0:
            raise ValueError("tcp_mass must be positive")
        object.__setattr__(self, "joint_masses", masses)


@dataclass(frozen=True, eq=False)
class DynamicSpec(_ValueSemantics):
    """Bounds used by the dynamic grid predicates; compares and hashes by
    value."""

    inertia_bound: float
    min_acceleration: float
    torque_limits: np.ndarray
    acceleration_mode: str = "ball"

    def __post_init__(self):
        if not self.inertia_bound > 0.0:
            raise ValueError("inertia_bound must be positive")
        if self.min_acceleration < 0.0:
            raise ValueError("min_acceleration must be >= 0")
        limits = np.asarray(self.torque_limits, dtype=float)
        if limits.shape != (3,) or np.any(limits <= 0.0):
            raise ValueError(f"torque_limits must be three positive values: {limits}")
        if self.acceleration_mode not in ("ball", "max"):
            raise ValueError(f"acceleration_mode must be 'ball' or 'max', got {self.acceleration_mode!r}")
        object.__setattr__(self, "torque_limits", limits)


def joint_space_inertia(model: InertiaModel, jac: np.ndarray) -> np.ndarray:
    """Drive-space inertia: carriage masses plus the tool mass reflected
    through the Jacobian (D = diag(m) + m_tcp * J^T J)."""
    jac = np.asarray(jac, dtype=float)
    return np.diag(model.joint_masses) + model.tcp_mass * (jac.T @ jac)


def generalized_inertia(jac: np.ndarray, inertia: np.ndarray) -> np.ndarray:
    """Tool-felt inertia ``G = J^-T D J^-1`` (symmetric positive definite)."""
    jac = np.asarray(jac, dtype=float)
    inertia = np.asarray(inertia, dtype=float)
    sigma = np.linalg.svd(jac, compute_uv=False)
    if sigma[-1] <= _SIGMA_FLOOR:
        raise SingularJacobian(f"Jacobian singular (sigma_min {sigma[-1]:g})")
    inv_jac = np.linalg.inv(jac)
    g = inv_jac.T @ inertia @ inv_jac
    return 0.5 * (g + g.T)


def _acceleration_generators(jac, inertia, torque_limits) -> np.ndarray:
    """Columns of J D^-1 scaled by the drive force limits."""
    jac = np.asarray(jac, dtype=float)
    inertia = np.asarray(inertia, dtype=float)
    limits = np.asarray(torque_limits, dtype=float)
    sigma = np.linalg.svd(jac, compute_uv=False)
    if sigma[-1] <= _SIGMA_FLOOR:
        raise SingularJacobian(f"Jacobian singular (sigma_min {sigma[-1]:g})")
    transmission = jac @ np.linalg.inv(inertia)
    return transmission * limits[None, :]


def min_achievable_acceleration(jac, inertia, torque_limits, mode: str = "ball") -> float:
    """Guaranteed (or, in 'max' mode, best-case) acceleration magnitude.

    'ball' returns the radius of the largest origin-centered ball inside the
    acceleration zonotope: the minimum over the zonotope's facet normals of
    the support function (a polytope's inradius about an interior point is
    reached at a facet normal, so no other direction can lower it).  'max'
    returns the farthest vertex norm (the existence reading of the
    capability).
    """
    generators = _acceleration_generators(jac, inertia, torque_limits)
    g0, g1, g2 = generators[:, 0], generators[:, 1], generators[:, 2]
    if mode == "max":
        best = 0.0
        for s1 in (-1.0, 1.0):
            for s2 in (-1.0, 1.0):
                best = max(best, float(np.linalg.norm(g0 + s1 * g1 + s2 * g2)))
        return best
    if mode != "ball":
        raise ValueError(f"mode must be 'ball' or 'max', got {mode!r}")

    normals = np.stack([np.cross(g0, g1), np.cross(g0, g2), np.cross(g1, g2)])
    lengths = np.linalg.norm(normals, axis=1)
    if np.any(lengths <= 0.0):
        raise SingularJacobian("acceleration generators are coplanar")
    normals = normals / lengths[:, None]
    support = np.abs(normals @ generators).sum(axis=1)
    return float(support.min())


# ---------------------------------------------------------------------------
# grid fields and predicates
# ---------------------------------------------------------------------------


def _joint_inertias(m: np.ndarray, model: InertiaModel):
    """C-ordered copies of (n, 3, 3) rate matrices and their joint-space
    inertias ``D = diag(m) + m_tcp (M M^T)^-1``."""
    # einsum picks its summation loops by memory layout; row-major M keeps
    # the sums below bitwise stable
    m = np.ascontiguousarray(m)
    # J = inv(M), so J^T J = inv(M M^T); reflected tool inertia needs it
    gram = np.einsum("nij,nkj->nik", m, m)  # M M^T
    jtj = np.linalg.inv(gram)
    return m, np.diag(model.joint_masses)[None] + model.tcp_mass * jtj


def _felt_inertia(m: np.ndarray, inertia: np.ndarray) -> np.ndarray:
    """Tool-felt inertias ``G = J^-T D J^-1 = M^T D M`` of (n, 3, 3) rate
    matrices and joint-space inertias, bit for bit what
    ``np.einsum("nji,njk,nkl->nil", M, D, M)`` gives with C-ordered inputs.

    The same ordered loop as ``stiffness._compliance``: each entry is summed
    from +0.0 with ``j`` outer and ``k`` inner, term by term
    ``(M[n, j, i] * D[n, j, k]) * M[n, k, l]``, vectorised over the rows; D
    varies per row, so no term is skipped.  Returns an (n, 3, 3) view.
    """
    mt = np.ascontiguousarray(np.transpose(m, (1, 2, 0)))  # (3, 3, n)
    d = np.transpose(inertia, (1, 2, 0))
    g = np.zeros((3, 3, m.shape[0]))
    for j in range(3):
        for k in range(3):
            g += (mt[j][:, None] * d[j, k]) * mt[k][None]
    return g.transpose(2, 0, 1)


def _acceleration(m: np.ndarray, inertia: np.ndarray, limits: np.ndarray, mode: str) -> np.ndarray:
    """Acceleration magnitude per row of rate matrices and joint-space
    inertias (see ``min_achievable_acceleration``); NaN where, in 'ball'
    mode, a facet normal vanishes."""
    # J D^-1 = (D M)^-1
    dm = np.einsum("nij,njk->nik", inertia, m)
    generators = np.linalg.inv(dm) * limits[None, None, :]
    g0, g1, g2 = generators[:, :, 0], generators[:, :, 1], generators[:, :, 2]
    if mode == "max":
        best = np.zeros(m.shape[0])
        for s1 in (-1.0, 1.0):
            for s2 in (-1.0, 1.0):
                best = np.maximum(best, np.linalg.norm(g0 + s1 * g1 + s2 * g2, axis=1))
        return best
    normals = np.stack([np.cross(g0, g1), np.cross(g0, g2), np.cross(g1, g2)], axis=1)
    lengths = np.linalg.norm(normals, axis=2)
    ok = np.all(lengths > 0.0, axis=1)
    normals = normals / np.where(lengths > 0.0, lengths, 1.0)[:, :, None]
    support = np.abs(np.einsum("nfi,nij->nfj", normals, generators)).sum(axis=2)
    return np.where(ok, support.min(axis=1), np.nan)


def _scatter(n: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(n,) array of ``values`` at ``rows`` and NaN elsewhere."""
    out = np.full(n, np.nan)
    out[rows] = values
    return out


def inertia_norm_field(geometry: GeometryParams, model: InertiaModel) -> ScalarField:
    """Field of the spectral norm of the tool-felt inertia.

    The rate matrices come from one ``batch_rate_matrices`` call; the
    inertias and felt inertias of the kept rows run per block on every CPU
    (``grid.sweep_blocks``), and their eigenvalues once, gathered."""

    def scalar(position):
        rho = inverse_kinematics(position, geometry)
        jac = jacobian(position, rho)
        g = generalized_inertia(jac, joint_space_inertia(model, jac))
        return float(sym_eigvals_3x3(g)[..., 2])

    def batch(positions):
        rows, m = batch_rate_matrices(positions, geometry)
        # (n, 3, 3) view of a (3, 3, n) array: sym_eigvals_3x3 reads each
        # entry contiguously, as from _felt_inertia's own result
        felt = np.empty((3, 3, rows.size)).transpose(2, 0, 1)

        def block(kept):
            felt[kept] = _felt_inertia(*_joint_inertias(m[kept], model))

        sweep_blocks(rows.size, block)
        return _scatter(positions.shape[0], rows, sym_eigvals_3x3(felt)[:, 2])

    return ScalarField(scalar, batch)


def acceleration_field(
    geometry: GeometryParams,
    model: InertiaModel,
    torque_limits,
    mode: str = "ball",
) -> ScalarField:
    """Field of the achievable acceleration magnitude per node.

    The rate matrices come from one ``batch_rate_matrices`` call; the rest
    runs per block of kept rows on every CPU (``grid.sweep_blocks``)."""
    if mode not in ("ball", "max"):
        raise ValueError(f"mode must be 'ball' or 'max', got {mode!r}")
    limits = np.asarray(torque_limits, dtype=float)

    def scalar(position):
        rho = inverse_kinematics(position, geometry)
        jac = jacobian(position, rho)
        inertia = joint_space_inertia(model, jac)
        return min_achievable_acceleration(jac, inertia, limits, mode=mode)

    def batch(positions):
        rows, m = batch_rate_matrices(positions, geometry)
        values = np.empty(rows.size)

        def block(kept):
            values[kept] = _acceleration(*_joint_inertias(m[kept], model), limits, mode)

        sweep_blocks(rows.size, block)
        return _scatter(positions.shape[0], rows, values)

    return ScalarField(scalar, batch)


def gie_predicate(geometry: GeometryParams, model: InertiaModel, spec: DynamicSpec) -> ThresholdPredicate:
    """Feasible when reachable and the tool-felt inertia norm stays bounded."""
    return ThresholdPredicate(inertia_norm_field(geometry, model), spec.inertia_bound, "below")


def acceleration_predicate(
    geometry: GeometryParams, model: InertiaModel, spec: DynamicSpec
) -> ThresholdPredicate:
    """Feasible when reachable and the guaranteed acceleration is sufficient."""
    field = acceleration_field(geometry, model, spec.torque_limits, mode=spec.acceleration_mode)
    return ThresholdPredicate(field, spec.min_acceleration, "above")
