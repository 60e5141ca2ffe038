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

# cyclic index triples (i, j, k) for the three legs
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

DENOMINATOR_EPS = 1e-12
CONDITION_LIMIT = 1e12


def _vec3(value, name: str) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite components: {v}")
    return v


@dataclass(frozen=True)
class GeometryParams:
    """Leg lengths, prismatic joint limits and the IK branch signs.

    leg_lengths    (3,) leg lengths [m], all positive
    joint_limits   (3, 2) closed [lower, upper] travel per drive [m]
    assembly_signs (3,) entries in {-1, +1}, selecting the IK branch per leg
    """

    leg_lengths: np.ndarray
    joint_limits: np.ndarray
    assembly_signs: np.ndarray = (-1.0, -1.0, -1.0)

    def __post_init__(self):
        lengths = _vec3(self.leg_lengths, "leg_lengths")
        if np.any(lengths <= 0.0):
            raise ValueError(f"leg_lengths must be positive: {lengths}")
        limits = np.asarray(self.joint_limits, dtype=float)
        if limits.shape != (3, 2):
            raise ValueError(f"joint_limits must have shape (3, 2), got {limits.shape}")
        if np.any(limits[:, 0] >= limits[:, 1]):
            raise ValueError("joint_limits must satisfy lower < upper per axis")
        signs = _vec3(self.assembly_signs, "assembly_signs")
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError(f"assembly_signs must be -1 or +1: {signs}")
        object.__setattr__(self, "leg_lengths", lengths)
        object.__setattr__(self, "joint_limits", limits)
        object.__setattr__(self, "assembly_signs", signs)


@dataclass(frozen=True)
class KinematicSample:
    """Jacobian plus its conditioning measures at one pose."""

    jacobian: np.ndarray
    cond: float
    sigma_min: float
    sigma_max: float


def leg_residuals(p: np.ndarray, rho: np.ndarray, geometry: GeometryParams) -> np.ndarray:
    """Sphere-constraint residual per leg; zero on a consistent pose."""
    p = _vec3(p, "p")
    rho = _vec3(rho, "rho")
    res = np.empty(3)
    for i, j, k in _CYCLIC:
        res[i] = (p[i] - rho[i]) ** 2 + p[j] ** 2 + p[k] ** 2 - geometry.leg_lengths[i] ** 2
    return res


def inverse_kinematics(p, geometry: GeometryParams) -> np.ndarray:
    """Drive coordinates for tool point ``p``, on the configured branch.

    Raises Infeasible when the point is outside a leg's reach or the
    resulting drive coordinate violates the joint limits.
    """
    p = _vec3(p, "p")
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


def is_reachable(p, geometry: GeometryParams) -> bool:
    try:
        inverse_kinematics(p, geometry)
    except Infeasible:
        return False
    return True


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
    rho = _vec3(rho, "rho")
    p = _vec3(p_init, "p_init").copy()
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


def rate_matrix(p, rho, denominator_eps: float = DENOMINATOR_EPS) -> np.ndarray:
    """The unit-diagonal matrix ``M`` with ``M @ dp = drho``.

    Entry (i, j) for j != i is ``p_j / (p_i - rho_i)``.  Raises Singular when
    any denominator is below ``denominator_eps``.
    """
    p = _vec3(p, "p")
    rho = _vec3(rho, "rho")
    m = np.eye(3)
    for i, j, k in _CYCLIC:
        den = p[i] - rho[i]
        if abs(den) < denominator_eps:
            raise Singular(f"leg {i} has p_i - rho_i = {den:g}, below {denominator_eps:g}")
        m[i, j] = p[j] / den
        m[i, k] = p[k] / den
    return m


def jacobian(
    p,
    rho,
    condition_limit: float = CONDITION_LIMIT,
    denominator_eps: float = DENOMINATOR_EPS,
) -> np.ndarray:
    """Manipulator Jacobian ``J = inv(M)`` mapping drive rates to tool rates."""
    m = rate_matrix(p, rho, denominator_eps)
    if np.linalg.cond(m) > condition_limit:
        raise Singular(f"rate matrix condition exceeds {condition_limit:g}")
    return np.linalg.inv(m)


def kinematic_sample(p, geometry: GeometryParams) -> KinematicSample:
    """IK, Jacobian and velocity transmission factors at one pose.

    sigma_min / sigma_max are the extreme singular values of J (computed from
    the symmetric eigenvalues of J.T @ J); cond is their ratio.
    """
    p = _vec3(p, "p")
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
    clamped branch value and must be ignored.
    """
    pts = np.asarray(positions, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"positions must have shape (N, 3), got {pts.shape}")
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


def batch_rate_matrices(positions: np.ndarray, geometry: GeometryParams):
    """Vectorized reachability plus the per-pose rate matrices ``M``.

    Returns (valid, M) with M of shape (N, 3, 3).  ``valid`` is reachability
    conjoined with a denominator guard; invalid rows of M are unusable.
    """
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


def batch_transmission(positions: np.ndarray, geometry: GeometryParams):
    """Vectorized velocity transmission factors over (N, 3) positions.

    Returns (valid, cond, sigma_min, sigma_max); entries at invalid rows are
    NaN.  The singular values of J are the reciprocals of those of M, so no
    matrix inversion is needed here.
    """
    valid, m = batch_rate_matrices(positions, geometry)
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


def condition_field(geometry: GeometryParams):
    """Grid field of the Jacobian condition number (NaN when unreachable)."""
    from .grid import ScalarField

    def scalar(position):
        return kinematic_sample(position, geometry).cond

    def batch(positions):
        _, cond, _, _ = batch_transmission(positions, geometry)
        return cond

    return ScalarField(scalar, batch)


def transmission_predicate(
    geometry: GeometryParams,
    cond_max: float | None = None,
    sigma_range: tuple[float, float] | None = None,
):
    """Grid predicate for conditioning specs; its ``batch`` test takes (N, 3)
    positions, as ``evaluate_mask`` expects.

    Feasible nodes are reachable and satisfy ``cond <= cond_max`` and/or
    ``sigma_range[0] <= sigma_min`` with ``sigma_max <= sigma_range[1]``.
    At least one bound must be given.
    """
    if cond_max is None and sigma_range is None:
        raise ValueError("need cond_max, sigma_range, or both")

    class _TransmissionPredicate:
        def batch(self, positions) -> np.ndarray:
            valid, cond, sigma_min, sigma_max = batch_transmission(positions, geometry)
            with np.errstate(invalid="ignore"):
                if cond_max is not None:
                    valid = valid & (cond <= cond_max)
                if sigma_range is not None:
                    valid = valid & (sigma_min >= sigma_range[0]) & (sigma_max <= sigma_range[1])
            return valid

    return _TransmissionPredicate()
