"""Closed-form eigenvalues of symmetric 3x3 matrices, vectorized.

The trigonometric solution of the characteristic cubic avoids per-matrix
LAPACK calls, which matters when conditioning measures are evaluated over
hundreds of thousands of grid nodes at once.
"""

from __future__ import annotations

import numpy as np


def sym_eigvals_3x3(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric matrices with shape (..., 3, 3).

    Returns an array of shape (..., 3) sorted ascending.  Exact multiples of
    the identity are returned exactly (the deviatoric branch is skipped when
    the off-diagonal energy vanishes).
    """
    a = np.asarray(a, dtype=float)
    a00 = a[..., 0, 0]
    a11 = a[..., 1, 1]
    a22 = a[..., 2, 2]
    a01 = a[..., 0, 1]
    a02 = a[..., 0, 2]
    a12 = a[..., 1, 2]

    q = (a00 + a11 + a22) / 3.0
    d0 = a00 - q
    d1 = a11 - q
    d2 = a22 - q
    p2 = d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)
    p = np.sqrt(p2 / 6.0)

    degenerate = p2 <= 0.0
    safe_p = np.where(degenerate, 1.0, p)

    b00 = d0 / safe_p
    b11 = d1 / safe_p
    b22 = d2 / safe_p
    b01 = a01 / safe_p
    b02 = a02 / safe_p
    b12 = a12 / safe_p
    # det(B) / 2 with B the normalized deviatoric part; clamp for acos.
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

