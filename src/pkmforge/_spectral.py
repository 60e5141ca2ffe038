"""Closed-form eigenvalues of symmetric 3x3 matrices, vectorized.

The trigonometric solution of the characteristic cubic avoids per-matrix
LAPACK calls, which matters when conditioning measures are evaluated over
hundreds of thousands of grid nodes at once.
"""

from __future__ import annotations

import numpy as np


def sym_eigvals_3x3(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric matrices with shape (..., 3, 3).

    Returns an array of shape (..., 3) sorted ascending: a view of a
    (3, ...) array whose rows hold the lowest, middle and highest
    eigenvalues, so ``vals[..., k]`` is contiguous.  Exact multiples of the
    identity are returned exactly (the deviatoric branch is skipped when
    the off-diagonal energy vanishes).  Only the upper triangle is read.

    Each value comes from the same operations on the same operands, in the
    same order, as the formula (Smith, CACM 1961) written out with fresh
    arrays, so NaN payloads propagate alike too (for one matrix that
    formula runs on numpy scalars, whose compiled arithmetic may give a NaN
    the other sign); the work happens in place in a few buffers, and
    ``arccos`` and ``cos`` read and write contiguous arrays (numpy's SIMD
    and strided loops may round them differently).
    """
    a = np.asarray(a, dtype=float)
    shape = a.shape[:-2]
    vals = np.empty((3,) + shape)
    # [0, ...] keeps a 0-d view for a single matrix, so out= works there too
    lo, mid, hi = vals[0, ...], vals[1, ...], vals[2, ...]
    q, d0, d1, d2, p2, p, t, u = (np.empty(shape) for _ in range(8))

    # the entries of a are indexed where used, to keep few array objects
    # alive at once: each holds a small heap block for its shape, and many
    # of them land high in the heap, where they keep the large buffers
    # freed below them from being returned
    np.add(a[..., 0, 0], a[..., 1, 1], out=q)
    q += a[..., 2, 2]
    q /= 3.0
    np.subtract(a[..., 0, 0], q, out=d0)
    np.subtract(a[..., 1, 1], q, out=d1)
    np.subtract(a[..., 2, 2], q, out=d2)
    # p2 = d0 d0 + d1 d1 + d2 d2 + 2 (a01 a01 + a02 a02 + a12 a12)
    np.multiply(d0, d0, out=p2)
    p2 += np.multiply(d1, d1, out=t)
    p2 += np.multiply(d2, d2, out=t)
    np.multiply(a[..., 0, 1], a[..., 0, 1], out=u)
    u += np.multiply(a[..., 0, 2], a[..., 0, 2], out=t)
    u += np.multiply(a[..., 1, 2], a[..., 1, 2], out=t)
    np.multiply(2.0, u, out=u)
    p2 += u
    np.divide(p2, 6.0, out=p)
    np.sqrt(p, out=p)

    degenerate = p2 <= 0.0
    safe_p = t
    np.copyto(safe_p, p)
    safe_p[degenerate] = 1.0
    b00 = np.divide(d0, safe_p, out=d0)
    b11 = np.divide(d1, safe_p, out=d1)
    b22 = np.divide(d2, safe_p, out=d2)
    b01 = np.divide(a[..., 0, 1], safe_p, out=u)
    b02 = np.divide(a[..., 0, 2], safe_p, out=lo)
    b12 = np.divide(a[..., 1, 2], safe_p, out=mid)
    # det(B) / 2 with B the normalized deviatoric part; clamp for acos:
    # 0.5 (b00 (b11 b22 - b12 b12) - b01 (b01 b22 - b12 b02) + b02 (b01 b12 - b11 b02))
    half_det, term, scratch = p2, hi, t
    np.multiply(b11, b22, out=half_det)
    half_det -= np.multiply(b12, b12, out=scratch)
    np.multiply(b00, half_det, out=half_det)
    np.multiply(b01, b22, out=term)
    term -= np.multiply(b12, b02, out=scratch)
    np.multiply(b01, term, out=term)
    half_det -= term
    np.multiply(b01, b12, out=term)
    term -= np.multiply(b11, b02, out=scratch)
    np.multiply(b02, term, out=term)
    half_det += term
    np.multiply(0.5, half_det, out=half_det)
    np.clip(half_det, -1.0, 1.0, out=half_det)

    phi = np.arccos(half_det, out=d0)
    phi /= 3.0
    two_p = np.multiply(2.0, p, out=p)
    np.cos(phi, out=hi)
    np.multiply(two_p, hi, out=hi)
    np.add(q, hi, out=hi)
    np.cos(np.add(phi, 2.0 * np.pi / 3.0, out=d1), out=lo)
    np.multiply(two_p, lo, out=lo)
    np.add(q, lo, out=lo)
    np.multiply(3.0, q, out=mid)
    mid -= hi
    mid -= lo

    for row in (lo, mid, hi):
        np.copyto(row, q, where=degenerate)
    return np.moveaxis(vals, 0, -1)
