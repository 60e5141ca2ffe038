"""Workspace voxel grid, feasibility masks, and the largest inscribed
prescribed-proportion cuboid.

The grid uses uniform but per-axis-different steps ``(a/N0, b/N0, c/N0)``
derived from the prescribed cuboid proportions ``(a, b, c)`` and the
resolution ``N0``.  Because the steps inherit the proportions, the largest
cube in *index* space maps to the largest cuboid of proportions a x b x c in
Cartesian space; its scale factor is ``mu = (m - 1) / N0`` for a cube of
``m`` nodes per edge.

``largest_cuboid`` searches the cube edge on boolean flags alone: the mask
flags the cubes of edge 1, and three shifted ANDs, one per axis, turn the
flags of edge m into those of any edge up to 2m.  The edge doubles while a
cube of twice the edge fits, then a binary search finds it below the next
power of two.  Of the upper corners that end a largest cube, the first in C
order (the lexicographically smallest) is reported.
``brute_force_cuboid`` is the deliberately dumb oracle used to validate the
search.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, PkmforgeError, TooLarge

BRUTE_FORCE_DIM_GUARD = 16

# rows per block of the threaded sweeps
SWEEP_BLOCK_ROWS = 2048


class _ValueSemantics:
    """Equality and hashing over a frozen dataclass's field values.

    The generated ``__eq__``/``__hash__`` fail on array fields; here an
    array compares and hashes as its shape plus its flat elements, so
    matrices work too.  Subclasses are dataclasses with ``eq=False``.
    """

    def _value_key(self) -> tuple:
        return tuple(
            (value.shape, tuple(value.ravel().tolist())) if isinstance(value, np.ndarray) else value
            for value in (getattr(self, f.name) for f in fields(self))
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._value_key() == other._value_key()

    def __hash__(self):
        return hash(self._value_key())


@dataclass(frozen=True, eq=False)
class GridSpec(_ValueSemantics):
    """Axis-aligned node grid with steps tied to the cuboid proportions.

    origin       (3,) Cartesian position of node (0, 0, 0) [m]
    proportions  (3,) prescribed cuboid proportions (a, b, c) [m]
    resolution   N0; steps per axis are proportions / N0
    dims         (3,) node counts per axis, each >= 2

    Specs compare and hash by these four values.
    """

    origin: np.ndarray
    proportions: np.ndarray
    resolution: int
    dims: tuple[int, int, int]

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=float)
        props = np.asarray(self.proportions, dtype=float)
        dims = tuple(int(d) for d in np.asarray(self.dims).ravel())
        if origin.shape != (3,) or props.shape != (3,):
            raise ValueError("origin and proportions must be 3-vectors")
        if not (np.isfinite(origin).all() and np.isfinite(props).all()):
            raise ValueError(f"origin and proportions must be finite: {origin}, {props}")
        if np.any(props <= 0.0):
            raise ValueError(f"proportions must be positive: {props}")
        if int(self.resolution) < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")
        if len(dims) != 3 or any(d < 2 for d in dims):
            raise ValueError(f"dims must be three counts >= 2, got {dims}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "proportions", props)
        object.__setattr__(self, "resolution", int(self.resolution))
        object.__setattr__(self, "dims", dims)

    @property
    def steps(self) -> np.ndarray:
        return self.proportions / self.resolution

    def node_position(self, index) -> np.ndarray:
        idx = np.asarray(index, dtype=float)
        return self.origin + idx * self.steps

    def node_positions(self) -> np.ndarray:
        """All node positions as an (N, 3) array in C (i, j, k) order.

        Every call returns the same read-only array, so field-level batch
        caches keyed on array identity hit across repeated sweeps.
        """
        return self._node_positions

    @cached_property
    def _node_positions(self) -> np.ndarray:
        axes = [self.origin[a] + self.steps[a] * np.arange(self.dims[a]) for a in range(3)]
        xs, ys, zs = np.meshgrid(*axes, indexing="ij")
        positions = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
        positions.setflags(write=False)
        return positions


@dataclass(frozen=True, eq=False)
class FeasibilityMask(_ValueSemantics):
    """Boolean feasibility per grid node, indexed (i, j, k); masks compare
    and hash by value."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=bool)
        if arr.ndim != 3:
            raise ValueError(f"mask data must be 3-D, got ndim {arr.ndim}")
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def count(self) -> int:
        return int(self.data.sum())


@dataclass(frozen=True, eq=False)
class CuboidResult(_ValueSemantics):
    """Largest inscribed prescribed-proportion cuboid found in a mask.

    node_edge is the cube edge in nodes (m); the scale factor is
    mu = (m - 1) / N0 and the Cartesian extents are mu * proportions.
    An all-false mask yields found=False, node_edge=0 and mu=0.  Results
    compare and hash by their values.
    """

    found: bool
    node_edge: int
    mu: float
    index_min: Optional[tuple[int, int, int]] = None
    index_max: Optional[tuple[int, int, int]] = None
    cart_min: Optional[np.ndarray] = None
    cart_max: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        return {
            "found": self.found,
            "node_edge": self.node_edge,
            "mu": self.mu,
            "index_min": list(self.index_min) if self.index_min is not None else None,
            "index_max": list(self.index_max) if self.index_max is not None else None,
            "cart_min": [float(v) for v in self.cart_min] if self.cart_min is not None else None,
            "cart_max": [float(v) for v in self.cart_max] if self.cart_max is not None else None,
        }

    @staticmethod
    def from_dict(d: dict) -> "CuboidResult":
        return CuboidResult(
            found=bool(d["found"]),
            node_edge=int(d["node_edge"]),
            mu=float(d["mu"]),
            index_min=tuple(d["index_min"]) if d["index_min"] is not None else None,
            index_max=tuple(d["index_max"]) if d["index_max"] is not None else None,
            cart_min=np.array(d["cart_min"]) if d["cart_min"] is not None else None,
            cart_max=np.array(d["cart_max"]) if d["cart_max"] is not None else None,
        )


class ScalarField:
    """A per-node scalar metric and its vectorized batch path.

    Calling the field returns NaN where the scalar callable raises a
    PkmforgeError or LinAlgError (unreachable or failed nodes).  The batch
    callable must accept an (N, 3) position array and return (N,) values
    with NaN at infeasible rows.  The field keeps its latest batch result
    with the position array it was swept on, matched by identity, so a
    threshold family over ``GridSpec.node_positions()`` re-uses one sweep.
    """

    def __init__(self, scalar: Callable[[np.ndarray], float], batch: Callable[[np.ndarray], np.ndarray]):
        self._scalar = scalar
        self._batch = batch
        self._latest: Optional[tuple[np.ndarray, np.ndarray]] = None  # (positions, values)

    def __call__(self, position) -> float:
        try:
            return float(self._scalar(np.asarray(position, dtype=float)))
        except (PkmforgeError, np.linalg.LinAlgError):
            return float("nan")

    def batch(self, positions: np.ndarray) -> np.ndarray:
        latest = self._latest
        if latest is None or latest[0] is not positions:
            latest = self._latest = (positions, np.asarray(self._batch(positions), dtype=float))
        return latest[1]


class ThresholdPredicate:
    """Feasibility predicate ``field <= bound`` (or >= for lower bounds) over
    (N, 3) positions, through the field's batch path; NaN field values compare
    False either way, so they are infeasible."""

    def __init__(self, field: ScalarField, bound: float, feasible_when: str = "below"):
        if feasible_when not in ("below", "above"):
            raise ValueError(f"feasible_when must be 'below' or 'above', got {feasible_when!r}")
        self.field = field
        self.bound = float(bound)
        self.feasible_when = feasible_when

    def batch(self, positions: np.ndarray) -> np.ndarray:
        values = self.field.batch(positions)
        with np.errstate(invalid="ignore"):
            if self.feasible_when == "below":
                return values <= self.bound
            return values >= self.bound


def parallel_map(work: Callable, items: Sequence) -> list:
    """``[work(item) for item in items]``, on a thread pool with one worker
    per CPU the process may run on; inline when there is one item or one CPU.

    The package's one parallel loop: the kinematic transmission sweep, the
    stiffness sweep, the deflection solve, the dynamics fields' per-row
    algebra (all through ``sweep_blocks``) and ``pareto_sweep``'s solves run
    on it.  Results come back in input order whatever the CPU count, and the
    first exception raised by an item, in input order, propagates.
    ``bench/tracing.py``'s span stack is single-threaded, so a name it
    wraps may run in a worker only off the bench's paths.  A block kernel
    therefore reaches the layers it shares with the calling thread through
    module-private names bound at import (``kinematics._sym_eigvals_3x3``)
    or keeps them in the calling thread (the dynamics fields'
    ``sym_eigvals_3x3``), and no bench workload runs ``pareto_sweep``.
    numpy releases the GIL in its heavy kernels.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(items))
    if workers <= 1:
        return [work(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, items))


def sweep_blocks(n: int, work: Callable[[slice], None], block_rows: Optional[int] = None) -> None:
    """Calls ``work(rows)`` on ``parallel_map`` with a slice per block of
    ``block_rows`` (default ``SWEEP_BLOCK_ROWS``) of ``n`` rows; ``work``
    writes its rows' results in place, so no row's result depends on the
    blocking or the CPU count."""
    size = SWEEP_BLOCK_ROWS if block_rows is None else block_rows
    parallel_map(work, [slice(start, min(start + size, n)) for start in range(0, n, size)])


def evaluate_mask(spec: GridSpec, predicate) -> FeasibilityMask:
    """Evaluate a node predicate over every grid node in one sweep.

    The predicate's ``batch`` method takes the (N, 3) node positions and
    must return one flag per node; whatever it raises propagates.
    """
    positions = spec.node_positions()
    flags = np.asarray(predicate.batch(positions), dtype=bool)
    if flags.shape != (positions.shape[0],):
        raise ValueError(f"predicate batch returned shape {flags.shape} for {positions.shape[0]} nodes")
    return FeasibilityMask(flags.reshape(spec.dims))


def _grow(fits: np.ndarray, step: int) -> np.ndarray:
    """Cube flags of edge ``m`` to those of edge ``m + step``, for
    ``0 <= step <= m``.

    Flags are indexed by the cube's lower corner.  While ``step <= m``, the
    cube of edge ``m + step`` at a corner is the union of the edge-``m``
    cubes at the corner plus ``{0, step}`` per axis, so one shifted AND per
    axis tests it.
    """
    i, j, k = (n - step for n in fits.shape)
    fits = fits[step:] & fits[:i]
    fits = fits[:, step:] & fits[:, :j]
    return fits[:, :, step:] & fits[:, :, :k]


def _cube_sizes(mask: FeasibilityMask) -> tuple[int, tuple[int, int, int]]:
    """Largest all-true cube edge and its upper corner, ``(edge, anchor)``.

    The mask itself flags the cubes of edge 1.  The edge doubles while some
    cube of twice the edge fits; a fitting cube of edge e contains one of
    every smaller edge, so the largest edge then lies below twice the last
    fitting power of two, and a binary search grows each probe from that
    power's flags.  The anchor is the first upper corner in C order, i.e.
    the lexicographically smallest, that ends a cube of the maximal edge.
    An all-false mask gives ``(0, (0, 0, 0))``.
    """
    fits = mask.data
    if not fits.any():
        return 0, (0, 0, 0)
    limit = min(mask.dims)
    edge = 1
    while 2 * edge <= limit:
        doubled = _grow(fits, edge)
        if not doubled.any():
            break
        edge, fits = 2 * edge, doubled
    lo, hi, best = edge, min(limit, 2 * edge - 1), fits
    while lo < hi:
        mid = (lo + hi + 1) // 2
        candidate = _grow(fits, mid - edge)
        if candidate.any():
            lo, best = mid, candidate
        else:
            hi = mid - 1
    corner = np.unravel_index(int(np.argmax(best)), best.shape)
    return lo, tuple(int(c) + lo - 1 for c in corner)


def largest_cuboid(mask: FeasibilityMask, spec: GridSpec) -> CuboidResult:
    """Largest all-true index cube in the mask, as a Cartesian cuboid.

    The edge is exact (doubling then binary search on boolean cube flags,
    see ``_cube_sizes``).  Ties between equally large cubes break toward the
    lexicographically smallest anchor, the upper corner ``index_max``.
    Raises DimensionMismatch when mask and spec disagree on node counts.
    """
    if mask.dims != spec.dims:
        raise DimensionMismatch(f"mask dims {mask.dims} do not match grid dims {spec.dims}")
    edge, anchor = _cube_sizes(mask)
    if edge == 0:
        return CuboidResult(found=False, node_edge=0, mu=0.0)
    d = edge - 1
    index_max = anchor
    index_min = (anchor[0] - d, anchor[1] - d, anchor[2] - d)
    steps = spec.steps
    cart_min = spec.origin + np.asarray(index_min, dtype=float) * steps
    cart_max = spec.origin + np.asarray(index_max, dtype=float) * steps
    return CuboidResult(
        found=True,
        node_edge=edge,
        mu=d / spec.resolution,
        index_min=index_min,
        index_max=index_max,
        cart_min=cart_min,
        cart_max=cart_max,
    )


def brute_force_cuboid(mask: FeasibilityMask) -> int:
    """Exhaustive oracle: the largest all-true cube edge, in nodes.

    Tests every axis-aligned cube position.  Guarded to small masks since the
    cost grows with the sixth power of the dimension.
    """
    dims = mask.dims
    if max(dims) > BRUTE_FORCE_DIM_GUARD:
        raise TooLarge(f"brute force limited to dims <= {BRUTE_FORCE_DIM_GUARD}, got {dims}")
    data = mask.data
    for edge in range(min(dims), 0, -1):
        for i in range(dims[0] - edge + 1):
            for j in range(dims[1] - edge + 1):
                for k in range(dims[2] - edge + 1):
                    if data[i : i + edge, j : j + edge, k : k + edge].all():
                        return edge
    return 0


def nested_cuboids(
    spec: GridSpec,
    family: Callable[[float], object],
    thresholds: Sequence[float],
) -> list[CuboidResult]:
    """One largest-cuboid result per threshold of a monotone predicate family.

    The family maps a threshold to a node predicate; thresholds must be
    ordered from tight to loose for the edge monotonicity guarantee to apply.
    Families built on a shared ScalarField evaluate the metric sweep once.
    """
    results = []
    for threshold in thresholds:
        mask = evaluate_mask(spec, family(threshold))
        results.append(largest_cuboid(mask, spec))
    return results


# ---------------------------------------------------------------------------
# mask serialization
# ---------------------------------------------------------------------------


def save_mask(path, mask: FeasibilityMask) -> None:
    """Write a mask as a compact bit-packed .npz file."""
    flat = np.packbits(mask.data.astype(np.uint8).ravel())
    np.savez_compressed(path, dims=np.asarray(mask.dims, dtype=np.int32), bits=flat)


def load_mask(path) -> FeasibilityMask:
    with np.load(path) as archive:
        dims = tuple(int(d) for d in archive["dims"])
        count = dims[0] * dims[1] * dims[2]
        bits = np.unpackbits(archive["bits"])[:count]
    return FeasibilityMask(bits.reshape(dims).astype(bool))
