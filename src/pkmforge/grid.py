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

import itertools
import numbers
import os
import threading
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


def _finite(name: str, value, shape: tuple = (), positive: bool = False) -> np.ndarray:
    """``value`` as a float array of ``shape``, every entry finite, and
    positive when ``positive``; otherwise a ValueError naming ``name``.

    The one check of every model input: NaN passes a bare ``<= 0.0`` or
    ``< 0.0`` test and +-inf passes any sign test, and either would read
    as an empty or a full workspace instead of failing.
    """
    array = np.asarray(value, dtype=float)
    if array.shape != tuple(shape):
        raise ValueError(f"{name} must have shape {tuple(shape)}, got {array.shape}")
    if not (np.isfinite(array).all() and (not positive or (array > 0.0).all())):
        raise ValueError(f"{name} must be finite{' and positive' if positive else ''}, got {array.tolist()}")
    return array


def _whole(name: str, value) -> int:
    """``value`` as an int when it is an integer or an integral real, not a
    bool or a string; otherwise a ValueError naming ``name``."""
    integral = isinstance(value, numbers.Integral) or isinstance(value, numbers.Real) and float(value).is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be integral, got {value!r}")
    return int(value)


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
        origin = _finite("origin", self.origin, (3,))
        props = _finite("proportions", self.proportions, (3,), positive=True)
        resolution = _whole("resolution", self.resolution)
        # dtype=object keeps each entry's own type, so a bool or a string is seen
        dims = tuple(_whole("dims", d) for d in np.asarray(self.dims, dtype=object).ravel())
        if resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")
        if len(dims) != 3 or any(d < 2 for d in dims):
            raise ValueError(f"dims must be three counts >= 2, got {dims}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "proportions", props)
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "dims", dims)

    @property
    def steps(self) -> np.ndarray:
        return self.proportions / self.resolution

    def node_position(self, index) -> np.ndarray:
        idx = np.asarray(index, dtype=float)
        return self.origin + idx * self.steps

    def node_positions(self) -> np.ndarray:
        """All node positions as an (N, 3) array in C (i, j, k) order.

        Every call returns the same read-only array, which owns its data,
        so a ``ScalarField``'s cache hits across repeated sweeps.
        """
        return self._node_positions

    def _axes(self) -> list[np.ndarray]:
        """The node coordinates along each axis."""
        return [self.origin[a] + self.steps[a] * np.arange(self.dims[a]) for a in range(3)]

    def _line_positions(self, lines: slice) -> np.ndarray:
        """``node_positions()``'s rows of a block of ``sweep_grid``'s k-lines,
        bit for bit, as an (n, 3) view of a C-contiguous (3, n) array."""
        xs, ys, zs = self._axes()
        xi, yi = np.divmod(np.arange(lines.start, lines.stop), self.dims[1])
        cols = np.empty((3, xi.size, zs.size))
        cols[0], cols[1], cols[2] = xs[xi, None], ys[yi, None], zs
        return cols.reshape(3, -1).T

    @cached_property
    def _node_positions(self) -> np.ndarray:
        xs, ys, zs = np.meshgrid(*self._axes(), indexing="ij")
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
    callable must accept an (N, 3) position array and return (N,) values with
    NaN at infeasible rows.  The field keeps its latest batch result, made
    read-only, with the position array it was swept on, matched by identity,
    so a threshold family over ``GridSpec.node_positions()`` re-uses one
    sweep.  It keeps only an array that is read-only and owns its data, as
    ``node_positions()`` is, so an array changed in place is swept again.
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
        if latest is not None and latest[0] is positions:
            return latest[1]
        values = np.asarray(self._batch(positions), dtype=float)
        if not positions.flags.writeable and positions.flags.owndata:
            values.setflags(write=False)
            self._latest = (positions, values)
        return values


class ThresholdPredicate:
    """Feasibility predicate ``field <= bound`` (or >= for lower bounds) over
    (N, 3) positions, through the field's batch path; NaN field values compare
    False either way, so they are infeasible.  ``map`` gives the field's
    values and the flags from one sweep, ``batch`` the flags alone.  The
    bound may be +-inf but not NaN, which would flag every node False."""

    def __init__(self, field: ScalarField, bound: float, feasible_when: str = "below"):
        if feasible_when not in ("below", "above"):
            raise ValueError(f"feasible_when must be 'below' or 'above', got {feasible_when!r}")
        self.field = field
        self.bound = float(bound)
        if np.isnan(self.bound):
            raise ValueError("bound must not be NaN")
        self.feasible_when = feasible_when

    def map(self, positions: np.ndarray):
        values = self.field.batch(positions)
        with np.errstate(invalid="ignore"):
            flags = values <= self.bound if self.feasible_when == "below" else values >= self.bound
        return values, flags

    def batch(self, positions: np.ndarray) -> np.ndarray:
        return self.map(positions)[1]


# set in a thread while it runs an item of a parallel_map
_in_item = threading.local()


def parallel_map(work: Callable, items: Sequence) -> list:
    """``[work(item) for item in items]``, on every CPU the process may run on.

    On N CPUs the calling thread and N - 1 new threads pull item indices
    from one shared counter, so the caller takes a share.  It runs inline
    when there is one item or one CPU, and when it is called while an item
    of another ``parallel_map`` runs in the same thread (a thread-local
    flag), so nested loops keep one thread per CPU.  Results come back in
    input order whatever the CPU count.  Once an item raises, no further
    item starts, and the first exception in input order propagates.

    The package's one parallel loop: the kinematic transmission sweeps
    (``sweep_blocks``, and ``sweep_grid`` on a grid), the stiffness sweep,
    the deflection solve, the dynamics fields' per-row algebra and
    ``pareto_sweep``'s solves run on it.  Each thread's glibc arena keeps
    the peak of its items' temporaries after a loop, where no other thread
    reuses it, so the caller's share also saves one arena.
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
    threads = min(cpus, len(items))
    if threads <= 1 or getattr(_in_item, "active", False):
        return [work(item) for item in items]
    results = [None] * len(items)
    errors = {}
    indices = itertools.count()  # shared; each next() is atomic under the GIL

    def pull():
        _in_item.active = True
        try:
            for index in indices:
                if index >= len(items) or errors:
                    return
                try:
                    results[index] = work(items[index])
                except BaseException as exc:  # re-raised below, the first in input order
                    errors[index] = exc
        finally:
            _in_item.active = False

    helpers = [threading.Thread(target=pull) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    pull()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def sweep_blocks(n: int, work: Callable[[slice], None], block_rows: Optional[int] = None) -> None:
    """Calls ``work(rows)`` on ``parallel_map`` with a slice per block of
    ``block_rows`` (default ``SWEEP_BLOCK_ROWS``) of ``n`` rows; ``work``
    writes its rows' results in place, so no row's result depends on the
    blocking or the CPU count.  The stiffness and dynamics sweeps and the
    transmission sweeps over given positions run on it."""
    size = SWEEP_BLOCK_ROWS if block_rows is None else block_rows
    parallel_map(work, [slice(start, min(start + size, n)) for start in range(0, n, size)])


def sweep_grid(spec: GridSpec, work: Callable[[slice], None], block_rows: int) -> None:
    """Calls ``work(lines)`` on ``sweep_blocks`` for each block of whole
    k-lines, ``block_rows // dims[2]`` lines (at least one) a block.  Line
    ``i * dims[1] + j`` is nodes ``(i, j, :)``, so ``work`` writes rows
    ``lines.start * dims[2]`` to ``lines.stop * dims[2]`` in place; their
    positions come from ``spec._line_positions(lines)``."""
    sweep_blocks(spec.dims[0] * spec.dims[1], work, max(1, block_rows // spec.dims[2]))


def evaluate_mask(spec: GridSpec, predicate) -> FeasibilityMask:
    """Evaluate a node predicate over every grid node in one sweep.

    A predicate with a ``mask(spec)`` method returns the flags of the
    grid's nodes in C order without an (N, 3) positions array (the
    transmission predicates, in blocks of k-lines on ``sweep_grid``); any
    other predicate's ``batch`` method takes the (N, 3) node positions.  Either must return
    one flag per node; whatever it raises propagates.  A caller that also
    needs each node's value asks the predicate's ``map(positions)``, which
    gives the values and the flags from one sweep.
    """
    mask = getattr(predicate, "mask", None)
    flags = mask(spec) if mask is not None else predicate.batch(spec.node_positions())
    flags = np.asarray(flags, dtype=bool)
    count = spec.dims[0] * spec.dims[1] * spec.dims[2]
    if flags.shape != (count,):
        raise ValueError(f"predicate returned shape {flags.shape} for {count} nodes")
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
