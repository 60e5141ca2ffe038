"""Workspace voxel grid, feasibility masks, and the largest inscribed
prescribed-proportion cuboid.

The grid uses uniform but per-axis-different steps ``(a/N0, b/N0, c/N0)``
derived from the prescribed cuboid proportions ``(a, b, c)`` and the
resolution ``N0``.  Because the steps inherit the proportions, the largest
cube in *index* space maps to the largest cuboid of proportions a x b x c in
Cartesian space; its scale factor is ``mu = (m - 1) / N0`` for a cube of
``m`` nodes per edge.

``largest_cuboid`` runs a single-pass dynamic program over the boolean mask:
a node's value is one plus the minimum over its seven lower-index neighbours
(the three faces, three edges and one corner predecessor), giving the edge
length of the largest all-true cube anchored at that node.  ``brute_force_
cuboid`` is the deliberately dumb oracle used to validate the DP.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, PkmforgeError, TooLarge

BRUTE_FORCE_DIM_GUARD = 16


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned node grid with steps tied to the cuboid proportions.

    origin       (3,) Cartesian position of node (0, 0, 0) [m]
    proportions  (3,) prescribed cuboid proportions (a, b, c) [m]
    resolution   N0; steps per axis are proportions / N0
    dims         (3,) node counts per axis, each >= 2
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

        The array is built once per spec and reused, so field-level batch
        caches keyed on array identity hit across repeated sweeps.
        """
        cached = getattr(self, "_positions", None)
        if cached is None:
            axes = [self.origin[a] + self.steps[a] * np.arange(self.dims[a]) for a in range(3)]
            xs, ys, zs = np.meshgrid(*axes, indexing="ij")
            cached = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
            cached.setflags(write=False)
            object.__setattr__(self, "_positions", cached)
        return cached


@dataclass(frozen=True)
class FeasibilityMask:
    """Boolean feasibility per grid node, indexed (i, j, k)."""

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


@dataclass(frozen=True)
class CuboidResult:
    """Largest inscribed prescribed-proportion cuboid found in a mask.

    node_edge is the cube edge in nodes (m); the scale factor is
    mu = (m - 1) / N0 and the Cartesian extents are mu * proportions.
    An all-false mask yields found=False, node_edge=0 and mu=0.
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
    """A per-node scalar metric with an optional vectorized batch path.

    Calling the field returns NaN where the scalar callable raises a
    PkmforgeError or LinAlgError (unreachable or failed nodes).  When a
    batch callable is supplied it must accept an (N, 3) position array and
    return (N,) values with NaN at infeasible rows.  Batch results are cached
    by array identity so threshold families re-use one sweep.
    """

    def __init__(self, scalar: Callable[[np.ndarray], float], batch=None):
        self._scalar = scalar
        self._batch = batch
        self._cache: list[tuple[int, np.ndarray, np.ndarray]] = []

    def __call__(self, position) -> float:
        try:
            return float(self._scalar(np.asarray(position, dtype=float)))
        except (PkmforgeError, np.linalg.LinAlgError):
            return float("nan")

    def batch(self, positions: np.ndarray) -> np.ndarray:
        for key, ref, values in self._cache:
            if key == id(positions) and ref is positions:
                return values
        if self._batch is not None:
            values = np.asarray(self._batch(positions), dtype=float)
        else:
            values = np.fromiter((self(p) for p in positions), dtype=float, count=len(positions))
        self._cache.append((id(positions), positions, values))
        if len(self._cache) > 4:
            self._cache.pop(0)
        return values


class ThresholdPredicate:
    """Feasibility predicate ``field(p) <= bound`` (or >= for lower bounds).

    NaN field values are infeasible.  Exposes a vectorized ``batch`` so mask
    evaluation can sweep whole grids at once.
    """

    def __init__(self, field: ScalarField, bound: float, feasible_when: str = "below"):
        if feasible_when not in ("below", "above"):
            raise ValueError(f"feasible_when must be 'below' or 'above', got {feasible_when!r}")
        self.field = field
        self.bound = float(bound)
        self.feasible_when = feasible_when

    def _compare(self, values):
        with np.errstate(invalid="ignore"):
            if self.feasible_when == "below":
                return values <= self.bound
            return values >= self.bound

    def __call__(self, position) -> bool:
        value = self.field(position)
        return bool(not np.isnan(value) and self._compare(value))

    def batch(self, positions: np.ndarray) -> np.ndarray:
        values = self.field.batch(positions)
        return np.where(np.isnan(values), False, self._compare(values))


def evaluate_mask(spec: GridSpec, predicate) -> FeasibilityMask:
    """Evaluate a node predicate over every grid node.

    A predicate with a vectorized ``batch`` method is swept through it
    alone, and must return one flag per node.  A plain callable is called
    per node, where a PkmforgeError or LinAlgError maps to False.
    """
    positions = spec.node_positions()
    batch = getattr(predicate, "batch", None)
    if batch is not None:
        flags = np.asarray(batch(positions), dtype=bool)
        if flags.shape != (positions.shape[0],):
            raise ValueError(f"predicate batch returned shape {flags.shape} for {positions.shape[0]} nodes")
        return FeasibilityMask(flags.reshape(spec.dims))
    flags = np.zeros(positions.shape[0], dtype=bool)
    for n, pos in enumerate(positions):
        try:
            flags[n] = bool(predicate(pos))
        except (PkmforgeError, np.linalg.LinAlgError):
            flags[n] = False
    return FeasibilityMask(flags.reshape(spec.dims))


def _cube_sizes(mask: FeasibilityMask) -> tuple[int, tuple[int, int, int]]:
    """Run the seven-predecessor DP; return (max edge, first argmax index).

    Boundary nodes (any index zero) take the raw mask value; interior nodes
    take 1 + min over the seven lower-index neighbours.  The argmax reported
    is the first maximum in C order, i.e. the lexicographically smallest
    anchor (i0, j0, k0).
    """
    data = mask.data
    ni, nj, nk = data.shape
    best = 0
    best_anchor = (0, 0, 0)
    phi_prev: Optional[np.ndarray] = None

    for i in range(ni):
        plane = data[i]
        if i == 0:
            phi = plane.astype(np.int32)
        else:
            # cap[j, k] = min over the four previous-plane predecessors
            cap = phi_prev.copy()
            cap[1:, :] = np.minimum(cap[1:, :], phi_prev[:-1, :])
            cap[:, 1:] = np.minimum(cap[:, 1:], cap[:, :-1].copy())
            phi = np.zeros((nj, nk), dtype=np.int32)
            phi[0, :] = plane[0, :]
            phi[:, 0] = plane[:, 0]
            cap_rows = cap.tolist()
            mask_rows = plane.tolist()
            phi_rows = phi.tolist()
            for j in range(1, nj):
                row = phi_rows[j]
                above = phi_rows[j - 1]
                caps = cap_rows[j]
                occupied = mask_rows[j]
                for k in range(1, nk):
                    if occupied[k]:
                        m = above[k]
                        v = above[k - 1]
                        if v < m:
                            m = v
                        v = row[k - 1]
                        if v < m:
                            m = v
                        v = caps[k]
                        if v < m:
                            m = v
                        row[k] = m + 1
            phi = np.asarray(phi_rows, dtype=np.int32)
        plane_best = int(phi.max()) if phi.size else 0
        if plane_best > best:
            flat = int(np.argmax(phi))
            best = plane_best
            best_anchor = (i, flat // nk, flat % nk)
        phi_prev = phi
    return best, best_anchor


def largest_cuboid(mask: FeasibilityMask, spec: GridSpec) -> CuboidResult:
    """Largest all-true index cube in the mask, as a Cartesian cuboid.

    Ties between equally large cubes break toward the lexicographically
    smallest anchor index.  Raises DimensionMismatch when mask and spec
    disagree on node counts.
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


def mask_to_csv(path, mask: FeasibilityMask) -> None:
    """Write the mask as (i, j, k, value) rows, C order."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["i", "j", "k", "value"])
        for (i, j, k), value in np.ndenumerate(mask.data):
            writer.writerow([i, j, k, int(value)])


def mask_from_csv(path) -> FeasibilityMask:
    rows = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header != ["i", "j", "k", "value"]:
            raise ValueError(f"unexpected mask CSV header: {header}")
        for row in reader:
            rows.append((int(row[0]), int(row[1]), int(row[2]), int(row[3])))
    dims = tuple(max(r[a] for r in rows) + 1 for a in range(3))
    data = np.zeros(dims, dtype=bool)
    for i, j, k, value in rows:
        data[i, j, k] = bool(value)
    return FeasibilityMask(data)
