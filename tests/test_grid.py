import itertools
import sys
import threading
import time
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import on_cpus
from pkmforge.errors import DimensionMismatch, Infeasible, TooLarge
from pkmforge.grid import (
    CuboidResult,
    FeasibilityMask,
    GridSpec,
    ScalarField,
    ThresholdPredicate,
    _grow,
    _ValueSemantics,
    brute_force_cuboid,
    evaluate_mask,
    largest_cuboid,
    load_mask,
    nested_cuboids,
    parallel_map,
    save_mask,
    sweep_grid,
)


def make_spec(dims, resolution=4, proportions=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    return GridSpec(origin=origin, proportions=proportions, resolution=resolution, dims=dims)


def batch_predicate(flags):
    """A grid predicate whose batch test is ``flags(positions)``."""
    return SimpleNamespace(batch=flags)


def norm_field():
    return ScalarField(lambda p: float(np.linalg.norm(p)), lambda pts: np.linalg.norm(pts, axis=1))


def random_masks(low, high):
    """Masks with each of the three dims in [low, high] and each node true
    with a drawn probability."""
    return st.builds(
        lambda dims, density, seed: np.random.default_rng(seed).random(dims) < density,
        st.tuples(*[st.integers(low, high)] * 3),
        st.floats(0.1, 0.95),
        st.integers(0, 2**32 - 1),
    )


def true_block(dims, edge):
    """An all-false mask but for one all-true cube of ``edge`` at ``(1, 1, 1)``."""
    data = np.zeros(dims, bool)
    data[1 : 1 + edge, 1 : 1 + edge, 1 : 1 + edge] = True
    return data


def at_doubling_boundaries(test):
    """Masks whose largest edge sits where the search stops doubling: a power
    of two filling the mask, a block one short of and one past a power of
    two, and a mask two nodes thick."""
    for data in (
        np.ones((4, 4, 4), bool),
        np.ones((8, 8, 8), bool),
        true_block((12, 12, 12), 7),
        true_block((12, 12, 12), 9),
        np.ones((2, 12, 12), bool),
    ):
        test = example(data)(test)
    return test


def window_flags(data, edge):
    """Per lower corner, whether the cube of ``edge`` nodes there is all true,
    by a direct ``.all()`` over each window."""
    shape = tuple(n - edge + 1 for n in data.shape)
    flags = np.zeros(shape, bool)
    for i, j, k in np.ndindex(*shape):
        flags[i, j, k] = data[i : i + edge, j : j + edge, k : k + edge].all()
    return flags


@st.composite
def grow_cases(draw):
    """(data, m, n) with 1 <= m <= n <= 2m and n no longer than any axis."""
    dims = draw(st.tuples(*[st.integers(1, 9)] * 3))
    n = draw(st.integers(1, min(dims)))
    m = draw(st.integers((n + 1) // 2, n))
    density = draw(st.floats(0.3, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random(dims) < density, m, n


def value_cases():
    """(value, an equal value built from other inputs, values differing in one
    field) for each spec and model class that compares by value."""
    from pkmforge.dynamics import DynamicSpec, InertiaModel
    from pkmforge.kinematics import GeometryParams, KinematicSample
    from pkmforge.stiffness import CrossSection, OrthoglideStiffnessModel

    limits = [[-1.9, -0.1]] * 3
    geometry = GeometryParams([1.0, 1.2, 0.9], limits)
    section = CrossSection(width=0.025, height=0.025, elastic_modulus=7e10, shear_modulus=2.6e10)
    model = OrthoglideStiffnessModel(geometry, 1e6, section, 0.1, section)
    jac = np.arange(9.0).reshape(3, 3)
    mask = np.arange(8).reshape(2, 2, 2) % 3 == 0
    return [
        (
            geometry,
            GeometryParams(np.array([1, 1.2, 0.9]), np.array(limits), [-1, -1, -1]),
            [GeometryParams([1.0, 1.2, 1.0], limits), GeometryParams([1.0, 1.2, 0.9], limits, (-1, 1, -1))],
        ),
        (
            KinematicSample(jac, 2.0, 0.5, 1.0),
            KinematicSample(jac.copy(), 2, 0.5, 1),
            [KinematicSample(jac.T, 2.0, 0.5, 1.0), KinematicSample(jac, 2.0, 0.5, 1.5)],
        ),
        (
            InertiaModel([1.0, 2.0, 3.0], 0.5),
            InertiaModel(np.array([1, 2, 3]), 0.5),
            [InertiaModel([1.0, 2.0, 4.0], 0.5), InertiaModel([1.0, 2.0, 3.0], 0.25)],
        ),
        (
            DynamicSpec(10.0, 5.0, [1.0, 2.0, 3.0]),
            DynamicSpec(10, 5, np.array([1, 2, 3]), "ball"),
            [DynamicSpec(10.0, 5.0, [1.0, 2.0, 3.5]), DynamicSpec(10.0, 5.0, [1.0, 2.0, 3.0], "max")],
        ),
        (
            FeasibilityMask(mask),
            FeasibilityMask(mask.astype(int).tolist()),
            [FeasibilityMask(~mask), FeasibilityMask(mask.reshape(2, 4, 1))],
        ),
        (
            model,
            OrthoglideStiffnessModel(GeometryParams([1, 1.2, 0.9], limits), 1e6, replace(section), 0.1, section),
            [replace(model, geometry=GeometryParams([1.0, 1.0, 0.9], limits)), replace(model, foot_length=0.2)],
        ),
    ]


class TestGridSpec:
    def test_node_positions_match_formula(self):
        spec = make_spec((3, 4, 5), resolution=8, proportions=(1.0, 2.0, 0.5), origin=(-1.0, 0.5, 0.25))
        positions = spec.node_positions()
        assert spec.node_positions() is positions  # field caches key on this identity
        assert not positions.flags.writeable
        with pytest.raises(ValueError):
            positions[0, 0] = 1.0
        positions = positions.reshape(3, 4, 5, 3)
        for i in (0, 2):
            for j in (0, 3):
                for k in (0, 4):
                    expected = spec.origin + np.array([i, j, k]) * spec.steps
                    assert np.array_equal(positions[i, j, k], expected)
                    assert np.array_equal(spec.node_position((i, j, k)), expected)

    def test_steps_follow_proportions(self):
        spec = make_spec((4, 4, 4), resolution=10, proportions=(1.0, 1.0, 0.8))
        assert np.allclose(spec.steps, [0.1, 0.1, 0.08])

    def test_equal_specs_compare_and_hash_equal(self):
        a = make_spec((3, 4, 5), resolution=8, proportions=(1.0, 2.0, 0.5), origin=(-1.0, 0.5, 0.25))
        b = make_spec([3, 4, 5], resolution=8, proportions=[1, 2, 0.5], origin=np.array([-1.0, 0.5, 0.25]))
        a.node_positions()  # the position cache takes no part in equality
        for value, same, _ in [(a, b, ()), *value_cases()]:
            assert value == same
            assert hash(value) == hash(same)
            assert len({value, same}) == 1

    def test_specs_differing_in_one_value_are_unequal(self):
        base = make_spec((3, 4, 5))
        assert base != make_spec((3, 4, 6))
        assert base != make_spec((3, 4, 5), resolution=5)
        assert base != make_spec((3, 4, 5), proportions=(1.0, 1.0, 0.5))
        assert base != make_spec((3, 4, 5), origin=(0.0, 0.0, 0.1))
        assert base != (base.origin, base.proportions, base.resolution, base.dims)
        for value, _, others in value_cases():
            for other in others:
                assert value != other
            assert value != tuple(getattr(value, f.name) for f in fields(value))

    def test_matrix_fields_key_on_shape_and_values(self):
        @dataclass(frozen=True, eq=False)
        class Holder(_ValueSemantics):
            value: np.ndarray

        square = Holder(np.arange(6.0).reshape(2, 3))
        assert square == Holder(np.arange(6.0).reshape(2, 3))
        assert hash(square) == hash(Holder(np.arange(6.0).reshape(2, 3)))
        assert square != Holder(np.arange(6.0).reshape(3, 2))
        assert square != Holder(np.arange(6.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_spec((1, 4, 4))
        with pytest.raises(ValueError):
            make_spec((4, 4, 4), resolution=0)
        with pytest.raises(ValueError):
            make_spec((4, 4, 4), proportions=(1.0, -1.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["origin", "proportions"])
    def test_non_finite_vectors_are_rejected(self, field, bad):
        # NaN and +inf pass the positivity test, and a non-finite origin
        # every other check; such a grid would read as "no workspace"
        vector = [1.0, 1.0, 1.0]
        vector[1] = bad
        with pytest.raises(ValueError, match="finite"):
            make_spec((4, 4, 4), **{field: vector})


class TestSweepGrid:
    """``sweep_grid`` splits a grid's k-lines into blocks, and
    ``GridSpec._line_positions`` fills a block's positions from the axes."""

    @settings(database=None, derandomize=True, deadline=None, max_examples=80)
    @given(
        dims=st.tuples(*[st.integers(2, 40)] * 3),
        origin=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
        proportions=st.tuples(*[st.floats(0.01, 10.0)] * 3),
        resolution=st.integers(1, 64),
        block_rows=st.integers(1, 5000),
    )
    # a block smaller than one k-line, so each block is one whole line
    @example(dims=(3, 4, 40), origin=(-0.5, 0.25, 1.0), proportions=(1.0, 0.7, 0.3), resolution=7, block_rows=39)
    # 35 lines in blocks of 2, so the last block holds one line
    @example(dims=(5, 7, 9), origin=(0.1, -0.2, 0.3), proportions=(0.9, 1.1, 1.3), resolution=8, block_rows=20)
    def test_block_positions_equal_node_positions(self, dims, origin, proportions, resolution, block_rows):
        spec = make_spec(dims, resolution=resolution, proportions=proportions, origin=origin)
        blocks = []
        sweep_grid(spec, blocks.append, block_rows)
        # the blocks of k-lines partition the grid's nodes in C order
        blocks.sort(key=lambda lines: lines.start)
        starts = [lines.start * dims[2] for lines in blocks]
        stops = [lines.stop * dims[2] for lines in blocks]
        assert starts == [0] + stops[:-1] and stops[-1] == dims[0] * dims[1] * dims[2]
        lines = max(1, block_rows // dims[2]) * dims[2]
        assert all(stop - start == lines for start, stop in zip(starts[:-1], stops[:-1]))
        assert 0 < stops[-1] - starts[-1] <= lines
        # each block's positions, filled from the axes, are its nodes' bit for bit
        filled = [spec._line_positions(lines) for lines in blocks]
        assert "_node_positions" not in vars(spec)
        nodes = spec.node_positions()
        for start, stop, positions in zip(starts, stops, filled):
            assert positions.T.flags.c_contiguous
            assert positions.shape == (stop - start, 3)
            assert positions.tobytes() == nodes[start:stop].tobytes()


class TestParallelMap:
    def test_each_item_runs_once_and_results_keep_input_order(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter allows
        on_cpus(monkeypatch, 8)
        runs = []

        def item(x):
            runs.append(x)
            return x * x

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.perf_counter()
            results = parallel_map(item, list(range(500)))
        finally:
            sys.setswitchinterval(interval)
        assert time.perf_counter() - started < 60.0
        assert results == [x * x for x in range(500)]
        assert sorted(runs) == list(range(500))

    @staticmethod
    def thread_of_concurrent_items():
        """An item function that returns its thread once two items run at once."""
        barrier = threading.Barrier(2, timeout=30)

        def item(_):
            barrier.wait()
            return threading.current_thread()

        return item

    def test_the_caller_takes_a_share(self, monkeypatch):
        on_cpus(monkeypatch, 2)
        threads = parallel_map(self.thread_of_concurrent_items(), [0, 1])
        assert threading.main_thread() in threads and len(set(threads)) == 2

    def test_first_exception_in_input_order_propagates(self, monkeypatch):
        on_cpus(monkeypatch, 2)
        started = []

        def item(x):
            started.append(x)
            if x == 2:
                time.sleep(0.05)
                raise ValueError("item 2")
            if x == 5:
                raise TypeError("item 5")
            return x

        with pytest.raises(ValueError, match="item 2"):
            parallel_map(item, list(range(40)))
        assert set(range(6)) <= set(started) and len(started) < 40  # no item starts after a failure

    def test_a_call_inside_an_item_runs_inline(self, monkeypatch):
        on_cpus(monkeypatch, 2)

        def item(_):
            inner = parallel_map(lambda _: threading.current_thread(), list(range(8)))
            return threading.current_thread(), set(inner)

        for outer, inner in parallel_map(item, list(range(4))):
            assert inner == {outer}
        # the caller's flag is cleared once its items have run
        assert len(set(parallel_map(self.thread_of_concurrent_items(), [0, 1]))) == 2


class TestEvaluateMask:
    def test_constant_true(self):
        spec = make_spec((4, 4, 4))
        mask = evaluate_mask(spec, batch_predicate(lambda pts: np.ones(len(pts), dtype=bool)))
        assert mask.data.all()

    def test_sphere_predicate_matches_direct_check(self):
        spec = make_spec((9, 9, 9), resolution=8, origin=(-0.5, -0.5, -0.5))
        radius = 0.9 * spec.proportions[0]

        mask = evaluate_mask(spec, batch_predicate(lambda pts: np.linalg.norm(pts, axis=1) <= radius))
        for (i, j, k), value in np.ndenumerate(mask.data):
            node = spec.node_position((i, j, k))
            assert value == (np.linalg.norm(node) <= radius)

    def test_predicate_failure_maps_to_false(self):
        spec = make_spec((3, 3, 3))
        # a field is NaN where its node failed, here the x = 0 plane
        field = ScalarField(lambda p: 0.0, lambda pts: np.where(pts[:, 0] == 0.0, np.nan, 0.0))
        for feasible_when in ("below", "above"):
            mask = evaluate_mask(spec, ThresholdPredicate(field, 0.0, feasible_when))
            assert not mask.data[0].any()
            assert mask.data[1:].all()

    @pytest.mark.parametrize("bound", [0.5, 0.0, np.inf, -np.inf])
    @pytest.mark.parametrize("feasible_when", ["below", "above"])
    def test_threshold_flags_match_nan_masked_comparison(self, feasible_when, bound):
        values = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 0.5, 1.0, -1.0, bound])
        values = np.concatenate([values, np.nextafter(bound, [-np.inf, np.inf])])
        field = ScalarField(lambda p: 0.0, lambda pts: values)
        flags = ThresholdPredicate(field, bound, feasible_when).batch(np.zeros((values.size, 3)))
        compare = np.less_equal if feasible_when == "below" else np.greater_equal
        with np.errstate(invalid="ignore"):
            expected = np.where(np.isnan(values), False, compare(values, bound))
        assert flags.dtype == bool
        assert np.array_equal(flags, expected)

    def test_plain_callable_is_rejected(self):
        calls = []

        def per_node(p):
            calls.append(p)
            return True

        with pytest.raises(AttributeError, match="batch"):
            evaluate_mask(make_spec((3, 3, 3)), per_node)
        assert not calls

    def test_batch_programming_error_propagates(self):
        def broken(positions):
            raise TypeError("deliberate")

        with pytest.raises(TypeError, match="deliberate"):
            evaluate_mask(make_spec((3, 3, 3)), batch_predicate(broken))

    def test_field_maps_only_numeric_failures_to_nan(self):
        def scalar(p):
            if p[0] < 0.0:
                raise Infeasible("out of reach")
            raise TypeError("deliberate")

        field = ScalarField(scalar, lambda pts: np.zeros(len(pts)))
        assert np.isnan(field(np.array([-1.0, 0.0, 0.0])))
        with pytest.raises(TypeError, match="deliberate"):
            field(np.array([1.0, 0.0, 0.0]))

    def test_misshapen_batch_result_is_rejected(self):
        misshapen = batch_predicate(lambda pts: np.ones((len(pts), 1), dtype=bool))
        with pytest.raises(ValueError, match="shape"):
            evaluate_mask(make_spec((3, 3, 3)), misshapen)

    def test_kinematic_predicate_true_at_center(self):
        from pkmforge.kinematics import GeometryParams, transmission_predicate

        geometry = GeometryParams([1.0, 1.0, 1.0], [[-1.9, -0.1]] * 3)
        spec = make_spec((9, 9, 9), resolution=8, origin=(-0.5, -0.5, -0.5))
        mask = evaluate_mask(spec, transmission_predicate(geometry, cond_max=2.0))
        assert mask.data[4, 4, 4]  # the node sitting at the isotropic center

    def test_batch_path_matches_scalar_path(self):
        spec = make_spec((6, 5, 4), origin=(-0.4, -0.3, -0.2))
        field = norm_field()
        batch_mask = evaluate_mask(spec, ThresholdPredicate(field, 0.5, "below"))
        scalar_flags = [field(p) <= 0.5 for p in spec.node_positions()]  # the per-pose view
        assert np.array_equal(batch_mask.data.ravel(), scalar_flags)


class TestLargestCuboid:
    def test_all_true(self):
        spec = make_spec((4, 4, 4))
        result = largest_cuboid(FeasibilityMask(np.ones((4, 4, 4), bool)), spec)
        assert result.found
        assert result.node_edge == 4
        assert result.index_min == (0, 0, 0)
        assert result.index_max == (3, 3, 3)
        assert result.mu == pytest.approx(3 / 4)

    def test_single_true_node(self):
        data = np.zeros((4, 4, 4), bool)
        data[2, 1, 3] = True
        result = largest_cuboid(FeasibilityMask(data), make_spec((4, 4, 4)))
        assert result.found
        assert result.node_edge == 1
        assert result.mu == 0.0
        assert result.index_min == result.index_max == (2, 1, 3)

    def test_all_false(self):
        result = largest_cuboid(FeasibilityMask(np.zeros((4, 4, 4), bool)), make_spec((4, 4, 4)))
        assert not result.found
        assert result.node_edge == 0
        assert result.mu == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            largest_cuboid(FeasibilityMask(np.ones((3, 3, 3), bool)), make_spec((4, 4, 4)))

    @settings(database=None, derandomize=True, deadline=None, max_examples=30)
    @given(random_masks(3, 8))
    @at_doubling_boundaries
    def test_reported_cube_is_true_and_maximal(self, data):
        mask = FeasibilityMask(data)
        result = largest_cuboid(mask, make_spec(mask.dims))
        if not result.found:
            assert not mask.data.any()
            return
        lo, hi = result.index_min, result.index_max
        assert mask.data[lo[0] : hi[0] + 1, lo[1] : hi[1] + 1, lo[2] : hi[2] + 1].all()
        assert brute_force_cuboid(mask) == result.node_edge

    def test_tie_break_lexicographic(self):
        data = np.zeros((3, 3, 3), bool)
        data[2, 2, 2] = True
        data[0, 1, 0] = True
        data[0, 0, 1] = True
        result = largest_cuboid(FeasibilityMask(data), make_spec((3, 3, 3)))
        # all candidates have edge 1; anchor must be the C-order first true node
        assert result.index_max == (0, 0, 1)

    @settings(database=None, derandomize=True, deadline=None, max_examples=200)
    @given(
        st.tuples(*[st.integers(2, 12)] * 3),
        st.floats(0.1, 0.95),
        st.integers(0, 2**32 - 1),
    )
    def test_anchor_is_first_upper_corner_of_oracle_edge(self, dims, density, seed):
        # the reported cube has the brute-force edge, is all true, and is
        # anchored at the C-order first upper corner of such a cube
        mask = FeasibilityMask(np.random.default_rng(seed).random(dims) < density)
        edge = brute_force_cuboid(mask)
        result = largest_cuboid(mask, make_spec(dims))
        assert result.node_edge == edge
        if edge == 0:
            assert result.index_max is None
            return
        d = edge - 1
        lo, hi = result.index_min, result.index_max
        assert lo == tuple(i - d for i in hi)
        assert mask.data[lo[0] : hi[0] + 1, lo[1] : hi[1] + 1, lo[2] : hi[2] + 1].all()
        first = next(
            (i, j, k)
            for i, j, k in itertools.product(*(range(d, n) for n in dims))
            if mask.data[i - d : i + 1, j - d : j + 1, k - d : k + 1].all()
        )
        assert result.index_max == first

    @settings(database=None, derandomize=True, deadline=None)
    @given(grow_cases())
    @example((np.ones((6, 7, 8), bool), 3, 6))  # n = 2m
    @example((np.random.default_rng(1).random((5, 4, 6)) < 0.9, 2, 4))  # n = 2m, one axis of length n
    @example((np.random.default_rng(2).random((7, 9, 5)) < 0.9, 3, 5))  # one axis of length n
    def test_grow_matches_window_all(self, case):
        data, m, n = case
        assert np.array_equal(_grow(window_flags(data, m), n - m), window_flags(data, n))

    def test_cart_extent_equals_mu_times_proportions(self):
        # exact binary arithmetic: origin, proportions and N0 are powers of two
        spec = make_spec((9, 9, 9), resolution=8, proportions=(1.0, 1.0, 0.5), origin=(-0.5, -0.5, -0.25))
        data = np.zeros((9, 9, 9), bool)
        data[1:7, 2:8, 0:6] = True
        result = largest_cuboid(FeasibilityMask(data), spec)
        assert result.node_edge == 6
        extents = result.cart_max - result.cart_min
        assert np.array_equal(extents, result.mu * spec.proportions)

    @settings(database=None, derandomize=True, deadline=None)
    @given(
        st.tuples(*[st.integers(2, 12)] * 3),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_monotone_mask_gives_monotone_edge(self, dims, density, added, seed):
        rng = np.random.default_rng(seed)
        small = rng.random(dims) < density
        grown = small | (rng.random(dims) < added)
        edge_small = largest_cuboid(FeasibilityMask(small), make_spec(dims)).node_edge
        edge_grown = largest_cuboid(FeasibilityMask(grown), make_spec(dims)).node_edge
        assert edge_small <= edge_grown


class TestBruteForce:
    def test_all_true(self):
        assert brute_force_cuboid(FeasibilityMask(np.ones((3, 3, 3), bool))) == 3

    def test_all_false(self):
        assert brute_force_cuboid(FeasibilityMask(np.zeros((3, 3, 3), bool))) == 0

    def test_guard(self):
        with pytest.raises(TooLarge):
            brute_force_cuboid(FeasibilityMask(np.ones((17, 4, 4), bool)))

    @settings(database=None, derandomize=True, deadline=None, max_examples=200)
    @given(random_masks(2, 12))
    @at_doubling_boundaries
    def test_matches_dp_on_fuzz(self, data):
        mask = FeasibilityMask(data)
        assert largest_cuboid(mask, make_spec(mask.dims)).node_edge == brute_force_cuboid(mask)


class TestNestedCuboids:
    def test_single_threshold_matches_composition(self):
        spec = make_spec((8, 8, 8), resolution=7, origin=(-0.5, -0.5, -0.5))
        field = norm_field()

        def family(threshold):
            return ThresholdPredicate(field, threshold, "below")

        results = nested_cuboids(spec, family, [0.4])
        direct = largest_cuboid(evaluate_mask(spec, family(0.4)), spec)
        assert results[0].node_edge == direct.node_edge
        assert results[0].index_min == direct.index_min

    def test_loosening_never_shrinks(self):
        spec = make_spec((9, 9, 9), resolution=8, origin=(-0.5, -0.5, -0.5))
        field = norm_field()

        def family(threshold):
            return ThresholdPredicate(field, threshold, "below")

        results = nested_cuboids(spec, family, [0.1, 0.25, 0.4, 0.6, 0.9])
        edges = [r.node_edge for r in results]
        assert edges == sorted(edges)

    def test_shared_field_evaluates_batch_once(self):
        spec = make_spec((6, 6, 6))
        calls = {"batch": 0}

        def batch(points):
            calls["batch"] += 1
            return np.linalg.norm(points, axis=1)

        field = ScalarField(lambda p: float(np.linalg.norm(p)), batch=batch)

        def family(threshold):
            return ThresholdPredicate(field, threshold, "below")

        nested_cuboids(spec, family, [0.2, 0.4, 0.6])
        assert calls["batch"] == 1


class TestScalarField:
    def test_keeps_only_sweeps_of_read_only_arrays_that_own_their_data(self):
        calls = []

        def batch(points):
            calls.append(1)
            return points.sum(axis=1)

        field = ScalarField(lambda p: 0.0, batch)
        points = np.arange(12.0).reshape(4, 3)
        assert field.batch(points).tolist() == [3.0, 12.0, 21.0, 30.0]
        points[:] = -points  # changed in place: the same array, new values
        assert field.batch(points).tolist() == [-3.0, -12.0, -21.0, -30.0]
        view = points[:]
        view.setflags(write=False)  # read-only, but its owner stays writable
        field.batch(view)
        points[0] = 1.0
        assert field.batch(view)[0] == 3.0
        assert len(calls) == 4
        nodes = make_spec((3, 3, 3)).node_positions()
        assert field.batch(nodes) is field.batch(nodes)
        assert len(calls) == 5

    def test_kept_values_cannot_be_written_through_a_returned_map(self):
        field = ScalarField(lambda p: 0.0, lambda points: np.linalg.norm(points, axis=1))
        nodes = make_spec((3, 3, 3)).node_positions()
        values, flags = ThresholdPredicate(field, 0.5).map(nodes)
        assert 0 < flags.sum() < flags.size
        for returned in (values, field.batch(nodes)):
            with pytest.raises(ValueError, match="read-only"):
                returned[:] = 0.0
        assert ThresholdPredicate(field, 0.5).batch(nodes).tolist() == flags.tolist()


class TestRuntimeScaling:
    def test_dp_runtime_roughly_linear_in_nodes(self):
        # soft check: 8x the nodes should cost well under 8x^2 the time
        small = FeasibilityMask(np.ones((48, 48, 48), bool))
        large = FeasibilityMask(np.ones((96, 96, 96), bool))
        spec_small = make_spec((48, 48, 48))
        spec_large = make_spec((96, 96, 96))
        largest_cuboid(small, spec_small)  # warm up
        t0 = time.perf_counter()
        largest_cuboid(small, spec_small)
        t_small = time.perf_counter() - t0
        t0 = time.perf_counter()
        largest_cuboid(large, spec_large)
        t_large = time.perf_counter() - t0
        assert t_large <= 30.0 * t_small + 0.2


class TestSerialization:
    def test_mask_npz_round_trip(self, tmp_path, rng):
        mask = FeasibilityMask(rng.random((5, 7, 3)) < 0.5)
        path = tmp_path / "mask.npz"
        save_mask(path, mask)
        assert np.array_equal(load_mask(path).data, mask.data)

    def test_cuboid_result_dict_round_trip(self):
        spec = make_spec((4, 4, 4))
        result = largest_cuboid(FeasibilityMask(np.ones((4, 4, 4), bool)), spec)
        restored = CuboidResult.from_dict(result.to_dict())
        assert restored.node_edge == result.node_edge
        assert restored.index_min == result.index_min
        assert np.allclose(restored.cart_min, result.cart_min)

    def test_cuboid_results_compare_by_value(self, rng):
        spec = make_spec((5, 5, 5))
        data = rng.random((5, 5, 5)) < 0.7
        result = largest_cuboid(FeasibilityMask(data), spec)
        again = largest_cuboid(FeasibilityMask(data.copy()), spec)
        assert result == again
        assert hash(result) == hash(again)
        assert CuboidResult.from_dict(result.to_dict()) == result
        assert result != largest_cuboid(FeasibilityMask(np.ones((5, 5, 5), bool)), spec)
        assert replace(result, cart_min=result.cart_min + 1.0) != result
        empty = largest_cuboid(FeasibilityMask(np.zeros((5, 5, 5), bool)), spec)
        assert empty == CuboidResult(found=False, node_edge=0, mu=0.0)
        assert hash(empty) == hash(CuboidResult(found=False, node_edge=0, mu=0.0))

    def test_empty_cuboid_serializes(self):
        result = largest_cuboid(FeasibilityMask(np.zeros((4, 4, 4), bool)), make_spec((4, 4, 4)))
        payload = result.to_dict()
        assert payload["found"] is False
        assert payload["index_min"] is None
        assert CuboidResult.from_dict(payload).found is False
