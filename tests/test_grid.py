import time

import numpy as np
import pytest

from pkmforge.errors import DimensionMismatch, Infeasible, TooLarge
from pkmforge.grid import (
    CuboidResult,
    FeasibilityMask,
    GridSpec,
    ScalarField,
    ThresholdPredicate,
    brute_force_cuboid,
    evaluate_mask,
    largest_cuboid,
    load_mask,
    mask_from_csv,
    mask_to_csv,
    nested_cuboids,
    save_mask,
)


def make_spec(dims, resolution=4, proportions=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    return GridSpec(origin=origin, proportions=proportions, resolution=resolution, dims=dims)


class TestGridSpec:
    def test_node_positions_match_formula(self):
        spec = make_spec((3, 4, 5), resolution=8, proportions=(1.0, 2.0, 0.5), origin=(-1.0, 0.5, 0.25))
        positions = spec.node_positions().reshape(3, 4, 5, 3)
        for i in (0, 2):
            for j in (0, 3):
                for k in (0, 4):
                    expected = spec.origin + np.array([i, j, k]) * spec.steps
                    assert np.array_equal(positions[i, j, k], expected)
                    assert np.array_equal(spec.node_position((i, j, k)), expected)

    def test_steps_follow_proportions(self):
        spec = make_spec((4, 4, 4), resolution=10, proportions=(1.0, 1.0, 0.8))
        assert np.allclose(spec.steps, [0.1, 0.1, 0.08])

    def test_validation(self):
        with pytest.raises(ValueError):
            make_spec((1, 4, 4))
        with pytest.raises(ValueError):
            make_spec((4, 4, 4), resolution=0)
        with pytest.raises(ValueError):
            make_spec((4, 4, 4), proportions=(1.0, -1.0, 1.0))


class TestEvaluateMask:
    def test_constant_true(self):
        spec = make_spec((4, 4, 4))
        mask = evaluate_mask(spec, lambda p: True)
        assert mask.data.all()

    def test_sphere_predicate_matches_direct_check(self):
        spec = make_spec((9, 9, 9), resolution=8, origin=(-0.5, -0.5, -0.5))
        radius = 0.9 * spec.proportions[0]

        def predicate(p):
            return float(np.linalg.norm(p)) <= radius

        mask = evaluate_mask(spec, predicate)
        for (i, j, k), value in np.ndenumerate(mask.data):
            node = spec.node_position((i, j, k))
            assert value == (np.linalg.norm(node) <= radius)

    def test_predicate_failure_maps_to_false(self):
        spec = make_spec((3, 3, 3))

        def flaky(p):
            if p[0] == 0.0:
                raise Infeasible("boom")
            return True

        mask = evaluate_mask(spec, flaky)
        assert not mask.data[0].any()
        assert mask.data[1:].all()

    def test_per_node_programming_error_propagates(self):
        def broken(p):
            raise TypeError("deliberate")

        with pytest.raises(TypeError, match="deliberate"):
            evaluate_mask(make_spec((3, 3, 3)), broken)

    def test_batch_programming_error_propagates(self):
        class Broken:
            def __call__(self, p):
                return True

            def batch(self, positions):
                raise TypeError("deliberate")

        with pytest.raises(TypeError, match="deliberate"):
            evaluate_mask(make_spec((3, 3, 3)), Broken())

    def test_field_maps_only_numeric_failures_to_nan(self):
        def scalar(p):
            if p[0] < 0.0:
                raise Infeasible("out of reach")
            raise TypeError("deliberate")

        field = ScalarField(scalar)
        assert np.isnan(field(np.array([-1.0, 0.0, 0.0])))
        with pytest.raises(TypeError, match="deliberate"):
            field(np.array([1.0, 0.0, 0.0]))

    def test_misshapen_batch_result_is_rejected(self):
        class Misshapen:
            def __call__(self, p):
                return True

            def batch(self, positions):
                return np.ones((len(positions), 1), dtype=bool)

        with pytest.raises(ValueError, match="shape"):
            evaluate_mask(make_spec((3, 3, 3)), Misshapen())

    def test_kinematic_predicate_true_at_center(self):
        from pkmforge.kinematics import GeometryParams, transmission_predicate

        geometry = GeometryParams([1.0, 1.0, 1.0], [[-1.9, -0.1]] * 3)
        spec = make_spec((9, 9, 9), resolution=8, origin=(-0.5, -0.5, -0.5))
        mask = evaluate_mask(spec, transmission_predicate(geometry, cond_max=2.0))
        assert mask.data[4, 4, 4]  # the node sitting at the isotropic center

    def test_batch_path_matches_scalar_path(self):
        spec = make_spec((6, 5, 4), origin=(-0.4, -0.3, -0.2))
        field = ScalarField(
            lambda p: float(np.linalg.norm(p)),
            batch=lambda pts: np.linalg.norm(pts, axis=1),
        )
        predicate = ThresholdPredicate(field, 0.5, "below")
        batch_mask = evaluate_mask(spec, predicate)
        scalar_mask = evaluate_mask(spec, predicate.__call__)  # plain callable, no batch attr
        assert np.array_equal(batch_mask.data, scalar_mask.data)


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

    def test_reported_cube_is_true_and_maximal(self, rng):
        for _ in range(30):
            dims = rng.integers(3, 9, size=3)
            mask = FeasibilityMask(rng.random(dims) < 0.7)
            result = largest_cuboid(mask, make_spec(dims))
            if not result.found:
                assert not mask.data.any()
                continue
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

    def test_cart_extent_equals_mu_times_proportions(self):
        # exact binary arithmetic: origin, proportions and N0 are powers of two
        spec = make_spec((9, 9, 9), resolution=8, proportions=(1.0, 1.0, 0.5), origin=(-0.5, -0.5, -0.25))
        data = np.zeros((9, 9, 9), bool)
        data[1:7, 2:8, 0:6] = True
        result = largest_cuboid(FeasibilityMask(data), spec)
        assert result.node_edge == 6
        extents = result.cart_max - result.cart_min
        assert np.array_equal(extents, result.mu * spec.proportions)

    def test_monotone_mask_gives_monotone_edge(self, rng):
        for _ in range(20):
            dims = rng.integers(3, 10, size=3)
            small = rng.random(dims) < 0.4
            grown = small | (rng.random(dims) < 0.3)
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

    def test_matches_dp_on_fuzz(self, rng):
        for _ in range(200):
            dims = rng.integers(2, 13, size=3)
            density = rng.uniform(0.1, 0.9)
            mask = FeasibilityMask(rng.random(dims) < density)
            dp = largest_cuboid(mask, make_spec(dims)).node_edge
            assert dp == brute_force_cuboid(mask)


class TestNestedCuboids:
    def test_single_threshold_matches_composition(self):
        spec = make_spec((8, 8, 8), resolution=7, origin=(-0.5, -0.5, -0.5))
        field = ScalarField(lambda p: float(np.linalg.norm(p)))

        def family(threshold):
            return ThresholdPredicate(field, threshold, "below")

        results = nested_cuboids(spec, family, [0.4])
        direct = largest_cuboid(evaluate_mask(spec, family(0.4)), spec)
        assert results[0].node_edge == direct.node_edge
        assert results[0].index_min == direct.index_min

    def test_loosening_never_shrinks(self):
        spec = make_spec((9, 9, 9), resolution=8, origin=(-0.5, -0.5, -0.5))
        field = ScalarField(lambda p: float(np.linalg.norm(p)))

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

    def test_mask_csv_round_trip(self, tmp_path, rng):
        mask = FeasibilityMask(rng.random((4, 3, 5)) < 0.5)
        path = tmp_path / "mask.csv"
        mask_to_csv(path, mask)
        assert np.array_equal(mask_from_csv(path).data, mask.data)

    def test_cuboid_result_dict_round_trip(self):
        spec = make_spec((4, 4, 4))
        result = largest_cuboid(FeasibilityMask(np.ones((4, 4, 4), bool)), spec)
        restored = CuboidResult.from_dict(result.to_dict())
        assert restored.node_edge == result.node_edge
        assert restored.index_min == result.index_min
        assert np.allclose(restored.cart_min, result.cart_min)

    def test_empty_cuboid_serializes(self):
        result = largest_cuboid(FeasibilityMask(np.zeros((4, 4, 4), bool)), make_spec((4, 4, 4)))
        payload = result.to_dict()
        assert payload["found"] is False
        assert payload["index_min"] is None
        assert CuboidResult.from_dict(payload).found is False
