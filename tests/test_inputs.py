"""Every model input refuses NaN and +-inf, and zero and negative values
where it must be positive, with a ValueError that names the field.

NaN passes a bare ``<= 0.0`` or ``< 0.0`` test and +-inf passes any sign
test; such a value would otherwise read as an empty or a full workspace.
"""

import numpy as np
import pytest

from pkmforge.dynamics import DynamicSpec, InertiaModel, acceleration_field
from pkmforge.grid import GridSpec, ScalarField, ThresholdPredicate
from pkmforge.kinematics import (
    GeometryParams,
    forward_kinematics,
    inverse_kinematics,
    kinematic_sample,
    leg_residuals,
    rate_matrix,
    transmission_predicate,
)
from pkmforge.optimize import GoalProblem, Objective, orthoglide_geometry_problem
from pkmforge.stiffness import (
    CartesianStiffness,
    ChainModel,
    CrossSection,
    OrthoglideStiffnessModel,
    StiffnessSpec,
    beam_spring,
    cross_section_sweep,
    deflection,
    deflection_field,
    scale_cross_section,
    translational_deflection,
)

GEOMETRY = GeometryParams(leg_lengths=[1.0, 1.0, 1.0], joint_limits=[[-1.9, -0.1]] * 3)
SECTION = {"width": 0.025, "height": 0.025, "elastic_modulus": 7e10, "shear_modulus": 2.6e10}
INERTIA = InertiaModel(joint_masses=[15.0, 15.0, 15.0], tcp_mass=3.0)
POSE = np.array([0.1, 0.2, 0.3])
DRIVES = inverse_kinematics(POSE, GEOMETRY)
LOAD = np.array([0.0, 200.0, 0.0, 0.0, 0.0, 60.0])


def put(base, index, value) -> np.ndarray:
    """A float copy of ``base`` with the entry at ``index`` set to ``value``."""
    array = np.array(base, dtype=float)
    array[index] = value
    return array


def grid(**changes):
    args = {"origin": [-0.5] * 3, "proportions": [1.0] * 3, "resolution": 4, "dims": (3, 3, 3)}
    return GridSpec(**{**args, **changes})


def geometry(**changes):
    args = {"leg_lengths": [1.0] * 3, "joint_limits": [[-1.9, -0.1]] * 3, "assembly_signs": [-1.0] * 3}
    return GeometryParams(**{**args, **changes})


def section(**changes):
    return CrossSection(**{**SECTION, **changes})


def stiffness_model(**changes):
    args = {
        "geometry": GEOMETRY,
        "actuator_stiffness": 1e8,
        "foot_section": section(),
        "foot_length": 0.15,
        "parallelogram_section": section(),
    }
    return OrthoglideStiffnessModel(**{**args, **changes})


def chain(**changes):
    args = {"j_virtual": np.eye(6), "j_passive": np.eye(6)[:, :1], "k_virtual": np.eye(6)}
    return ChainModel(**{**args, **changes})


def dynamic_spec(**changes):
    args = {"inertia_bound": 40.0, "min_acceleration": 10.0, "torque_limits": [250.0] * 3}
    return DynamicSpec(**{**args, **changes})


def goal_problem(goal=0.0, weight=1.0, upper=3.0):
    objective = Objective(lambda x: float(x[0] ** 2), goal=goal, weight=weight)
    return GoalProblem((objective,), (), [[-3.0, upper]])


# every entry point that takes a load, as build(load)
LOAD_SITES = {
    "StiffnessSpec": lambda f: StiffnessSpec(load=f, deflection_limit=1e-4),
    "deflection": lambda f: deflection(CartesianStiffness(np.eye(6)), f),
    "deflection_field": lambda f: deflection_field(stiffness_model(), f),
    "batch_deflection": lambda f: stiffness_model().batch_deflection(POSE[None], f),
    "translational_deflection": lambda f: translational_deflection(np.ones(1, dtype=bool), np.eye(6)[None], f),
    "cross_section_sweep": lambda f: cross_section_sweep(stiffness_model(), POSE, f, [1.0]),
}

# (field, must be positive, a sane value, build(value))
SITES = [
    ("origin", False, -0.5, lambda v: grid(origin=put([-0.5] * 3, 1, v))),
    ("proportions", True, 1.0, lambda v: grid(proportions=put([1.0] * 3, 1, v))),
    ("leg_lengths", True, 1.0, lambda v: geometry(leg_lengths=put([1.0] * 3, 2, v))),
    ("joint_limits", False, -0.1, lambda v: geometry(joint_limits=put([[-1.9, -0.1]] * 3, (0, 1), v))),
    ("assembly_signs", False, -1.0, lambda v: geometry(assembly_signs=put([-1.0] * 3, 0, v))),
    ("p", False, 0.1, lambda v: leg_residuals(put(POSE, 0, v), DRIVES, GEOMETRY)),
    ("rho", False, DRIVES[1], lambda v: leg_residuals(POSE, put(DRIVES, 1, v), GEOMETRY)),
    ("p", False, 0.1, lambda v: inverse_kinematics(put(POSE, 0, v), GEOMETRY)),
    ("rho", False, DRIVES[2], lambda v: forward_kinematics(put(DRIVES, 2, v), GEOMETRY, POSE)),
    ("p_init", False, 0.1, lambda v: forward_kinematics(DRIVES, GEOMETRY, put(POSE, 0, v))),
    ("p", False, 0.2, lambda v: rate_matrix(put(POSE, 1, v), DRIVES)),
    ("rho", False, DRIVES[0], lambda v: rate_matrix(POSE, put(DRIVES, 0, v))),
    ("p", False, 0.3, lambda v: kinematic_sample(put(POSE, 2, v), GEOMETRY)),
    ("cond_max", True, 3.0, lambda v: transmission_predicate(GEOMETRY, cond_max=v)),
    *(
        (name, True, SECTION[name], lambda v, name=name: section(**{name: v}))
        for name in ("width", "height", "elastic_modulus", "shear_modulus")
    ),
    ("deflection_limit", True, 1e-4, lambda v: StiffnessSpec(load=np.zeros(6), deflection_limit=v)),
    ("load", False, 200.0, lambda v: StiffnessSpec(load=put(np.zeros(6), 1, v), deflection_limit=1e-4)),
    ("actuator_stiffness", True, 1e8, lambda v: stiffness_model(actuator_stiffness=v)),
    ("foot_length", True, 0.15, lambda v: stiffness_model(foot_length=v)),
    ("length", True, 0.5, lambda v: beam_spring(section(), v)),
    ("factor", True, 1.8, lambda v: scale_cross_section(section(), v)),
    ("j_virtual", False, 0.0, lambda v: chain(j_virtual=put(np.eye(6), (0, 1), v))),
    ("j_passive", False, 0.0, lambda v: chain(j_passive=put(np.eye(6)[:, :1], (3, 0), v))),
    ("k_virtual", False, 1.0, lambda v: chain(k_virtual=put(np.eye(6), (2, 2), v))),
    ("matrix", False, 1.0, lambda v: CartesianStiffness(put(np.eye(6), (4, 4), v))),
    ("joint_masses", True, 15.0, lambda v: InertiaModel(joint_masses=put([15.0] * 3, 0, v), tcp_mass=3.0)),
    ("tcp_mass", True, 3.0, lambda v: InertiaModel(joint_masses=[15.0] * 3, tcp_mass=v)),
    ("inertia_bound", True, 40.0, lambda v: dynamic_spec(inertia_bound=v)),
    ("min_acceleration", False, 0.0, lambda v: dynamic_spec(min_acceleration=v)),
    ("torque_limits", True, 250.0, lambda v: dynamic_spec(torque_limits=put([250.0] * 3, 2, v))),
    ("torque_limits", True, 250.0, lambda v: acceleration_field(GEOMETRY, INERTIA, put([250.0] * 3, 1, v))),
    ("goals", False, 0.0, lambda v: goal_problem(goal=v)),
    ("weights", False, 1.0, lambda v: goal_problem(weight=v)),
    ("bounds", False, 3.0, lambda v: goal_problem(upper=v)),
    ("target", True, 0.8, lambda v: orthoglide_geometry_problem(put([1.0, 1.0, 0.8], 2, v), (0.5, 2.0), 4)),
    # a non-finite load would read as a NaN deflection, so as no feasible node
    *(
        ("load", False, 200.0, lambda v, build=build: build(put(LOAD, 1, v)))
        for site, build in LOAD_SITES.items()
        if site != "StiffnessSpec"
    ),
]


def cases():
    for index, (name, positive, _, build) in enumerate(SITES):
        for value in (np.nan, np.inf, -np.inf, *((0.0, -1.0) if positive else ())):
            yield pytest.param(name, build, value, id=f"{index}-{name}-{value}")


@pytest.mark.parametrize(
    "name, positive, sane, build", [pytest.param(*site, id=f"{index}-{site[0]}") for index, site in enumerate(SITES)]
)
def test_sane_value_is_accepted(name, positive, sane, build):
    build(sane)


@pytest.mark.parametrize("name, build, value", cases())
def test_bad_value_is_refused_by_name(name, build, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build(value)


@pytest.mark.parametrize("shape", [(), (5,), (7,), (1, 6), (6, 1)], ids=["scalar", "5", "7", "1x6", "6x1"])
@pytest.mark.parametrize("site", LOAD_SITES)
def test_load_of_the_wrong_shape_is_refused(site, shape):
    with pytest.raises(ValueError, match=r"^load must have shape \(6,\)"):
        LOAD_SITES[site](np.full(shape, 1.0))


def test_batch_deflection_refuses_a_bad_load_before_the_sweep(monkeypatch):
    def sweep(self, positions):
        raise AssertionError("swept before the load was checked")

    monkeypatch.setattr(OrthoglideStiffnessModel, "batch_cartesian_stiffness", sweep)
    with pytest.raises(ValueError, match="^load must be finite"):
        stiffness_model().batch_deflection(POSE[None], put(LOAD, 1, np.nan))


def test_negative_min_acceleration_keeps_its_own_check():
    with pytest.raises(ValueError, match="^min_acceleration must be >= 0"):
        dynamic_spec(min_acceleration=-1.0)


class TestThresholdBound:
    FIELD = ScalarField(lambda p: 0.0, lambda positions: np.zeros(len(positions)))

    @pytest.mark.parametrize("feasible_when", ["below", "above"])
    def test_nan_bound_is_refused(self, feasible_when):
        # every comparison with NaN is False: the cuboid would read mu = 0
        with pytest.raises(ValueError, match="^bound must not be NaN"):
            ThresholdPredicate(self.FIELD, np.nan, feasible_when)

    @pytest.mark.parametrize("bound", [np.inf, -np.inf])
    def test_infinite_bounds_stay_valid(self, bound):
        assert ThresholdPredicate(self.FIELD, bound).bound == bound


class TestGridCounts:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("resolution", True),
            ("resolution", "3"),
            ("resolution", 1.5),
            ("resolution", np.nan),
            ("dims", (2, 3, 4.9)),
            ("dims", (True, 3, 4)),
            ("dims", ("3", "3", "3")),
            ("dims", np.array([3.0, 3.0, 3.5])),
        ],
    )
    def test_non_integral_count_is_refused(self, field, value):
        # int() would truncate each of these to a count
        with pytest.raises(ValueError, match=f"^{field} must be integral"):
            grid(**{field: value})

    @pytest.mark.parametrize("resolution", [16, 16.0, np.int64(16), np.float32(16.0)])
    def test_integral_resolution_is_accepted(self, resolution):
        spec = grid(resolution=resolution, dims=np.array([3, 4, 5]))
        assert type(spec.resolution) is int and spec.resolution == 16
        assert spec.dims == (3, 4, 5) and all(type(d) is int for d in spec.dims)
        assert spec == grid(resolution=16, dims=(3.0, 4.0, 5.0))

    def test_design_problem_refuses_a_non_integral_resolution(self):
        # 8.5 would build 18 nodes per axis at steps of a/8
        with pytest.raises(ValueError, match="^resolution must be integral"):
            orthoglide_geometry_problem((1.0, 1.0, 0.8), (0.5, 2.0), resolution=8.5)
