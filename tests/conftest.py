import numpy as np
import pytest

from pkmforge.errors import Infeasible
from pkmforge.kinematics import GeometryParams, inverse_kinematics


@pytest.fixture
def symmetric_geometry():
    return GeometryParams(
        leg_lengths=[1.0, 1.0, 1.0],
        joint_limits=[[-1.9, -0.1]] * 3,
        assembly_signs=[-1, -1, -1],
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240101)


def reachable(p, geometry) -> bool:
    """Per-pose reachability through the scalar inverse kinematics, an oracle
    independent of the batch sweep."""
    try:
        inverse_kinematics(p, geometry)
    except Infeasible:
        return False
    return True


def sample_reachable_points(geometry, rng, count, box=0.45, sigma_min_floor=None):
    """Random reachable tool points inside a centered box.

    With ``sigma_min_floor`` the sample is additionally filtered on the
    smallest transmission factor so near-singular poses stay out.
    """
    from pkmforge.kinematics import kinematic_sample

    points = []
    while len(points) < count:
        p = rng.uniform(-box, box, size=3)
        try:
            inverse_kinematics(p, geometry)
            if sigma_min_floor is not None:
                if kinematic_sample(p, geometry).sigma_min <= sigma_min_floor:
                    continue
        except Exception:
            continue
        points.append(p)
    return np.asarray(points)


def signed_zero_values(rng, shape, zero_fraction):
    """Normal values scaled over 16 decades (so sums round differently in
    another order), with a ``zero_fraction`` of entries set to +0.0 or -0.0."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    return np.where(rng.random(shape) < zero_fraction, zeros, values)
