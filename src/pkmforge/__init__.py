"""Workspace-metric design toolkit for Orthoglide-class parallel manipulators.

The toolkit converts heterogeneous performance criteria (Jacobian
conditioning, elastic deflection, tool-felt inertia, guaranteed
acceleration) into one comparable number: the size of the largest inscribed
prescribed-proportion cuboid of the workspace region where the criterion
holds.  Designs are then optimized against such workspace metrics with a
goal-attainment multi-objective formulation.

Modules:
- kinematics: IK/FK, Jacobian, velocity transmission factors
- grid:       voxel grid, feasibility masks, largest-cuboid doubling search
- stiffness:  virtual-joint elastostatics and deflection predicates
- dynamics:   inertia ellipsoid norm and acceleration capability predicates
- optimize:   goal attainment, Pareto sweeps, the geometry design problem
- cli:        configuration-driven command line (see ``pkmforge --help``)
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    EmptyInput,
    Infeasible,
    NoConvergence,
    PkmforgeError,
    Singular,
    SingularJacobian,
    SingularStiffness,
    SingularSystem,
    TooLarge,
)
from .grid import (
    CuboidResult,
    FeasibilityMask,
    GridSpec,
    ScalarField,
    ThresholdPredicate,
    brute_force_cuboid,
    evaluate_mask,
    largest_cuboid,
    nested_cuboids,
)
from .kinematics import (
    GeometryParams,
    KinematicSample,
    forward_kinematics,
    inverse_kinematics,
    jacobian,
    kinematic_sample,
)
from .optimize import (
    AttainmentResult,
    GoalProblem,
    Objective,
    ParetoPoint,
    ParetoSet,
    WorkspaceConstraint,
    goal_attain,
    orthoglide_geometry_problem,
    pareto_sweep,
    workspace_constraint,
)
from .stiffness import (
    CartesianStiffness,
    ChainModel,
    CrossSection,
    OrthoglideStiffnessModel,
    StiffnessSpec,
    aggregate_stiffness,
    beam_spring,
    chain_cartesian_stiffness,
    deflection,
    scale_cross_section,
    stiffness_predicate,
)
from .dynamics import (
    DynamicSpec,
    InertiaModel,
    acceleration_predicate,
    generalized_inertia,
    gie_predicate,
    min_achievable_acceleration,
)

__all__ = [name for name in dir() if not name.startswith("_")]
