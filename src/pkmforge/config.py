"""Run configuration: JSON schema, validation, and object builders.

All physical quantities are SI: lengths in m, stiffness in N/m, moduli in
Pa, wrenches in N and N*m, masses in kg, drive forces in N, accelerations
in m/s^2.  Unknown keys are rejected so typos fail fast instead of being
silently ignored.

``CONFIG_SCHEMA`` (draft-07) is checked by a walker of just the keywords it
uses: ``type``, ``const``, ``enum``, ``minimum``, ``exclusiveMinimum``,
``items``, ``minItems``, ``maxItems``, ``required``, ``properties``,
``additionalProperties: false`` and ``default``.  Each default
sits on its property; the walker fills a missing property with a copy of
its default, so a validated config has every defaulted key.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import numbers

import numpy as np

from .dynamics import DynamicSpec, InertiaModel
from .grid import GridSpec
from .kinematics import GeometryParams
from .stiffness import CrossSection, OrthoglideStiffnessModel, StiffnessSpec

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Configuration file is missing, malformed, or fails the schema."""


def _vec(n, minimum=None, exclusive_minimum=None):
    item = {"type": "number"}
    if minimum is not None:
        item["minimum"] = minimum
    if exclusive_minimum is not None:
        item["exclusiveMinimum"] = exclusive_minimum
    return {"type": "array", "items": item, "minItems": n, "maxItems": n}


_SECTION = {
    "type": "object",
    "additionalProperties": False,
    "required": ["width", "height", "elastic_modulus", "shear_modulus"],
    "properties": {
        "width": {"type": "number", "exclusiveMinimum": 0},
        "height": {"type": "number", "exclusiveMinimum": 0},
        "elastic_modulus": {"type": "number", "exclusiveMinimum": 0},
        "shear_modulus": {"type": "number", "exclusiveMinimum": 0},
    },
}

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "geometry", "grid"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "seed": {"type": "integer", "minimum": 0, "default": 20240101},
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "required": ["leg_lengths", "joint_limits"],
            "properties": {
                "leg_lengths": _vec(3, exclusive_minimum=0),
                "joint_limits": {
                    "type": "array",
                    "items": _vec(2),
                    "minItems": 3,
                    "maxItems": 3,
                },
                "assembly_signs": {
                    "type": "array",
                    "items": {"enum": [-1, 1]},
                    "minItems": 3,
                    "maxItems": 3,
                    "default": [-1, -1, -1],
                },
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["origin", "proportions", "resolution", "dims"],
            "properties": {
                "origin": _vec(3),
                "proportions": _vec(3, exclusive_minimum=0),
                "resolution": {"type": "integer", "minimum": 1},
                "dims": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 2},
                    "minItems": 3,
                    "maxItems": 3,
                },
            },
        },
        # kinematic, optimize and output default to {} and so exist in every
        # validated config; stiffness and dynamics stay absent unless configured
        "kinematic": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "cond_max": {"type": ["number", "null"], "exclusiveMinimum": 0, "default": 3.0},
                "sigma_range": _vec(2, exclusive_minimum=0) | {"type": ["array", "null"], "default": None},
            },
            "default": {},
        },
        "stiffness": {
            "type": "object",
            "additionalProperties": False,
            "required": [
                "actuator_stiffness",
                "foot_section",
                "foot_length",
                "parallelogram_section",
                "load",
                "deflection_limit",
            ],
            "properties": {
                "actuator_stiffness": {"type": "number", "exclusiveMinimum": 0},
                "foot_section": _SECTION,
                "foot_length": {"type": "number", "exclusiveMinimum": 0},
                "parallelogram_section": _SECTION,
                "load": _vec(6),
                "deflection_limit": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "dynamics": {
            "type": "object",
            "additionalProperties": False,
            "required": ["joint_masses", "tcp_mass", "inertia_bound", "min_acceleration", "torque_limits"],
            "properties": {
                "joint_masses": _vec(3, exclusive_minimum=0),
                "tcp_mass": {"type": "number", "exclusiveMinimum": 0},
                "inertia_bound": {"type": "number", "exclusiveMinimum": 0},
                "min_acceleration": {"type": "number", "minimum": 0},
                "torque_limits": _vec(3, exclusive_minimum=0),
                "acceleration_mode": {"enum": ["ball", "max"], "default": "ball"},
            },
        },
        "optimize": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "preset": {
                    "enum": [
                        "orthoglide",
                        "symmetric_quadratics",
                        "over_attained",
                        "linear_minimax",
                        "biobjective_front",
                    ],
                    "default": "orthoglide",
                },
                "target": _vec(3, exclusive_minimum=0) | {"default": [1.0, 1.0, 0.8]},
                "sigma_range": _vec(2, exclusive_minimum=0) | {"default": [0.5, 2.0]},
                "length_bounds": _vec(2, exclusive_minimum=0) | {"default": [0.7, 3.0]},
                "span_bounds": _vec(2, exclusive_minimum=0) | {"default": [0.4, 3.4]},
                "budget": {"type": "integer", "minimum": 1, "default": 900},
                "starts": {"type": "integer", "minimum": 1, "default": 4},
                "coarse_resolution": {"type": "integer", "minimum": 2, "default": 16},
                "fine_resolution": {"type": "integer", "minimum": 2, "default": 64},
                "pareto_weights": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number", "minimum": 0}, "minItems": 1},
                    "minItems": 1,
                },
            },
            "default": {},
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string", "default": "out"},
                "formats": {
                    "type": "array",
                    "items": {"enum": ["csv", "json"]},
                    "minItems": 1,
                    "default": ["csv", "json"],
                },
            },
            "default": {},
        },
    },
}


def default_config() -> dict:
    """A complete, runnable configuration for the symmetric reference design."""
    section = {"width": 0.025, "height": 0.025, "elastic_modulus": 7.0e10, "shear_modulus": 2.6e10}
    return validate_config(
        {
            "schema_version": SCHEMA_VERSION,
            "geometry": {
                "leg_lengths": [1.0, 1.0, 1.0],
                "joint_limits": [[-1.9, -0.1], [-1.9, -0.1], [-1.9, -0.1]],
            },
            "grid": {
                "origin": [-0.75, -0.75, -0.75],
                "proportions": [1.0, 1.0, 1.0],
                "resolution": 32,
                "dims": [49, 49, 49],
            },
            "stiffness": {
                "actuator_stiffness": 1.0e8,
                "foot_section": {**section, "width": 0.04, "height": 0.04},
                "foot_length": 0.15,
                "parallelogram_section": section,
                "load": [0.0, 200.0, 0.0, 0.0, 0.0, 60.0],
                "deflection_limit": 1.0e-4,
            },
            "dynamics": {
                "joint_masses": [15.0, 15.0, 15.0],
                "tcp_mass": 3.0,
                "inertia_bound": 40.0,
                "min_acceleration": 10.0,
                "torque_limits": [250.0, 250.0, 250.0],
            },
        }
    )


_TYPES = {"object": dict, "array": list, "string": str, "null": type(None), "number": numbers.Number, "integer": int}


def _is(value, name: str) -> bool:
    """Draft-07 ``type``: a bool is neither a number nor an integer, and ``1.0`` is an integer."""
    if isinstance(value, bool) and name in ("number", "integer"):
        return False
    return isinstance(value, _TYPES[name]) or name == "integer" and isinstance(value, float) and value.is_integer()


class _Invalid(Exception):
    """A schema fault; its ``args`` are the path (a tuple) and the message."""


def _check(value, schema: dict, path: tuple = ()):
    """``value`` checked against ``schema``, rebuilt with integers as ``int`` and each missing
    property that has a ``default`` filled with a checked copy of it; raises ``_Invalid`` at the
    first fault, a container's own before its members'."""
    if "type" in schema:
        names = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
        if not any(_is(value, name) for name in names):
            raise _Invalid(path, f"{value!r} is not of type {', '.join(map(repr, names))}")
        if names == ["integer"]:
            value = int(value)
    options = schema.get("enum", [schema["const"]] if "const" in schema else None)
    if options is not None and not any(o == value and isinstance(o, bool) == isinstance(value, bool) for o in options):
        raise _Invalid(path, f"{value!r} is not one of {options!r}")
    if _is(value, "number"):
        if "minimum" in schema and value < schema["minimum"]:
            raise _Invalid(path, f"{value!r} is less than the minimum of {schema['minimum']!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            raise _Invalid(path, f"{value!r} is less than or equal to the minimum of {schema['exclusiveMinimum']!r}")
    if isinstance(value, list):
        if not schema.get("minItems", 0) <= len(value) <= schema.get("maxItems", len(value)):
            raise _Invalid(path, f"{value!r} should have {schema.get('minItems', 0)} to {schema.get('maxItems')} items")
        if "items" in schema:
            value = [_check(item, schema["items"], (*path, i)) for i, item in enumerate(value)]
    if isinstance(value, dict):
        missing = [key for key in schema.get("required", ()) if key not in value]
        if missing:
            raise _Invalid(path, f"{missing[0]!r} is a required property")
        properties = schema.get("properties", {})
        extra = [key for key in value if key not in properties]
        if extra and schema.get("additionalProperties", True) is False:
            raise _Invalid(path, f"additional properties are not allowed ({', '.join(map(repr, extra))} unexpected)")
        value = {k: _check(v, properties[k], (*path, k)) if k in properties else v for k, v in value.items()}
        for key, sub in properties.items():
            if key not in value and "default" in sub:
                value[key] = _check(copy.deepcopy(sub["default"]), sub, (*path, key))
    return value


def validate_config(config: dict) -> dict:
    """Schema-check a configuration dict and fill defaulted keys."""
    try:
        return _check(config, CONFIG_SCHEMA)
    except _Invalid as exc:
        path, message = exc.args
        raise ConfigError(f"config invalid at '{'/'.join(map(str, path))}': {message}") from None


def load_config(path) -> dict:
    def refuse(constant: str):
        # json reads NaN and Infinity, although JSON has no such values (RFC 8259 §6)
        raise ConfigError(f"config is not valid JSON: {constant} is not a JSON number")

    def finite(parse):
        # json reads 1e400 as inf and a 401-digit integer as an int no double
        # holds; draft-07 would count both as numbers
        def number(literal: str):
            try:
                value = parse(literal)
                if math.isfinite(value):
                    return value
            except (OverflowError, ValueError):  # int() refuses over 4300 digits
                pass
            shown = literal if len(literal) <= 20 else f"{literal[:17]}..."
            raise ConfigError(f"config is not valid JSON: {shown} is outside the range of a double")

        return number

    try:
        with open(path) as handle:
            raw = json.load(handle, parse_constant=refuse, parse_float=finite(float), parse_int=finite(int))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return validate_config(raw)


def require_section(config: dict, name: str) -> dict:
    section = config.get(name)
    if section is None:
        raise ConfigError(f"config section '{name}' is required for this command")
    return section


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def config_builder(build):
    """``build`` with a ValueError, raised by a model object that rejects a
    configured value the schema lets through, reported as a ConfigError."""

    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            raise ConfigError(f"config value rejected: {exc}") from exc

    return wrapper


@config_builder
def build_geometry(config: dict) -> GeometryParams:
    """Geometry from a validated config."""
    return GeometryParams(**config["geometry"])


@config_builder
def build_grid(config: dict, resolution: int | None = None) -> GridSpec:
    """Grid from a validated config; an override resolution rescales the
    node counts so the Cartesian extent is preserved."""
    section = config["grid"]
    if resolution is None or resolution == section["resolution"]:
        return GridSpec(**section)
    ratio = resolution / section["resolution"]
    dims = [int(round((d - 1) * ratio)) + 1 for d in section["dims"]]
    return GridSpec(**{**section, "resolution": resolution, "dims": dims})


@config_builder
def build_stiffness(config: dict) -> tuple[OrthoglideStiffnessModel, StiffnessSpec]:
    """Stiffness model and spec from a validated config with a stiffness section."""
    section = require_section(config, "stiffness")
    model = OrthoglideStiffnessModel(
        geometry=build_geometry(config),
        actuator_stiffness=section["actuator_stiffness"],
        foot_section=CrossSection(**section["foot_section"]),
        foot_length=section["foot_length"],
        parallelogram_section=CrossSection(**section["parallelogram_section"]),
    )
    spec = StiffnessSpec(load=np.asarray(section["load"]), deflection_limit=section["deflection_limit"])
    return model, spec


@config_builder
def build_dynamics(config: dict) -> tuple[InertiaModel, DynamicSpec]:
    """Inertia model and spec from a validated config with a dynamics section."""
    section = require_section(config, "dynamics")
    model = InertiaModel(joint_masses=section["joint_masses"], tcp_mass=section["tcp_mass"])
    spec = DynamicSpec(
        inertia_bound=section["inertia_bound"],
        min_acceleration=section["min_acceleration"],
        torque_limits=section["torque_limits"],
        acceleration_mode=section["acceleration_mode"],
    )
    return model, spec
