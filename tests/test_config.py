"""The config schema walker against draft-07 semantics and, where it is
installed, against ``jsonschema`` as an oracle."""

import copy
import random

import pytest

from pkmforge.config import CONFIG_SCHEMA, ConfigError, _check, _Invalid, default_config, validate_config

# the keywords ``_check`` implements; "$schema" only names the draft
WALKER_KEYWORDS = {
    "type",
    "const",
    "enum",
    "minimum",
    "exclusiveMinimum",
    "items",
    "minItems",
    "maxItems",
    "required",
    "properties",
    "additionalProperties",
    "default",
}

# An independent defaults table and merge, the oracle for the walker's
# filling of the schema's ``default``s.
_DEFAULTS = {
    "seed": 20240101,
    "geometry": {"assembly_signs": [-1, -1, -1]},
    "kinematic": {"cond_max": 3.0, "sigma_range": None},
    "dynamics": {"acceleration_mode": "ball"},
    "optimize": {
        "preset": "orthoglide",
        "target": [1.0, 1.0, 0.8],
        "sigma_range": [0.5, 2.0],
        "length_bounds": [0.7, 3.0],
        "span_bounds": [0.4, 3.4],
        "budget": 900,
        "starts": 4,
        "coarse_resolution": 16,
        "fine_resolution": 64,
    },
    "output": {"directory": "out", "formats": ["csv", "json"]},
}

# sections that exist in every validated config, with defaults filled in;
# dynamics/stiffness stay absent unless configured (their commands require them)
_ALWAYS_PRESENT = ("kinematic", "optimize", "output")


def _merge_defaults(config: dict) -> dict:
    """A copy of ``config`` with ``_DEFAULTS`` filled in, sharing nothing with either."""
    merged = copy.deepcopy(config)
    defaults = copy.deepcopy(_DEFAULTS)
    merged.setdefault("seed", defaults.pop("seed"))
    for key, section in defaults.items():
        if key in merged:
            merged[key] = {**section, **merged[key]}
        elif key in _ALWAYS_PRESENT:
            merged[key] = section
    return merged


def required_only(**sections):
    """``default_config()`` cut to its required keys, plus ``sections``."""
    config = default_config()
    config = {key: config[key] for key in CONFIG_SCHEMA["required"]}
    del config["geometry"]["assembly_signs"]
    return {**config, **sections}


def subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    for key, value in schema.items():
        if key == "properties":
            for sub in value.values():
                yield from subschemas(sub)
        elif key == "items":
            yield from subschemas(value)


def fault_path(config):
    """The walker's error path for ``config``, or None when it is accepted."""
    try:
        _check(config, CONFIG_SCHEMA)
    except _Invalid as exc:
        return list(exc.args[0])
    return None


def full_config():
    """``default_config()`` with every optional key present."""
    config = default_config()
    config["optimize"]["pareto_weights"] = [[1.0, 1.0, 0.8], [0.8, 1.0, 1.0]]
    return config


def sites(value, schema, path=()):
    """Every ``(path, value, schema)`` of a config, the root included."""
    yield path, value, schema
    if isinstance(value, dict):
        for key, item in value.items():
            if key in schema.get("properties", {}):
                yield from sites(item, schema["properties"][key], (*path, key))
    elif isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            yield from sites(item, schema["items"], (*path, index))


def replacements(value, schema, rng):
    """Values for one site: wrong types, values at and below the bounds,
    integral floats, enum and const misses, wrong lengths, extra and missing
    keys, and, where the type admits null, null and two-item arrays with
    and without each fault."""
    out = [True, False, None, "x", [], {}, 0, 1, -1, 1.0, 0.5, -0.5, 2]
    for key in ("minimum", "exclusiveMinimum"):
        if key in schema:
            bound = schema[key]
            out += [bound, float(bound), bound - 1, bound - 1e-9, bound + 1e-9, bound + 1]
    if schema.get("type") == "integer" and type(value) is int:
        out += [float(value), value + 0.5]
    for option in schema.get("enum", []) + ([schema["const"]] if "const" in schema else []):
        out += [option, f"{option}x"] if isinstance(option, str) else [option, float(option), -option, True, False]
    if "null" in schema.get("type", []):
        out += [None, [0.5, 1.5], [0, 1], [1.0], [1.0, 2.0, 3.0], [True, 1.0], "x", [None, 1.0]]
    if isinstance(value, list) and value:
        out += [value + value[-1:], value[:-1], value[:1], [copy.deepcopy(value[0])] * rng.randint(1, 4)]
    if isinstance(value, dict):
        out += [{**value, "bogus": 1}, {}]
        out += [{k: v for k, v in value.items() if k != drop} for drop in value]
    return out


def mutate(config, rng, count):
    """``config`` with ``count`` sites replaced, one after another."""
    config = copy.deepcopy(config)
    for _ in range(count):
        path, value, schema = rng.choice(list(sites(config, CONFIG_SCHEMA)))
        replacement = copy.deepcopy(rng.choice(replacements(value, schema, rng)))
        if not path:
            return replacement
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = replacement
    return config


class TestSchemaKeywords:
    def test_schema_uses_only_walker_keywords(self):
        for schema in subschemas(CONFIG_SCHEMA):
            assert set(schema) - {"$schema"} <= WALKER_KEYWORDS, schema

    def test_keyword_walk_sees_every_keyword(self):
        used = set().union(*(subschemas(CONFIG_SCHEMA)))
        assert used - {"$schema"} == WALKER_KEYWORDS


class TestDefaults:
    def test_each_default_passes_its_own_subschema(self):
        defaulted = [schema for schema in subschemas(CONFIG_SCHEMA) if "default" in schema]
        # the oracle table's 16 keys and the three sections present in every config
        assert len(defaulted) == 19
        for schema in defaulted:
            _check(copy.deepcopy(schema["default"]), schema)

    @pytest.mark.parametrize(
        "sections",
        [
            {},
            {"dynamics": {key: value for key, value in default_config()["dynamics"].items() if key != "acceleration_mode"}},
            {"stiffness": default_config()["stiffness"], "kinematic": {"sigma_range": [0.5, 2.0]}, "output": {}},
        ],
        ids=["bare", "dynamics", "stiffness"],
    )
    def test_required_keys_only_validate_as_before(self, sections):
        config = required_only(**copy.deepcopy(sections))
        validated = validate_config(config)
        assert validated == _merge_defaults(config)
        assert set(validated) == set(CONFIG_SCHEMA["required"]) | {"seed", "kinematic", "optimize", "output", *sections}
        assert validated["geometry"]["assembly_signs"] == [-1, -1, -1]


class TestDraft7Semantics:
    def test_default_config_is_returned_unchanged(self):
        assert validate_config(default_config()) == default_config()

    @pytest.mark.parametrize(
        "path, value",
        [
            (("seed",), True),
            (("grid", "resolution"), False),
            (("stiffness", "foot_length"), True),
            (("geometry", "leg_lengths", 0), True),
        ],
    )
    def test_bool_is_neither_number_nor_integer(self, path, value):
        config = full_config()
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        assert fault_path(config) == list(path)

    @pytest.mark.parametrize("value", [True, 1.5, 2, 0])
    def test_bool_never_equals_one_under_enum(self, value):
        config = full_config()
        config["geometry"]["assembly_signs"][1] = value
        assert fault_path(config) == ["geometry", "assembly_signs", 1]

    def test_bool_never_equals_one_under_const(self):
        config = full_config()
        config["schema_version"] = True
        with pytest.raises(ConfigError, match="^config invalid at 'schema_version': "):
            validate_config(config)

    def test_integral_floats_are_integers_and_come_back_as_int(self):
        config = full_config()
        config["seed"] = 7.0
        config["grid"]["dims"] = [49.0, 49, 49.0]
        config["optimize"]["starts"] = 2.0
        config["geometry"]["assembly_signs"] = [-1.0, -1, 1.0]
        checked = validate_config(config)
        assert [type(v) for v in (checked["seed"], *checked["grid"]["dims"], checked["optimize"]["starts"])] == [int] * 5
        # enum members are compared, not converted
        assert checked["geometry"]["assembly_signs"] == [-1.0, -1, 1.0]
        assert isinstance(checked["geometry"]["assembly_signs"][0], float)

    @pytest.mark.parametrize("value", [1.5, float("inf"), float("nan")])
    def test_non_integral_floats_are_not_integers(self, value):
        config = full_config()
        config["seed"] = value
        assert fault_path(config) == ["seed"]

    @pytest.mark.parametrize(
        "value, path",
        [
            (None, None),
            ([0.5, 2.0], None),
            ([0.0, 2.0], ["kinematic", "sigma_range", 0]),
            ([0.5, -1.0], ["kinematic", "sigma_range", 1]),
            ([0.5], ["kinematic", "sigma_range"]),
            ("x", ["kinematic", "sigma_range"]),
        ],
    )
    def test_sigma_range_is_null_or_a_positive_pair(self, value, path):
        config = full_config()
        config["kinematic"]["sigma_range"] = value
        assert fault_path(config) == path

    def test_a_non_list_sigma_range_names_both_types(self):
        config = full_config()
        config["kinematic"]["sigma_range"] = 1.5
        with pytest.raises(ConfigError, match="^config invalid at 'kinematic/sigma_range': 1.5 is not of type 'array', 'null'$"):
            validate_config(config)

    def test_messages_keep_path_prefix(self):
        config = full_config()
        config["grid"]["dims"] = [49, 49]
        with pytest.raises(ConfigError, match="^config invalid at 'grid/dims': "):
            validate_config(config)
        config = full_config()
        config["bogus"] = 1
        with pytest.raises(ConfigError, match="^config invalid at '': "):
            validate_config(config)

    def test_input_is_not_modified(self):
        config = full_config()
        config["seed"] = 5.0
        validate_config(config)
        assert isinstance(config["seed"], float)


@pytest.fixture(scope="module")
def oracle_path():
    """The error path ``jsonschema.validate`` reports for a config, or None;
    the schema itself is checked once rather than on every call."""
    jsonschema = pytest.importorskip("jsonschema")
    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    validator = cls(CONFIG_SCHEMA)

    def path(config):
        error = jsonschema.exceptions.best_match(validator.iter_errors(config))
        return None if error is None else list(error.absolute_path)

    return path


class TestAgainstJsonschema:
    """Every decision, and every single-fault path, equals ``jsonschema.validate``'s."""

    @pytest.mark.parametrize("faults", [1, 2, 3])
    def test_mutated_configs(self, oracle_path, faults):
        rng = random.Random(20240101 + faults)
        base = full_config()
        decisions = {True: 0, False: 0}
        for case in range(1500 if faults == 1 else 500):
            config = mutate(base, rng, faults)
            expected = oracle_path(config)
            path = fault_path(config)
            decisions[path is None] += 1
            assert (path is None) == (expected is None), (case, config)
            if faults == 1:
                assert path == expected, (case, config)
            if path is None:
                assert _check(config, CONFIG_SCHEMA) == _merge_defaults(config), (case, config)
        # both decisions are exercised; few multi-fault configs stay valid
        assert decisions[False] >= 100 and decisions[True] >= (100 if faults == 1 else 10), decisions
