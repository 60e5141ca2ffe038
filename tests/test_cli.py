import functools
import json
import logging
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pkmforge
from conftest import on_cpus
from pkmforge import cli as cli_module
from pkmforge import kinematics
from pkmforge.cli import main
from pkmforge.config import ConfigError, build_geometry, build_grid, default_config, validate_config
from pkmforge.grid import load_mask
from pkmforge.optimize import goal_attain, latin_hypercube, orthoglide_geometry_problem, pareto_sweep
from pkmforge.stiffness import OrthoglideStiffnessModel


def small_config(**overrides):
    config = default_config()
    config["grid"] = {
        "origin": [-0.5, -0.5, -0.5],
        "proportions": [1.0, 1.0, 1.0],
        "resolution": 8,
        "dims": [13, 13, 13],
    }
    config["optimize"]["preset"] = "symmetric_quadratics"
    config["optimize"]["budget"] = 400
    for key, value in overrides.items():
        config[key] = value
    return config


def orthoglide_config(**optimize):
    """The reference orthoglide design problem at a coarse 8 / fine 16 grid."""
    config = default_config()
    config["optimize"].update({"coarse_resolution": 8, "fine_resolution": 16, "budget": 40, "starts": 2, **optimize})
    return config


@pytest.fixture
def package_logger():
    """The ``pkmforge`` logger; its level is restored after the test."""
    logger = logging.getLogger("pkmforge")
    level = logger.level
    yield logger
    logger.setLevel(level)


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def cli(tmp_path, config, command, *extra, out_name="out"):
    path = write_config(tmp_path, config)
    out = tmp_path / out_name
    code = main([command, "--config", str(path), "--out", str(out), *extra])
    return code, out


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        config = small_config()
        config["grid"]["resolutionn"] = 8
        code, _ = cli(tmp_path, config, "grid-eval", "--criterion", "kinematic")
        assert code == 2

    def test_missing_file_is_config_error(self, tmp_path):
        code = main(["grid-eval", "--config", str(tmp_path / "nope.json"), "--criterion", "kinematic"])
        assert code == 2

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["grid-eval", "--config", str(path), "--criterion", "kinematic"]) == 2

    def test_wrong_schema_version_rejected(self, tmp_path):
        config = small_config()
        config["schema_version"] = 99
        code, _ = cli(tmp_path, config, "report")
        assert code == 2

    def test_missing_section_for_command(self, tmp_path):
        config = small_config()
        del config["stiffness"]
        code, _ = cli(tmp_path, config, "stiffness-map")
        assert code == 2

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("report", "--seed"),
            ("grid-eval", "--seed"),
            ("optimize", "--threads"),
            ("stiffness-map", "--threads"),
            ("pareto", "--threads"),
        ],
    )
    def test_flag_rejected_where_unused(self, tmp_path, command, flag):
        extra = ("--criterion", "kinematic") if command == "grid-eval" else ()
        with pytest.raises(SystemExit) as exit_info:
            cli(tmp_path, small_config(), command, *extra, flag, "5")
        assert exit_info.value.code == 2

    def test_default_config_validates(self):
        validated = validate_config(default_config())
        assert validated["seed"] == 20240101

    def test_filled_defaults_are_not_shared(self):
        default_config()["optimize"]["target"][0] = 9.0
        bare = default_config()
        del bare["optimize"], bare["output"]
        validate_config(bare)["output"]["formats"].append("json")
        assert default_config()["optimize"]["target"] == [1.0, 1.0, 0.8]
        validated = validate_config(bare)
        assert validated["optimize"]["target"] == [1.0, 1.0, 0.8]
        assert validated["output"]["formats"] == ["csv", "json"]

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            *(
                pytest.param(command, "--resolution", id=command)
                for command in ("grid-eval", "cuboid", "stiffness-map", "optimize", "pareto", "report")
            ),
            # pareto has no --threads any more; argparse rejects the flag with the same exit code
            pytest.param("pareto", "--threads", id="pareto---threads"),
        ],
    )
    def test_non_positive_resolution_rejected(self, tmp_path, command, flag, value):
        extra = ("--criterion", "kinematic") if command in ("grid-eval", "cuboid") else ()
        with pytest.raises(SystemExit) as exit_info:
            cli(tmp_path, orthoglide_config(), command, *extra, flag, value)
        assert exit_info.value.code == 2


CRITERION = ("--criterion", "kinematic")


class TestExitCodes:
    @pytest.mark.parametrize(
        "command, section, values, extra",
        [
            pytest.param("grid-eval", "geometry", {"joint_limits": [[-0.1, -1.9]] * 3}, CRITERION, id="limits"),
            pytest.param("cuboid", "kinematic", {"cond_max": None, "sigma_range": None}, CRITERION, id="no-bound"),
            # --resolution 1 rescales the grid to one node per axis
            pytest.param("stiffness-map", "grid", {"dims": [3, 3, 3]}, ("--resolution", "1"), id="dims"),
            pytest.param("optimize", "optimize", {"sigma_range": [2.0, 0.5]}, (), id="sigma-range"),
            pytest.param(
                "cuboid", "kinematic", {"sigma_range": [2.0, 0.5]}, (*CRITERION, "--resolution", "8"), id="kinematic-sigma"
            ),
            pytest.param(
                "pareto", "optimize", {"length_bounds": [3.0, 0.7], "pareto_weights": [[1, 1, 1]]}, (), id="bounds"
            ),
        ],
    )
    def test_rejected_config_value_is_config_error(self, tmp_path, capsys, command, section, values, extra):
        # the schema accepts each of these values; the model objects reject them
        config = orthoglide_config()
        config[section].update(values)
        code, _ = cli(tmp_path, config, command, *extra)
        assert code == 2
        assert "config value rejected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, criterion",
        [
            pytest.param(("dynamics", "min_acceleration"), math.nan, "acceleration", id="nan-min-acceleration"),
            pytest.param(("dynamics", "torque_limits", 2), math.nan, "acceleration", id="nan-torque-limits"),
            pytest.param(("dynamics", "joint_masses", 0), math.nan, "gie", id="nan-joint-masses"),
            pytest.param(("stiffness", "actuator_stiffness"), math.nan, "stiffness", id="nan-actuator-stiffness"),
            pytest.param(("stiffness", "parallelogram_section", "width"), math.nan, "stiffness", id="nan-width"),
            pytest.param(("kinematic", "cond_max"), math.nan, "kinematic", id="nan-cond-max"),
            pytest.param(("geometry", "joint_limits", 0, 1), math.nan, "kinematic", id="nan-joint-limits"),
            pytest.param(("stiffness", "deflection_limit"), math.inf, "stiffness", id="inf-deflection-limit"),
        ],
    )
    def test_non_finite_dict_value_is_config_error(self, path, value, criterion):
        # a dict skips the JSON reader's NaN/Infinity refusal, and the schema's
        # minimum tests pass NaN; each read mu = 0, or inf mu = 1, before
        config = default_config()
        *keys, last = path
        functools.reduce(operator.getitem, keys, config)[last] = value
        config = validate_config(config)
        with pytest.raises(ConfigError, match="config value rejected"):
            cli_module._criterion(config, criterion)

    @pytest.mark.parametrize(
        "path, value",
        [
            pytest.param(("grid", "origin", 0), math.nan, id="nan-origin"),
            pytest.param(("grid", "proportions", 1), math.nan, id="nan-proportions"),
            pytest.param(("geometry", "joint_limits", 0, 1), math.nan, id="nan-joint-limits"),
            pytest.param(("dynamics", "torque_limits", 2), math.nan, id="nan-torque-limits"),
            pytest.param(("dynamics", "min_acceleration"), math.nan, id="nan-min-acceleration"),
            pytest.param(("dynamics", "joint_masses", 0), math.nan, id="nan-joint-masses"),
            pytest.param(("stiffness", "load", 1), math.nan, id="nan-load"),
            pytest.param(("stiffness", "parallelogram_section", "width"), math.nan, id="nan-section-width"),
            pytest.param(("kinematic", "cond_max"), math.nan, id="nan-cond-max"),
            pytest.param(("dynamics", "tcp_mass"), math.inf, id="inf-tcp-mass"),
            pytest.param(("stiffness", "load", 5), -math.inf, id="minus-inf-load"),
        ],
    )
    def test_non_json_constant_is_config_error(self, tmp_path, capsys, path, value):
        # json.dumps writes these as NaN, Infinity and -Infinity, which json.load
        # reads although JSON has no such values; draft-07 would count them as numbers
        config = default_config()
        *keys, last = path
        functools.reduce(operator.getitem, keys, config)[last] = value
        code, _ = cli(tmp_path, config, "report", "--resolution", "8")
        assert code == 2
        assert "config is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, literal",
        [
            pytest.param(("dynamics", "tcp_mass"), "1e400", id="tcp-mass"),
            pytest.param(("stiffness", "load", 1), "-1e400", id="minus-load"),
            pytest.param(("stiffness", "deflection_limit"), "1e400", id="deflection-limit"),
            pytest.param(("dynamics", "tcp_mass"), "1" * 401, id="401-digit-tcp-mass"),
            pytest.param(("dynamics", "tcp_mass"), "1" * 5000, id="5000-digit-tcp-mass"),
        ],
    )
    def test_number_outside_double_range_is_config_error(self, tmp_path, capsys, path, literal):
        # json.dumps cannot write these literals, so they go into the text; json.load
        # reads 1e400 as inf and keeps the integers, which overflow a double
        config = default_config()
        *keys, last = path
        functools.reduce(operator.getitem, keys, config)[last] = "literal"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config).replace('"literal"', literal))
        code = main(["report", "--config", str(config_path), "--out", str(tmp_path / "out"), "--resolution", "8"])
        assert code == 2
        assert "config is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["optimize", "pareto"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        config = small_config()
        config["optimize"]["preset"] = "biobjective_front"
        with pytest.raises(SystemExit) as exit_info:
            cli(tmp_path, config, command, "--seed", "-1")
        assert exit_info.value.code == 2
        assert "must be an integer >= 0, got -1" in capsys.readouterr().err
        assert cli(tmp_path, config, command, "--seed", "0")[0] == 0

    @pytest.mark.parametrize("command", ["cuboid", "report"])
    def test_planted_value_error_propagates(self, tmp_path, monkeypatch, command):
        def planted(*args, **kwargs):
            raise ValueError("planted")

        monkeypatch.setattr(cli_module, "largest_cuboid", planted)
        extra = ("--criterion", "kinematic") if command == "cuboid" else ()
        with pytest.raises(ValueError, match="planted"):
            cli(tmp_path, small_config(), command, *extra)

    def test_unknown_log_level_is_config_error(self, monkeypatch, capsys, package_logger):
        monkeypatch.setenv("PKM_FORGE_LOG", "verbose")
        assert main(["--version"]) == 2
        assert "PKM_FORGE_LOG='VERBOSE' is not a log level" in capsys.readouterr().err
        monkeypatch.setenv("PKM_FORGE_LOG", "debug")
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0

    def test_log_level_applies_when_root_logger_has_a_handler(self, monkeypatch, package_logger):
        # logging.basicConfig does nothing here, so main must set the level itself
        root = logging.getLogger()
        handler, root_level = logging.NullHandler(), root.level
        root.addHandler(handler)
        try:
            root.setLevel(logging.WARNING)
            monkeypatch.setenv("PKM_FORGE_LOG", "DEBUG")
            with pytest.raises(SystemExit):
                main(["--version"])
            assert package_logger.isEnabledFor(logging.DEBUG)
            assert root.level == logging.WARNING
        finally:
            root.removeHandler(handler)
            root.setLevel(root_level)


class TestGridEval:
    def test_writes_map_and_mask(self, tmp_path):
        code, out = cli(tmp_path, small_config(), "grid-eval", "--criterion", "kinematic")
        assert code == 0
        lines = (out / "kinematic_map.csv").read_text().splitlines()
        assert lines[0] == "x,y,z,value,feasible"
        assert len(lines) == 1 + 13**3
        mask = load_mask(out / "kinematic_mask.npz")
        assert mask.dims == (13, 13, 13)
        assert mask.count() > 0

    def test_center_node_is_isotropic(self, tmp_path):
        code, out = cli(tmp_path, small_config(), "grid-eval", "--criterion", "kinematic")
        lines = (out / "kinematic_map.csv").read_text().splitlines()[1:]
        center = [l for l in lines if l.startswith("0,0,0,")]
        assert len(center) == 1
        value = float(center[0].split(",")[3])
        assert abs(value - 1.0) <= 1e-9

    def test_rerun_is_byte_identical(self, tmp_path):
        config = small_config()
        _, out_a = cli(tmp_path, config, "grid-eval", "--criterion", "kinematic", out_name="a")
        _, out_b = cli(tmp_path, config, "grid-eval", "--criterion", "kinematic", out_name="b")
        assert (out_a / "kinematic_map.csv").read_bytes() == (out_b / "kinematic_map.csv").read_bytes()
        assert (out_a / "kinematic_mask.npz").read_bytes() == (out_b / "kinematic_mask.npz").read_bytes()

    def test_fine_map_subsamples_coarse_exactly(self, tmp_path):
        config = small_config()
        _, coarse_out = cli(tmp_path, config, "grid-eval", "--criterion", "kinematic", out_name="coarse")
        _, fine_out = cli(
            tmp_path, config, "grid-eval", "--criterion", "kinematic", "--resolution", "16", out_name="fine"
        )

        def rows(path):
            table = {}
            for line in path.read_text().splitlines()[1:]:
                x, y, z, value, feasible = line.split(",")
                table[(x, y, z)] = (value, feasible)
            return table

        coarse = rows(coarse_out / "kinematic_map.csv")
        fine = rows(fine_out / "kinematic_map.csv")
        shared = set(coarse) & set(fine)
        assert len(shared) == 13**3  # every coarse node reappears bitwise on the fine grid
        for key in shared:
            assert coarse[key] == fine[key]

    def test_all_criteria_run(self, tmp_path):
        for criterion in ("kinematic", "stiffness", "gie", "acceleration"):
            code, out = cli(tmp_path, small_config(), "grid-eval", "--criterion", criterion, out_name=criterion)
            assert code == 0
            assert (out / f"{criterion}_map.csv").exists()

    def test_formats_toggle_suppresses_csv(self, tmp_path):
        config = small_config()
        config["output"] = {"directory": "out", "formats": ["json"]}
        code, out = cli(tmp_path, config, "grid-eval", "--criterion", "kinematic")
        assert code == 0
        assert not (out / "kinematic_map.csv").exists()
        assert (out / "kinematic_mask.npz").exists()

    @pytest.mark.parametrize("sigma_range", [None, [0.6, 1.8]])
    def test_kinematic_map_sweeps_transmission_once(self, tmp_path, monkeypatch, sigma_range):
        config = small_config()
        config["kinematic"]["sigma_range"] = sigma_range
        blocks = kernel_blocks(monkeypatch)
        code, out = cli(tmp_path, config, "grid-eval", "--criterion", "kinematic")
        assert code == 0
        assert_each_node_once(blocks, config)
        monkeypatch.undo()
        spec = build_grid(validate_config(config))
        values = kinematics.condition_field(build_geometry(validate_config(config))).batch(spec.node_positions())
        column = [line.split(",")[3] for line in (out / "kinematic_map.csv").read_text().splitlines()[1:]]
        assert column == [f"{value:.17g}" for value in values]


def kernel_blocks(monkeypatch):
    """Record the positions of every block that the transmission block kernel
    sweeps, in blocks of 500 rows, so a 13^3 grid takes several."""
    monkeypatch.setattr(kinematics, "TRANSMISSION_BLOCK_ROWS", 500)
    kernel = kinematics._transmission_rows
    blocks = []

    def recorded(positions, geometry, ik=None):
        blocks.append(np.array(positions))
        return kernel(positions, geometry, ik)

    monkeypatch.setattr(kinematics, "_transmission_rows", recorded)
    return blocks


def assert_each_node_once(blocks, config):
    """The blocks swept every node of the config's grid exactly once."""
    nodes = build_grid(validate_config(config)).node_positions()
    assert len(blocks) > 1
    swept = np.concatenate(blocks)
    assert swept.shape == nodes.shape
    assert np.array_equal(np.unique(swept, axis=0), np.unique(nodes, axis=0))


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that counts its calls."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestCuboid:
    def test_kinematic_cuboid_sweeps_transmission_once(self, tmp_path, monkeypatch):
        blocks = kernel_blocks(monkeypatch)
        code, _ = cli(tmp_path, small_config(), "cuboid", "--criterion", "kinematic")
        assert code == 0
        assert_each_node_once(blocks, small_config())

    def test_zero_deflection_limit_yields_empty_result(self, tmp_path):
        config = small_config()
        config["stiffness"]["deflection_limit"] = 1e-300
        code, out = cli(tmp_path, config, "cuboid", "--criterion", "stiffness")
        assert code == 0  # a valid empty result, not an error
        payload = json.loads((out / "stiffness_cuboid.json").read_text())
        assert payload["found"] is False
        assert payload["mu"] == 0.0

    def test_isotropy_threshold_gives_degenerate_cuboid(self, tmp_path):
        config = small_config()
        config["kinematic"]["cond_max"] = 1.0 + 1e-9
        code, out = cli(tmp_path, config, "cuboid", "--criterion", "kinematic")
        assert code == 0
        payload = json.loads((out / "kinematic_cuboid.json").read_text())
        assert payload["found"] is True
        assert payload["node_edge"] == 1
        assert payload["mu"] == 0.0
        assert payload["index_min"] == [4, 4, 4]  # the node sitting exactly at the origin

    def test_resolution_consistency_within_one_coarse_step(self, tmp_path):
        config = small_config()
        _, out_a = cli(tmp_path, config, "cuboid", "--criterion", "kinematic", out_name="a")
        _, out_b = cli(tmp_path, config, "cuboid", "--criterion", "kinematic", "--resolution", "16", out_name="b")
        mu_a = json.loads((out_a / "kinematic_cuboid.json").read_text())["mu"]
        mu_b = json.loads((out_b / "kinematic_cuboid.json").read_text())["mu"]
        assert abs(mu_a - mu_b) <= 1.0 / 8 + 1e-12


# The writers as they were before np.savetxt and json's ``default`` replaced
# them, kept verbatim as the byte oracles of TestWriters.
def _format(value: float) -> str:
    return f"{value:.17g}"


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    """Write the header, then one line per row of numbers, each cell through ``_format``."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_format(float(v)) for v in row) + "\n")


class TestWriters:
    def test_csv_matches_loop_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        special = [
            math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
            0.1 + 0.2, 1 / 3, -2 / 3, np.nextafter(1.0, 2.0), 1.7976931348623157e308, 2.0**53 + 2, 1e16, 123456789.0,
        ]
        values = np.concatenate([special, rng.standard_normal(400) * 10.0 ** rng.integers(-300, 300, 400)])
        flags = rng.random(values.size) < 0.5
        table = np.column_stack([values, values[::-1], -values, flags])
        header = ("x", "y", "value", "feasible")
        _write_csv(tmp_path / "loop.csv", header, table.tolist())
        cli_module._write_csv(tmp_path / "table.csv", header, table)
        cli_module._write_csv(tmp_path / "rows.csv", header, [[*row] for row in table])
        expected = (tmp_path / "loop.csv").read_bytes()
        assert all(f"\n{cell},".encode() in expected for cell in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324"))
        assert (tmp_path / "table.csv").read_bytes() == expected
        assert (tmp_path / "rows.csv").read_bytes() == expected

    def test_empty_table_writes_the_header_only(self, tmp_path):
        header = ["w_0", "w_1", "pi_0", "f_0", "f_1", "lambda"]
        _write_csv(tmp_path / "loop.csv", header, [])
        cli_module._write_csv(tmp_path / "new.csv", header, [])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes() == b"w_0,w_1,pi_0,f_0,f_1,lambda\n"

    def test_json_matches_recursive_converter(self, tmp_path):
        payload = {
            "f64": np.float64(0.1),
            "f32": np.float32(0.1),
            "i64": np.int64(-3),
            "vector": np.array([math.nan, math.inf, -math.inf, -0.0, 1 / 3]),
            "matrix": np.arange(6.0).reshape(2, 3) / 7,
            "ints": np.arange(3),
            "nested": [(1.0, np.float64(math.nan)), [np.array([math.inf]), (-math.inf, np.float32(2.5))]],
            "inner": {"b": [np.int64(7), None], "a": (True, "text")},
        }
        _write_json(tmp_path / "old.json", payload)
        text = cli_module._write_json(tmp_path / "new.json", payload)
        expected = (tmp_path / "old.json").read_bytes()
        assert (tmp_path / "new.json").read_bytes() == expected
        assert (text + "\n").encode() == expected

    def test_cuboid_prints_its_json_file(self, tmp_path, capsys):
        code, out = cli(tmp_path, small_config(), "cuboid", "--criterion", "kinematic")
        assert code == 0
        assert capsys.readouterr().out.encode() == (out / "kinematic_cuboid.json").read_bytes()


class TestStiffnessMap:
    def test_assembles_stiffness_once(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, OrthoglideStiffnessModel, "batch_cartesian_stiffness")
        code, _ = cli(tmp_path, small_config(), "stiffness-map")
        assert code == 0
        assert len(calls) == 1

    def test_columns_and_center_values(self, tmp_path):
        code, out = cli(tmp_path, small_config(), "stiffness-map")
        assert code == 0
        lines = (out / "stiffness_k_map.csv").read_text().splitlines()
        assert lines[0] == "x,y,z,k_trans_min,deflection_norm"
        center = [l for l in lines[1:] if l.startswith("0,0,0,")][0]
        k_min, deflection = map(float, center.split(",")[3:])
        assert k_min > 0.0
        assert deflection > 0.0

    def test_shares_an_output_directory_with_the_stiffness_grid_map(self, tmp_path):
        config = small_config()
        assert cli(tmp_path, config, "grid-eval", "--criterion", "stiffness")[0] == 0
        code, out = cli(tmp_path, config, "stiffness-map")
        assert code == 0
        assert (out / "stiffness_map.csv").read_text().startswith("x,y,z,value,feasible\n")
        assert (out / "stiffness_k_map.csv").read_text().startswith("x,y,z,k_trans_min,deflection_norm\n")


class TestOptimize:
    def test_symmetric_preset(self, tmp_path):
        code, out = cli(tmp_path, small_config(), "optimize")
        assert code == 0
        payload = json.loads((out / "attainment.json").read_text())
        assert abs(payload["lambda"] - 1.0) <= 1e-4
        assert payload["attainment"] == "under-attained"

    def test_over_attained_preset_reports_sign(self, tmp_path):
        config = small_config()
        config["optimize"]["preset"] = "over_attained"
        code, out = cli(tmp_path, config, "optimize")
        assert code == 0
        payload = json.loads((out / "attainment.json").read_text())
        assert abs(payload["lambda"] + 1.0) <= 1e-4
        assert payload["attainment"] == "over-attained"

    def test_impossible_design_problem_exits_infeasible(self, tmp_path):
        config = small_config()
        config["optimize"].update(
            {
                "preset": "orthoglide",
                "target": [5.0, 5.0, 5.0],
                "sigma_range": [0.5, 2.0],
                "length_bounds": [0.7, 1.0],
                "span_bounds": [0.4, 1.0],
                "budget": 60,
                "starts": 1,
                "coarse_resolution": 8,
            }
        )
        code, _ = cli(tmp_path, config, "optimize")
        assert code == 4

    def test_seed_override_stays_close(self, tmp_path):
        config = small_config()
        _, out_a = cli(tmp_path, config, "optimize", out_name="a")
        _, out_b = cli(tmp_path, config, "optimize", "--seed", "777", out_name="b")
        lam_a = json.loads((out_a / "attainment.json").read_text())["lambda"]
        lam_b = json.loads((out_b / "attainment.json").read_text())["lambda"]
        assert abs(lam_a - lam_b) <= 1e-4


    @pytest.mark.parametrize(
        "section, key, value, twin",
        [(None, "seed", 1.0, 1), ("optimize", "starts", 2.0, 2)],
    )
    def test_integral_float_runs_as_its_integer_twin(self, tmp_path, section, key, value, twin):
        def run(number, out_name):
            config = small_config()
            (config[section] if section else config)[key] = number
            code, out = cli(tmp_path, config, "optimize", out_name=out_name)
            assert code == 0
            return (out / "attainment.json").read_bytes()

        assert run(value, "float") == run(twin, "int")


class TestOrthoglide:
    def direct_problem(self, config, resolution):
        section = config["optimize"]
        problem = orthoglide_geometry_problem(
            tuple(section["target"]),
            tuple(section["sigma_range"]),
            resolution=resolution,
            length_bounds=tuple(section["length_bounds"]),
            span_bounds=tuple(section["span_bounds"]),
        )
        starts = latin_hypercube(problem.bounds, section["starts"], np.random.default_rng(config["seed"]))
        return problem, starts

    def test_optimize_matches_direct_goal_attain(self, tmp_path):
        config = orthoglide_config()
        code, out = cli(tmp_path, config, "optimize")
        assert code == 0
        payload = json.loads((out / "attainment.json").read_text())
        problem, starts = self.direct_problem(config, 8)
        result = goal_attain(problem, starts, budget=40)
        assert result.feasible and payload["feasible"]
        assert payload["design"] == result.pi_star.tolist()
        assert payload["lambda"] == result.lambda_star
        fine_problem, _ = self.direct_problem(config, 16)
        assert payload["fine_resolution"] == 16
        assert payload["fine_constraint_value"] == fine_problem.constraints[0].evaluate(result.pi_star)

    def test_pareto_matches_direct_sweep(self, tmp_path):
        weights = [[1.0, 1.0, 0.8], [1.0, 0.5, 0.8]]
        config = orthoglide_config(pareto_weights=weights)
        code, out = cli(tmp_path, config, "pareto")
        assert code == 0
        problem, starts = self.direct_problem(config, 8)
        front = pareto_sweep(problem, [np.asarray(w) for w in weights], starts, budget=40)
        lines = (out / "pareto.csv").read_text().splitlines()
        assert lines[0] == "w_0,w_1,w_2,pi_0,pi_1,pi_2,pi_3,pi_4,pi_5,f_0,f_1,f_2,lambda"
        table = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        expected = [[*p.weights, *p.design, *p.objectives, p.attainment] for p in front.points]
        assert len(expected) > 0
        assert table == expected

    @pytest.mark.parametrize("preset", ["orthoglide", "symmetric_quadratics"])
    def test_pareto_without_weights_is_config_error(self, tmp_path, preset):
        code, _ = cli(tmp_path, orthoglide_config(preset=preset), "pareto")
        assert code == 2


class TestPareto:
    def test_front_and_dominance_invariant(self, tmp_path):
        config = small_config()
        config["optimize"]["preset"] = "biobjective_front"
        code, out = cli(tmp_path, config, "pareto")
        assert code == 0
        payload = json.loads((out / "pareto.json").read_text())
        points = payload["points"]
        assert len(points) == 11
        for a in points:
            for b in points:
                if a is b:
                    continue
                fa, fb = np.array(a["objectives"]), np.array(b["objectives"])
                assert not (np.all(fa <= fb + 1e-9) and np.any(fa < fb - 1e-9))
        header = (out / "pareto.csv").read_text().splitlines()[0]
        assert header == "w_0,w_1,pi_0,f_0,f_1,lambda"

    def test_threaded_run_matches_serial(self, tmp_path, monkeypatch):
        biobjective = small_config()
        biobjective["optimize"]["preset"] = "biobjective_front"
        orthoglide = orthoglide_config(pareto_weights=[[1.0, 1.0, 0.8], [0.8, 1.0, 1.0]])
        for name, config in (("biobjective", biobjective), ("orthoglide", orthoglide)):
            outs = []
            for cpus in (2, 1):
                on_cpus(monkeypatch, cpus)
                code, out = cli(tmp_path, config, "pareto", out_name=f"{name}-{cpus}")
                assert code == 0
                outs.append(out)
            for file in ("pareto.csv", "pareto.json"):
                assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes(), (name, file)


class TestReport:
    def test_report_covers_configured_criteria(self, tmp_path):
        code, out = cli(tmp_path, small_config(), "report")
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert set(payload["criteria"]) == {"kinematic", "stiffness", "gie", "acceleration"}
        assert payload["tool"]["name"] == "pkmforge"
        assert set(payload) == {"tool", "config", "criteria", "timing"}

    def test_config_echo_round_trips(self, tmp_path):
        config = small_config()
        code, out = cli(tmp_path, config, "report")
        payload = json.loads((out / "report.json").read_text())
        assert validate_config(payload["config"]) == payload["config"]

    def test_rerun_identical_apart_from_timing(self, tmp_path):
        config = small_config()
        _, out_a = cli(tmp_path, config, "report", out_name="a")
        _, out_b = cli(tmp_path, config, "report", out_name="b")
        a = json.loads((out_a / "report.json").read_text())
        b = json.loads((out_b / "report.json").read_text())
        a.pop("timing")
        b.pop("timing")
        assert a == b


# runs the CLI in a process where any import of jsonschema fails
REFUSE_JSONSCHEMA = """
import sys


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "jsonschema":
            raise ImportError(f"{name} is refused")


sys.meta_path.insert(0, Refuse())
from pkmforge.cli import main

code = main(sys.argv[1:])
assert "jsonschema" not in sys.modules
sys.exit(code)
"""


class TestRuntimeDependencies:
    def test_report_runs_without_jsonschema(self, tmp_path):
        path = write_config(tmp_path, default_config())
        src = str(Path(pkmforge.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        command = ["report", "--config", str(path), "--resolution", "8", "--out"]
        refused = subprocess.run(
            [sys.executable, "-c", REFUSE_JSONSCHEMA, *command, str(tmp_path / "refused")],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert refused.returncode == 0, refused.stderr
        assert main([*command, str(tmp_path / "importable")]) == 0
        reports = []
        for name in ("refused", "importable"):
            report = json.loads((tmp_path / name / "report.json").read_text())
            del report["timing"]
            reports.append(report)
        assert reports[0] == reports[1]
