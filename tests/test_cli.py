import json

import numpy as np
import pytest

from pkmforge.cli import main
from pkmforge.config import default_config, validate_config
from pkmforge.grid import load_mask


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
        [("report", "--seed"), ("grid-eval", "--seed"), ("optimize", "--threads"), ("stiffness-map", "--threads")],
    )
    def test_flag_rejected_where_unused(self, tmp_path, command, flag):
        extra = ("--criterion", "kinematic") if command == "grid-eval" else ()
        with pytest.raises(SystemExit) as exit_info:
            cli(tmp_path, small_config(), command, *extra, flag, "5")
        assert exit_info.value.code == 2

    def test_default_config_validates(self):
        validated = validate_config(default_config())
        assert validated["seed"] == 20240101


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


class TestCuboid:
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


class TestStiffnessMap:
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

    def test_threaded_run_matches_serial(self, tmp_path):
        config = small_config()
        config["optimize"]["preset"] = "biobjective_front"
        _, out_a = cli(tmp_path, config, "pareto", out_name="a")
        _, out_b = cli(tmp_path, config, "pareto", "--threads", "4", out_name="b")
        assert (out_a / "pareto.csv").read_bytes() == (out_b / "pareto.csv").read_bytes()


class TestReport:
    def test_report_covers_configured_criteria(self, tmp_path):
        code, out = cli(tmp_path, small_config(), "report")
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert set(payload["criteria"]) == {"kinematic", "stiffness", "gie", "acceleration"}
        assert payload["tool"]["name"] == "pkmforge"

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
