"""The benchmark workloads: inputs, one operation, and its correctness gate.

Each workload class builds its inputs in ``__init__`` (the set-up that
``setup_s`` times), runs one operation in ``run`` and checks that
operation's output in ``check``, which returns a list of error strings
(empty when the output is correct).  Only ``synth-c7`` uses the seed; the
other two have fixed inputs.

References were recorded with ``run.py --record-references`` at the commit
that introduced the benchmark.  ``report-49`` and ``thresholds-145`` are
checked against them for every seed; ``synth-c7`` only for the first four
draws of the default seed, and against invariants for any other.  Every
workload also checks invariants that hold for any correct output.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import nullcontext
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20240101
REFERENCES = Path(__file__).with_name("references.json")

# the C7 design problem of the acceptance suite (4 starts, one target)
SYNTH_TARGET = (1.0, 1.0, 0.8)
SYNTH_SIGMA_RANGE = (0.5, 2.0)
THRESHOLDS = tuple(float(t) for t in np.linspace(1.5, 6.0, 8))

# full size versus the tiny smoke size that the harness tests run
SIZES = {
    False: {"report_resolution": None, "synth": (16, 64, 4, 75), "thresholds_resolution": 96},
    True: {"report_resolution": 8, "synth": (8, 16, 4, 30), "thresholds_resolution": 8},
}


def no_span(name: str):
    return nullcontext()


class Workload:
    """One operation is its ``phases`` run in order, each taking the
    previous phase's result; the harness may measure the machine's speed
    between phases."""

    # operations that --record-references runs and stores
    recorded_ops = 1

    def phases(self):
        raise NotImplementedError

    def run(self, span=no_span):
        raw = None
        for phase in self.phases():
            raw = phase(raw, span)
        return raw


def _references(key: str):
    if not REFERENCES.exists():
        return None
    return json.loads(REFERENCES.read_text()).get(key)


def criteria_digest(criteria: dict) -> str:
    """SHA-256 of the report's criteria section in canonical JSON."""
    text = json.dumps(criteria, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _cube_errors(label: str, cube: dict, resolution: int) -> list[str]:
    if not cube["found"]:
        return [f"{label}: no cuboid found"]
    edge = cube["node_edge"]
    span = [hi - lo for lo, hi in zip(cube["index_min"], cube["index_max"])]
    errors = []
    if span != [edge - 1] * 3 or min(cube["index_min"]) < 0:
        errors.append(f"{label}: cube corners {cube['index_min']}..{cube['index_max']} do not span edge {edge}")
    if cube["mu"] != (edge - 1) / resolution:
        errors.append(f"{label}: mu {cube['mu']} does not match edge {edge}")
    return errors


class ReportWorkload(Workload):
    """``pkmforge report`` on ``default_config()``: 4 criteria over 49^3."""

    name = "report-49"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        from pkmforge import cli
        from pkmforge.config import build_grid, default_config, validate_config

        config = default_config()
        resolution = SIZES[smoke]["report_resolution"]
        grid = build_grid(validate_config(config), resolution)
        grid.node_positions()
        self.resolution = grid.resolution
        self.key = f"report-49{'/smoke' if smoke else ''}"
        self.out = workdir / "report"
        config_path = workdir / "report-config.json"
        config_path.write_text(json.dumps(config))
        self.argv = ["report", "--config", str(config_path), "--out", str(self.out)]
        if resolution is not None:
            self.argv += ["--resolution", str(resolution)]
        self._main = cli.main

    def phases(self):
        return (self._report,)

    def _report(self, _, span):
        with span("cli.main"):
            return self._main(self.argv)

    def output(self, exit_code: int) -> dict:
        report = json.loads((self.out / "report.json").read_text())
        return {"exit_code": exit_code, "criteria": report["criteria"]}

    def check(self, output: dict) -> list[str]:
        if output["exit_code"] != 0:
            return [f"report exited with {output['exit_code']}"]
        criteria = output["criteria"]
        errors = []
        if sorted(criteria) != ["acceleration", "gie", "kinematic", "stiffness"]:
            errors.append(f"unexpected criteria {sorted(criteria)}")
        for name, cube in criteria.items():
            errors += _cube_errors(name, cube, self.resolution)
        reference = _references(self.key)
        if reference is not None and criteria_digest(criteria) != reference["criteria_sha256"]:
            errors.append("criteria section differs from the reference")
        return errors

    def reference(self, outputs: list) -> dict:
        return {"criteria_sha256": criteria_digest(outputs[0]["criteria"])}


class SynthWorkload(Workload):
    """One C7-style goal-attainment synthesis and its fine-grid check.

    Four Latin-hypercube starts with 75 evaluations each: 300 design
    evaluations, as many as one start with a budget of 300, but a single
    start from a seeded draw fails to reach a feasible design on some seeds.
    Each operation draws its own four starts from the seed's stream, so a
    run's median spans several draws and depends less on any one of them.
    """

    name = "synth-c7"
    recorded_ops = 4

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        from pkmforge.optimize import goal_attain, latin_hypercube, orthoglide_geometry_problem

        coarse, fine, starts, self.budget = SIZES[smoke]["synth"]
        self.problem = orthoglide_geometry_problem(SYNTH_TARGET, SYNTH_SIGMA_RANGE, resolution=coarse)
        self.fine = orthoglide_geometry_problem(SYNTH_TARGET, SYNTH_SIGMA_RANGE, resolution=fine)
        rng = np.random.default_rng(seed)
        self._draw = lambda: latin_hypercube(self.problem.bounds, starts, rng)
        self.starts = self._draw()
        self.key = f"synth-c7{'/smoke' if smoke else ''}/seed={seed}"
        self._goal_attain = goal_attain
        self._op = 0

    def phases(self):
        return (self._search, self._verify)

    def _search(self, _, span):
        if self._op > 0:
            self.starts = self._draw()
        self._op += 1
        with span("optimize.search"):
            return self._goal_attain(self.problem, self.starts, budget=self.budget)

    def _verify(self, result, span):
        with span("optimize.verify"):
            return result, self.fine.constraints[0].evaluate(result.pi_star)

    def output(self, raw) -> dict:
        result, fine_value = raw
        return {
            "op": self._op - 1,
            "lambda": float(result.lambda_star).hex(),
            "design_sha256": hashlib.sha256(np.ascontiguousarray(result.pi_star).tobytes()).hexdigest(),
            "evaluations": int(result.evaluations),
            "status": result.status,
            "feasible": bool(result.feasible),
            "coarse_value": float(result.constraint_values[0]).hex(),
            "fine_value": float(fine_value).hex(),
        }

    def check(self, output: dict) -> list[str]:
        errors = []
        coarse = float.fromhex(output["coarse_value"])
        if not output["feasible"] or not coarse >= self.problem.constraints[0].bound:
            errors.append(f"design infeasible on the coarse grid (constraint value {coarse})")
        if not math.isfinite(float.fromhex(output["fine_value"])):
            errors.append("fine-grid value is not finite")
        if not math.isfinite(float.fromhex(output["lambda"])):
            errors.append("lambda* is not finite")
        references = _references(self.key) or []
        if output["op"] < len(references) and output != references[output["op"]]:
            errors.append(f"output of draw {output['op']} differs from the reference")
        return errors

    def reference(self, outputs: list) -> list:
        return outputs


class ThresholdsWorkload(Workload):
    """``nested_cuboids`` over one shared condition field at 145^3."""

    name = "thresholds-145"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        from pkmforge.config import build_geometry, build_grid, default_config, validate_config
        from pkmforge.grid import ThresholdPredicate, nested_cuboids
        from pkmforge.kinematics import condition_field

        config = validate_config(default_config())
        self.geometry = build_geometry(config)
        self.spec = build_grid(config, SIZES[smoke]["thresholds_resolution"])
        self.spec.node_positions()
        self.key = f"thresholds-145{'/smoke' if smoke else ''}"
        self._condition_field = condition_field
        self._nested_cuboids = nested_cuboids
        self._predicate = ThresholdPredicate

    def phases(self):
        return (self._sweep,)

    def _sweep(self, _, span):
        field = self._condition_field(self.geometry)
        family = lambda bound: self._predicate(field, bound, "below")  # noqa: E731
        return family, self._nested_cuboids(self.spec, family, THRESHOLDS)

    def output(self, raw) -> dict:
        family, results = raw
        positions = self.spec.node_positions()
        cubes = []
        for threshold, result in zip(THRESHOLDS, results):
            cube = result.to_dict()
            # the field caches its sweep, so re-thresholding it costs no sweep
            mask = family(threshold).batch(positions).reshape(self.spec.dims)
            if cube["found"]:
                lo, hi = cube["index_min"], cube["index_max"]
                block = mask[lo[0] : hi[0] + 1, lo[1] : hi[1] + 1, lo[2] : hi[2] + 1]
                cube["all_true"] = bool(block.size) and bool(block.all())
            cubes.append(cube)
        return {"cubes": cubes}

    def check(self, output: dict) -> list[str]:
        cubes = output["cubes"]
        errors = []
        for threshold, cube in zip(THRESHOLDS, cubes):
            label = f"cond_max {threshold:g}"
            errors += _cube_errors(label, cube, self.spec.resolution)
            if cube["found"] and not cube.get("all_true"):
                errors.append(f"{label}: reported cube is not all-true in its mask")
        edges = [cube["node_edge"] for cube in cubes]
        if len(edges) != len(THRESHOLDS) or edges != sorted(edges):
            errors.append(f"edges {edges} decrease as the threshold loosens")
        reference = _references(self.key)
        if reference is not None and self.reference([output]) != reference:
            errors.append("edges or anchors differ from the reference")
        return errors

    def reference(self, outputs: list) -> dict:
        cubes = outputs[0]["cubes"]
        return {"edges": [c["node_edge"] for c in cubes], "anchors": [c["index_max"] for c in cubes]}


WORKLOADS = {w.name: w for w in (ReportWorkload, SynthWorkload, ThresholdsWorkload)}
