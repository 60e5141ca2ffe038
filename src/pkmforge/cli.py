"""Command-line orchestration: per-criterion grid maps, inscribed-cuboid
metrics, the stiffness map, design optimization, and run reports.

Exit codes: 0 ok, 2 configuration error, 3 numeric failure, 4 infeasible
design problem.  The PKM_FORGE_LOG environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    build_dynamics,
    build_geometry,
    build_grid,
    build_stiffness,
    load_config,
    require_section,
)
from .dynamics import acceleration_predicate, gie_predicate
from .errors import Infeasible, PkmforgeError
from .grid import GridSpec, evaluate_mask, largest_cuboid, save_mask
from .kinematics import condition_field, transmission_predicate
from .optimize import (
    analytic_preset,
    goal_attain,
    latin_hypercube,
    orthoglide_geometry_problem,
    pareto_sweep,
)
from .stiffness import stiffness_predicate

log = logging.getLogger("pkmforge")

CRITERIA = ("kinematic", "stiffness", "gie", "acceleration")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4


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


def _wants(config: dict, fmt: str) -> bool:
    """Format toggle for the bulk data exports (primary results always write)."""
    return fmt in config.get("output", {}).get("formats", ["csv", "json"])


def _criterion(config: dict, name: str):
    """Value field and feasibility predicate for a named criterion."""
    geometry = build_geometry(config)
    if name == "kinematic":
        section = config.get("kinematic", {})
        cond_max = section.get("cond_max")
        sigma_range = section.get("sigma_range")
        predicate = transmission_predicate(
            geometry,
            cond_max=cond_max,
            sigma_range=tuple(sigma_range) if sigma_range else None,
        )
        return condition_field(geometry), predicate
    if name == "stiffness":
        model, spec = build_stiffness(config)
        predicate = stiffness_predicate(model, spec)
    elif name == "gie":
        model, spec = build_dynamics(config)
        predicate = gie_predicate(geometry, model, spec)
    elif name == "acceleration":
        model, spec = build_dynamics(config)
        predicate = acceleration_predicate(geometry, model, spec)
    else:
        raise ConfigError(f"unknown criterion {name!r}; choose from {CRITERIA}")
    return predicate.field, predicate


def _write_map_csv(path: Path, spec: GridSpec, values: np.ndarray, feasible: np.ndarray) -> None:
    positions = spec.node_positions()
    with open(path, "w", newline="") as handle:
        handle.write("x,y,z,value,feasible\n")
        for row, value, flag in zip(positions, values, feasible):
            handle.write(
                f"{_format(row[0])},{_format(row[1])},{_format(row[2])},"
                f"{_format(float(value))},{int(flag)}\n"
            )


def _evaluate_criterion(config: dict, name: str, resolution: int | None):
    spec = build_grid(config, resolution)
    field, predicate = _criterion(config, name)
    positions = spec.node_positions()
    values = field.batch(positions)
    mask = evaluate_mask(spec, predicate)
    return spec, values, mask


def cmd_grid_eval(config: dict, args) -> int:
    out = _out_dir(config, args)
    spec, values, mask = _evaluate_criterion(config, args.criterion, args.resolution)
    if _wants(config, "csv"):
        _write_map_csv(out / f"{args.criterion}_map.csv", spec, values, mask.data.ravel())
    save_mask(out / f"{args.criterion}_mask.npz", mask)
    print(f"{args.criterion}: {mask.count()} of {mask.data.size} nodes feasible")
    return EXIT_OK


def cmd_cuboid(config: dict, args) -> int:
    out = _out_dir(config, args)
    spec, _, mask = _evaluate_criterion(config, args.criterion, args.resolution)
    result = largest_cuboid(mask, spec)
    payload = {"criterion": args.criterion, "resolution": spec.resolution, **result.to_dict()}
    _write_json(out / f"{args.criterion}_cuboid.json", payload)
    print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_stiffness_map(config: dict, args) -> int:
    out = _out_dir(config, args)
    spec = build_grid(config, args.resolution)
    model, stiffness_spec = build_stiffness(config)
    positions = spec.node_positions()
    _, minimum_stiffness = model.batch_min_translational_stiffness(positions)
    _, deflections = model.batch_deflection(positions, stiffness_spec.load)
    path = out / "stiffness_k_map.csv"
    with open(path, "w", newline="") as handle:
        handle.write("x,y,z,k_trans_min,deflection_norm\n")
        for row, k_min, deflection in zip(positions, minimum_stiffness, deflections):
            handle.write(
                f"{_format(row[0])},{_format(row[1])},{_format(row[2])},"
                f"{_format(float(k_min))},{_format(float(deflection))}\n"
            )
    print(f"stiffness map written to {path}")
    return EXIT_OK


def _run_optimize(config: dict, args):
    """Solve the configured design problem; returns the result payload."""
    section = require_section(config, "optimize")
    preset = section.get("preset", "orthoglide")
    seed = args.seed if args.seed is not None else config["seed"]
    rng = np.random.default_rng(seed)
    budget = section.get("budget", 600)
    n_starts = section.get("starts", 4)

    if preset == "orthoglide":
        target = tuple(section["target"])
        sigma_range = tuple(section["sigma_range"])
        coarse = args.resolution or section.get("coarse_resolution", 16)
        fine = section.get("fine_resolution", 64)
        box = {
            "length_bounds": tuple(section.get("length_bounds", (0.7, 3.0))),
            "span_bounds": tuple(section.get("span_bounds", (0.4, 3.4))),
        }
        problem = orthoglide_geometry_problem(target, sigma_range, resolution=coarse, **box)
        starts = latin_hypercube(problem.bounds, n_starts, rng)
        result = goal_attain(problem, starts, budget=budget)
        fine_problem = orthoglide_geometry_problem(target, sigma_range, resolution=fine, **box)
        fine_margin = fine_problem.constraints[0].bound
        fine_value = fine_problem.constraints[0].evaluate(result.pi_star)
        extras = {
            "preset": preset,
            "target": list(target),
            "sigma_range": list(sigma_range),
            "leg_lengths": result.pi_star[:3],
            "joint_spans": result.pi_star[3:],
            "fine_resolution": fine,
            "fine_constraint_value": fine_value,
            "fine_constraint_margin": fine_margin,
            "fine_feasible": bool(fine_value >= 0.0),
        }
    else:
        problem, _ = analytic_preset(preset)
        starts = latin_hypercube(problem.bounds, n_starts, rng)
        result = goal_attain(problem, starts, budget=budget)
        extras = {"preset": preset}

    attainment = "over-attained" if result.lambda_star < 0 else "under-attained"
    if abs(result.lambda_star) <= 1e-12:
        attainment = "exactly attained"
    payload = {
        "design": result.pi_star,
        "lambda": result.lambda_star,
        "feasible": result.feasible,
        "status": result.status,
        "evaluations": result.evaluations,
        "objective_values": result.objective_values,
        "constraint_values": result.constraint_values,
        "attainment": attainment,
        "seed": seed,
        **extras,
    }
    return result, payload


def cmd_optimize(config: dict, args) -> int:
    out = _out_dir(config, args)
    result, payload = _run_optimize(config, args)
    _write_json(out / "attainment.json", payload)
    print(
        f"lambda* = {result.lambda_star:.6g} ({payload['attainment']}), "
        f"design = {np.array2string(result.pi_star, precision=6)}, "
        f"status = {result.status}, evaluations = {result.evaluations}"
    )
    if result.status == "budget_exhausted":
        print("warning: evaluation budget exhausted; reported design is best-so-far", file=sys.stderr)
    return EXIT_OK


def cmd_pareto(config: dict, args) -> int:
    out = _out_dir(config, args)
    section = require_section(config, "optimize")
    preset = section.get("preset", "orthoglide")
    seed = args.seed if args.seed is not None else config["seed"]
    rng = np.random.default_rng(seed)
    budget = section.get("budget", 600)
    n_starts = section.get("starts", 4)

    if preset == "orthoglide":
        coarse = args.resolution or section.get("coarse_resolution", 16)
        problem = orthoglide_geometry_problem(
            tuple(section["target"]),
            tuple(section["sigma_range"]),
            resolution=coarse,
            length_bounds=tuple(section.get("length_bounds", (0.7, 3.0))),
            span_bounds=tuple(section.get("span_bounds", (0.4, 3.4))),
        )
        weights = section.get("pareto_weights")
        if weights is None:
            raise ConfigError("optimize.pareto_weights is required for the orthoglide pareto sweep")
    else:
        problem, default_weights = analytic_preset(preset)
        weights = section.get("pareto_weights", default_weights)
        if weights is None:
            raise ConfigError(f"preset {preset!r} defines no default pareto weights")

    starts = latin_hypercube(problem.bounds, n_starts, rng)
    front = pareto_sweep(problem, [np.asarray(w) for w in weights], starts, budget=budget, threads=args.threads)

    if _wants(config, "csv"):
        n_obj = len(problem.objectives)
        n_dim = problem.design_dim
        with open(out / "pareto.csv", "w", newline="") as handle:
            header = (
                [f"w_{i}" for i in range(n_obj)]
                + [f"pi_{i}" for i in range(n_dim)]
                + [f"f_{i}" for i in range(n_obj)]
                + ["lambda"]
            )
            handle.write(",".join(header) + "\n")
            for point in front.points:
                cells = (
                    [_format(v) for v in point.weights]
                    + [_format(v) for v in point.design]
                    + [_format(v) for v in point.objectives]
                    + [_format(point.attainment)]
                )
                handle.write(",".join(cells) + "\n")
    _write_json(
        out / "pareto.json",
        {
            "preset": preset,
            "points": [
                {
                    "weights": p.weights,
                    "design": p.design,
                    "objectives": p.objectives,
                    "lambda": p.attainment,
                }
                for p in front.points
            ],
            "failures": [{"weights": w, "error": e} for w, e in front.failures],
            "seed": seed,
        },
    )
    print(f"pareto front: {len(front.points)} points, {len(front.failures)} failures")
    return EXIT_OK


def cmd_report(config: dict, args) -> int:
    out = _out_dir(config, args)
    started = time.perf_counter()
    criteria = ["kinematic"]
    if "stiffness" in config:
        criteria.append("stiffness")
    if "dynamics" in config:
        criteria.extend(["gie", "acceleration"])
    results = {}
    timing = {}
    for name in criteria:
        t0 = time.perf_counter()
        spec, _, mask = _evaluate_criterion(config, name, args.resolution)
        results[name] = largest_cuboid(mask, spec).to_dict()
        timing[name] = time.perf_counter() - t0
    timing["total"] = time.perf_counter() - started
    payload = {
        "tool": {"name": "pkmforge", "version": __version__},
        "config": config,
        "criteria": results,
        "optimizer": None,
        "timing": timing,
    }
    _write_json(out / "report.json", payload)
    print(f"report written for criteria: {', '.join(criteria)}")
    return EXIT_OK


def _out_dir(config: dict, args) -> Path:
    directory = args.out or config.get("output", {}).get("directory", "out")
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkmforge",
        description="Workspace-metric design toolkit for Orthoglide-class parallel manipulators",
    )
    parser.add_argument("--version", action="version", version=f"pkmforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, criterion=False):
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", help="output directory (default: config output.directory)")
        p.add_argument("--resolution", type=int, help="override the grid resolution N0")
        if criterion:
            p.add_argument("--criterion", required=True, choices=CRITERIA)
        return p

    common(sub.add_parser("grid-eval", help="write the per-node metric map and mask"), criterion=True)
    common(sub.add_parser("cuboid", help="largest inscribed cuboid for a criterion"), criterion=True)
    common(sub.add_parser("stiffness-map", help="write the stiffness/deflection map"))
    optimize = common(sub.add_parser("optimize", help="run the configured design optimization"))
    pareto = common(sub.add_parser("pareto", help="sweep goal-attainment weights into a Pareto set"))
    common(sub.add_parser("report", help="run every configured criterion and write a report"))
    for p in (optimize, pareto):
        p.add_argument("--seed", type=int, help="override the config seed")
    pareto.add_argument("--threads", type=int, default=1, help="worker threads for the weight sweep")
    return parser


_COMMANDS = {
    "grid-eval": cmd_grid_eval,
    "cuboid": cmd_cuboid,
    "stiffness-map": cmd_stiffness_map,
    "optimize": cmd_optimize,
    "pareto": cmd_pareto,
    "report": cmd_report,
}


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("PKM_FORGE_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (PkmforgeError, np.linalg.LinAlgError, ValueError) as exc:
        log.debug("numeric failure", exc_info=exc)
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
