"""Command-line orchestration: per-criterion grid maps, inscribed-cuboid
metrics, the stiffness map, design optimization, and run reports.

Exit codes: 0 ok, 2 configuration error (also a configured value that a
model object rejects), 3 numeric failure, 4 infeasible design problem.  Any
other exception, a ValueError included, propagates.  The PKM_FORGE_LOG
environment variable sets the level of the ``pkmforge`` logger, and of the
root logger when logging is not yet configured; an unknown level name
exits 2.
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
    config_builder,
    load_config,
)
from .dynamics import acceleration_predicate, gie_predicate
from .errors import Infeasible, PkmforgeError
from .grid import evaluate_mask, largest_cuboid, save_mask
from .kinematics import transmission_predicate
from .optimize import (
    analytic_preset,
    goal_attain,
    latin_hypercube,
    orthoglide_geometry_problem,
    pareto_sweep,
)
from .stiffness import min_translational_stiffness, stiffness_predicate, translational_deflection

log = logging.getLogger("pkmforge")

CRITERIA = ("kinematic", "stiffness", "gie", "acceleration")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4


def _write_json(path: Path, payload: dict) -> str:
    """Write ``payload`` as indented JSON with sorted keys; numpy values
    become their Python equivalents.  Returns the text without its newline."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda obj: obj.tolist())
    path.write_text(text + "\n")
    return text


def _write_csv(path: Path, header, rows) -> None:
    """Write the header, then one line per row of numbers, each cell in ``%.17g``."""
    table = np.asarray(rows, float).reshape(len(rows), len(header))
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


@config_builder
def _criterion(config: dict, name: str):
    """Feasibility predicate of a named criterion; its value field is ``predicate.field``."""
    geometry = build_geometry(config)
    if name == "kinematic":
        section = config["kinematic"]
        sigma_range = section["sigma_range"]
        return transmission_predicate(
            geometry,
            cond_max=section["cond_max"],
            sigma_range=tuple(sigma_range) if sigma_range else None,
        )
    if name == "stiffness":
        model, spec = build_stiffness(config)
        return stiffness_predicate(model, spec)
    if name == "gie":
        model, spec = build_dynamics(config)
        return gie_predicate(geometry, model, spec)
    if name == "acceleration":
        model, spec = build_dynamics(config)
        return acceleration_predicate(geometry, model, spec)
    raise ConfigError(f"unknown criterion {name!r}; choose from {CRITERIA}")


def cmd_grid_eval(config: dict, args) -> int:
    out = _out_dir(config, args)
    spec = build_grid(config, args.resolution)
    predicate = _criterion(config, args.criterion)
    mask = evaluate_mask(spec, predicate)
    if "csv" in config["output"]["formats"]:
        positions = spec.node_positions()
        table = np.column_stack([positions, predicate.field.batch(positions), mask.data.ravel()])
        _write_csv(out / f"{args.criterion}_map.csv", ("x", "y", "z", "value", "feasible"), table)
    save_mask(out / f"{args.criterion}_mask.npz", mask)
    print(f"{args.criterion}: {mask.count()} of {mask.data.size} nodes feasible")
    return EXIT_OK


def cmd_cuboid(config: dict, args) -> int:
    out = _out_dir(config, args)
    spec = build_grid(config, args.resolution)
    result = largest_cuboid(evaluate_mask(spec, _criterion(config, args.criterion)), spec)
    payload = {"criterion": args.criterion, "resolution": spec.resolution, **result.to_dict()}
    print(_write_json(out / f"{args.criterion}_cuboid.json", payload))
    return EXIT_OK


def cmd_stiffness_map(config: dict, args) -> int:
    out = _out_dir(config, args)
    positions = build_grid(config, args.resolution).node_positions()
    model, stiffness_spec = build_stiffness(config)
    valid, stiffness = model.batch_cartesian_stiffness(positions)
    _, deflections = translational_deflection(valid, stiffness, stiffness_spec.load)
    table = np.column_stack([positions, min_translational_stiffness(valid, stiffness), deflections])
    path = out / "stiffness_k_map.csv"
    _write_csv(path, ("x", "y", "z", "k_trans_min", "deflection_norm"), table)
    print(f"stiffness map written to {path}")
    return EXIT_OK


@config_builder
def _design_problem(config: dict, resolution: int | None):
    """The configured design problem and its preset's default Pareto weights
    (or None); an orthoglide grid has ``resolution`` (default: coarse)."""
    section = config["optimize"]
    if section["preset"] != "orthoglide":
        return analytic_preset(section["preset"])
    problem = orthoglide_geometry_problem(
        tuple(section["target"]),
        tuple(section["sigma_range"]),
        resolution=resolution or section["coarse_resolution"],
        length_bounds=tuple(section["length_bounds"]),
        span_bounds=tuple(section["span_bounds"]),
    )
    return problem, None


def _starts(config: dict, seed: int | None, problem):
    """The run's seed (``seed`` overrides the config's) and its LHS starts."""
    seed = config["seed"] if seed is None else seed
    rng = np.random.default_rng(seed)
    return seed, latin_hypercube(problem.bounds, config["optimize"]["starts"], rng)


def cmd_optimize(config: dict, args) -> int:
    out = _out_dir(config, args)
    section = config["optimize"]
    preset = section["preset"]
    problem, _ = _design_problem(config, args.resolution)
    seed, starts = _starts(config, args.seed, problem)
    result = goal_attain(problem, starts, budget=section["budget"])
    extras = {"preset": preset}
    if preset == "orthoglide":
        fine = section["fine_resolution"]
        fine_constraint = _design_problem(config, fine)[0].constraints[0]
        fine_value = fine_constraint.evaluate(result.pi_star)
        extras.update(
            {
                "target": list(section["target"]),
                "sigma_range": list(section["sigma_range"]),
                "leg_lengths": result.pi_star[:3],
                "joint_spans": result.pi_star[3:],
                "fine_resolution": fine,
                "fine_constraint_value": fine_value,
                "fine_constraint_margin": fine_constraint.bound,
                "fine_feasible": bool(fine_value >= 0.0),
            }
        )

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
    _write_json(out / "attainment.json", payload)
    print(
        f"lambda* = {result.lambda_star:.6g} ({attainment}), "
        f"design = {np.array2string(result.pi_star, precision=6)}, "
        f"status = {result.status}, evaluations = {result.evaluations}"
    )
    if result.status == "budget_exhausted":
        print("warning: evaluation budget exhausted; reported design is best-so-far", file=sys.stderr)
    return EXIT_OK


def cmd_pareto(config: dict, args) -> int:
    out = _out_dir(config, args)
    section = config["optimize"]
    preset = section["preset"]
    problem, default_weights = _design_problem(config, args.resolution)
    weights = section.get("pareto_weights", default_weights)
    if weights is None:
        raise ConfigError(f"optimize.pareto_weights is required: preset {preset!r} has no default weights")
    seed, starts = _starts(config, args.seed, problem)
    front = pareto_sweep(problem, [np.asarray(w) for w in weights], starts, budget=section["budget"])

    if "csv" in config["output"]["formats"]:
        n_obj = len(problem.objectives)
        header = (
            [f"w_{i}" for i in range(n_obj)]
            + [f"pi_{i}" for i in range(problem.design_dim)]
            + [f"f_{i}" for i in range(n_obj)]
            + ["lambda"]
        )
        rows = [[*p.weights, *p.design, *p.objectives, p.attainment] for p in front.points]
        _write_csv(out / "pareto.csv", header, rows)
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
    spec = build_grid(config, args.resolution)
    results = {}
    timing = {}
    for name in criteria:
        t0 = time.perf_counter()
        results[name] = largest_cuboid(evaluate_mask(spec, _criterion(config, name)), spec).to_dict()
        timing[name] = time.perf_counter() - t0
    timing["total"] = time.perf_counter() - started
    payload = {
        "tool": {"name": "pkmforge", "version": __version__},
        "config": config,
        "criteria": results,
        "timing": timing,
    }
    _write_json(out / "report.json", payload)
    print(f"report written for criteria: {', '.join(criteria)}")
    return EXIT_OK


def _out_dir(config: dict, args) -> Path:
    path = Path(args.out or config["output"]["directory"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def int_at_least(low: int):
    """An argparse type that reads an integer no less than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkmforge",
        description="Workspace-metric design toolkit for Orthoglide-class parallel manipulators",
    )
    parser.add_argument("--version", action="version", version=f"pkmforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, criterion=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", help="output directory (default: config output.directory)")
        p.add_argument("--resolution", type=int_at_least(1), help="override the grid resolution N0 (>= 1)")
        if criterion:
            p.add_argument("--criterion", required=True, choices=CRITERIA)
        return p

    command("grid-eval", cmd_grid_eval, "write the per-node metric map and mask", criterion=True)
    command("cuboid", cmd_cuboid, "largest inscribed cuboid for a criterion", criterion=True)
    command("stiffness-map", cmd_stiffness_map, "write the stiffness/deflection map")
    optimize = command("optimize", cmd_optimize, "run the configured design optimization")
    pareto = command("pareto", cmd_pareto, "sweep goal-attainment weights into a Pareto set")
    command("report", cmd_report, "run every configured criterion and write a report")
    for p in (optimize, pareto):
        p.add_argument("--seed", type=int_at_least(0), help="override the config seed (>= 0)")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("PKM_FORGE_LOG", "WARNING").upper()
    # a known name maps to its number, an unknown one to the text "Level <name>"
    if not isinstance(logging.getLevelName(level), int):
        message = f"PKM_FORGE_LOG={level!r} is not a log level; use DEBUG, INFO, WARNING, ERROR or CRITICAL"
        print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    # basicConfig does nothing once the root logger has a handler, as in a
    # process that configured logging before calling main
    logging.basicConfig(level=level)
    log.setLevel(level)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.handler(config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (PkmforgeError, np.linalg.LinAlgError) as exc:
        log.debug("numeric failure", exc_info=exc)
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
