"""The SHA-256 of every pinned CLI output, as one JSON document.

Each command of ``RUNS`` runs in-process through ``pkmforge.cli.main`` in a
temporary directory.  The document names the platform, since the last bits
of a map or a cuboid depend on numpy and its BLAS, and maps each output to
its hash.  ``report.json`` is hashed as ``json.dumps(report, sort_keys=True)``
with its ``timing`` section removed, which differs between any two runs.

    python tests/output_hashes.py > tests/output_hashes.json

regenerates the manifest that ``tests/test_output_hashes.py`` checks.  CI
compares the document between all CPUs and one, and between a pull
request's base and head trees (``PYTHONPATH`` on the base's ``src``).
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from pkmforge.cli import CRITERIA, main
from pkmforge.config import default_config


def configs() -> dict:
    """``default_config()`` and the variants that ``RUNS`` name."""
    variants = {name: default_config() for name in ("default", "sigma-range", "orthoglide", "symmetric", "biobjective")}
    variants["sigma-range"]["kinematic"]["sigma_range"] = [0.6, 1.8]
    weights = [[1, 1, 0.8], [0.8, 1, 1]]
    variants["orthoglide"]["optimize"].update(
        coarse_resolution=8, fine_resolution=16, budget=40, starts=2, pareto_weights=weights
    )
    variants["symmetric"]["optimize"]["preset"] = "symmetric_quadratics"
    variants["biobjective"]["optimize"]["preset"] = "biobjective_front"
    # unequal legs and limits, a mixed assembly, and a grid that is neither
    # cubic nor centred, so no two legs see the same lever triples
    variants["asymmetric"] = default_config()
    variants["asymmetric"]["geometry"].update(
        leg_lengths=[1.0, 1.15, 0.9],
        joint_limits=[[-1.9, -0.1], [0.05, 2.0], [-1.7, -0.15]],
        assembly_signs=[-1, 1, -1],
    )
    variants["asymmetric"]["grid"].update(origin=[-0.7, -0.8, -0.55], proportions=[1.0, 1.2, 0.8], dims=[41, 49, 37])
    # the required keys plus stiffness and a dynamics section without
    # acceleration_mode, so every other key comes from the schema's defaults
    required = default_config()
    del required["geometry"]["assembly_signs"], required["dynamics"]["acceleration_mode"]
    keys = ("schema_version", "geometry", "grid", "stiffness", "dynamics")
    variants["required-keys"] = {key: required[key] for key in keys}
    return variants


# (config, command line, files it writes)
RUNS = [
    *(
        (
            "default",
            f"grid-eval --criterion {criterion} --resolution {resolution}",
            [f"{criterion}_map.csv", f"{criterion}_mask.npz"],
        )
        for resolution in (12, 16)
        for criterion in CRITERIA
    ),
    *(
        ("default", f"cuboid --criterion {criterion} --resolution 12", [f"{criterion}_cuboid.json"])
        for criterion in CRITERIA
    ),
    ("default", "stiffness-map --resolution 12", ["stiffness_k_map.csv"]),
    ("default", "stiffness-map --resolution 16", ["stiffness_k_map.csv"]),
    # the config's own grid, 49 nodes a side
    ("default", "stiffness-map", ["stiffness_k_map.csv"]),
    # several transmission blocks, so the threaded kinematic sweep is pinned
    ("default", "grid-eval --criterion kinematic", ["kinematic_map.csv", "kinematic_mask.npz"]),
    ("default", "cuboid --criterion kinematic", ["kinematic_cuboid.json"]),
    ("default", "report --resolution 12", ["report.json"]),
    ("default", "report --resolution 8", ["report.json"]),
    ("sigma-range", "grid-eval --criterion kinematic --resolution 12", ["kinematic_map.csv", "kinematic_mask.npz"]),
    ("required-keys", "cuboid --criterion kinematic", ["kinematic_cuboid.json"]),
    ("required-keys", "report --resolution 8", ["report.json"]),
    ("orthoglide", "optimize", ["attainment.json"]),
    ("orthoglide", "pareto", ["pareto.csv", "pareto.json"]),
    ("symmetric", "optimize", ["attainment.json"]),
    ("biobjective", "pareto", ["pareto.csv", "pareto.json"]),
    ("asymmetric", "stiffness-map --resolution 16", ["stiffness_k_map.csv"]),
    *(
        ("asymmetric", f"grid-eval --criterion stiffness --resolution {resolution}", ["stiffness_map.csv", "stiffness_mask.npz"])
        for resolution in (12, 16)
    ),
]


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":
        report = json.loads(data)
        del report["timing"]
        data = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def platform() -> dict:
    """numpy's version and its BLAS's name, version and OpenBLAS configuration."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas version": blas.get("version", "unknown"),
        "openblas configuration": blas.get("openblas configuration", "unknown"),
    }


def output_hashes() -> dict:
    """``{name: sha256}`` of every output of ``RUNS``."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, config in configs().items():
            (tmp / f"{name}.json").write_text(json.dumps(config))
        for index, (name, command, files) in enumerate(RUNS):
            out = tmp / str(index)
            argv = [*command.split(), "--config", str(tmp / f"{name}.json"), "--out", str(out)]
            # cuboid prints its JSON, which would interleave with the document
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"pkmforge {command} on the {name} config exited {code}")
            for file in files:
                hashes[f"{name}: {command}: {file}"] = _digest(out / file)
    return hashes


if __name__ == "__main__":
    json.dump({"platform": platform(), "outputs": output_hashes()}, sys.stdout, indent=2)
    print()
