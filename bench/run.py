"""pkmforge benchmark harness.

Run from the root of a source checkout:

    python3 bench/run.py --workload report-49 --seed 1 --seconds 35 --trace 0

One caller runs the workload's operation in a closed loop (the next
operation starts when the previous one returns) for about ``--seconds``,
checks every operation's output and prints, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is a JSON stamp of the
environment and the sample count behind each metric.

``--trace 0`` reports the end-to-end metrics: the median operation time,
the median of several set-ups, each timed in a fresh interpreter, and the
peak resident memory.  Times are scaled by a calibration kernel measured
between operations, so that the machine's own swings in speed cancel (see
README.md).  ``--trace 1`` runs one untraced operation, then
installs span wrappers at the package's call sites (see ``tracing.py``)
and reports the per-layer metrics of the traced operations.  ``--smoke``
shrinks every grid so a run takes seconds; the harness tests use it.
"""

import time

_STARTED = time.perf_counter()  # a set-up is timed from here, before numpy loads

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# a typical time of calibration_kernel() on the machine the benchmark was
# written on (2 vCPUs of a 2.0 GHz Xeon); reported times are scaled to it
CALIBRATION_REFERENCE_S = 0.15
CALIBRATION_REPEATS = 3


def add_source_path() -> bool:
    """Import pkmforge from the checkout's ``src``; False when it is absent."""
    if not (SOURCE / "pkmforge" / "__init__.py").is_file():
        return False
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    return True


def parse_args(argv):
    parser = argparse.ArgumentParser(description="pkmforge benchmark harness")
    parser.add_argument("--workload", choices=("report-49", "synth-c7", "thresholds-145"))
    parser.add_argument("--seed", type=int, default=20240101)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, for the harness tests")
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and print it")
    parser.add_argument(
        "--record-references",
        action="store_true",
        help="rewrite references.json from this checkout (only when an output change is intended)",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_references:
        parser.error("--workload is required")
    return args


def calibration_kernel():
    """Fixed interpreter, memory-streaming and batched 3x3 work, no pkmforge code.

    The array is allocated afresh each call, so page faults count as they
    do in the workloads' large temporaries.
    """
    import numpy as np

    total = 0
    for i in range(200_000):
        total += i * i
    a = np.linspace(0.0, 1.0, 4_000_000)
    for _ in range(3):
        a = np.sqrt(a * a + 1.0)
    m = np.linspace(0.0, 1.0, 9 * 50_000).reshape(50_000, 3, 3)
    for _ in range(3):
        np.einsum("nji,njk->nik", m, m)
    return total


def machine_speed() -> float:
    """Median calibration time now, over the reference time: above 1 is slower."""
    samples = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        calibration_kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) / CALIBRATION_REFERENCE_S


def _untraced_op(workload, speed: float):
    """One operation, phase by phase; returns (raw, wall, scaled wall, speed).

    A phase's scaled wall is its wall time divided by the mean of the
    machine speeds measured just before and just after it.
    """
    from workloads import no_span

    raw = None
    wall = scaled = 0.0
    for phase in workload.phases():
        t0 = time.perf_counter()
        raw = phase(raw, no_span)
        elapsed = time.perf_counter() - t0
        after = machine_speed()
        wall += elapsed
        scaled += elapsed / (0.5 * (speed + after))
        speed = after
    return raw, wall, scaled, speed


def run_ops(workload, seconds: float, tracer=None):
    """Closed loop of checked operations.

    Returns (walls, scaled walls, attempted, failed).  Traced, an
    operation's phases run back to back inside one traced operation and the
    machine's speed is measured only between operations.  A new operation
    starts only while the elapsed time plus the median operation time stays
    within ``seconds``; at least one always runs.
    """
    walls = []
    scaled = []
    failed = 0
    started = time.perf_counter()
    speed = machine_speed()
    while True:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw, wall, scaled_wall, speed = _untraced_op(workload, speed)
            else:
                with tracer.operation():
                    raw = workload.run(tracer.span)
                wall = time.perf_counter() - t0
                after = machine_speed()
                scaled_wall = wall / (0.5 * (speed + after))
                speed = after
        except Exception:  # noqa: BLE001 - a raising operation counts as failed
            errors = [traceback.format_exc()]
            wall = scaled_wall = time.perf_counter() - t0
            speed = machine_speed()
        else:
            try:
                errors = workload.check(workload.output(raw))
            except Exception:  # noqa: BLE001 - so does output the gate cannot read
                errors = [traceback.format_exc()]
        walls.append(wall)
        scaled.append(scaled_wall)
        if errors:
            failed += 1
            print(f"{workload.name}: operation failed: {errors}", file=sys.stderr)
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            return walls, scaled, len(walls), failed


def time_setups(args, count: int) -> tuple[list[float], list[float]]:
    """Set-up times, each measured by a fresh interpreter, raw and scaled."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    command += ["--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    samples = []
    speed = machine_speed()
    for _ in range(count):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    speed = 0.5 * (speed + machine_speed())
    return samples, [sample / speed for sample in samples]


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    try:
        with open("/proc/self/maps") as maps:
            libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def stamp(args, notes: dict) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SOURCE / "pkmforge").rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        **notes,
    }


def end_to_end(args, workload) -> tuple[dict, dict, int, int]:
    """End-to-end metrics, with times scaled to the reference machine speed."""
    setups, scaled_setups = time_setups(args, 1 if args.smoke else SETUP_REPEATS)
    walls, scaled, attempted, failed = run_ops(workload, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": statistics.median(scaled_setups), "unit": "s"},
        "op_s": {"value": statistics.median(scaled), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    notes = {
        "samples": {"setup_s": len(setups), "op_s": len(walls), "peak_rss_mb": 1},
        "unscaled_s": {"setup_s": statistics.median(setups), "op_s": statistics.median(walls)},
    }
    return metrics, notes, attempted, failed


def per_layer(args, workload, make_workload) -> tuple[dict, dict, int, int]:
    """Per-layer metrics.  The traced operations run on a fresh workload, so
    the first repeats the untraced one's inputs; ``trace.overhead_ratio``
    compares the two."""
    from tracing import UNITS, CallSites, Tracer, layer_metrics

    started = time.perf_counter()
    _, untraced, attempted, failed = run_ops(workload, 0.0)
    tracer = Tracer()
    sites = CallSites(tracer)
    try:
        sites.install()
        remaining = args.seconds - (time.perf_counter() - started)
        _, traced, traced_attempted, traced_failed = run_ops(make_workload(), remaining, tracer)
    finally:
        sites.uninstall()
    values = layer_metrics(tracer)
    values["trace.overhead_ratio"] = traced[0] / untraced[0]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    criterion_samples = sum(1 for s in tracer.spans if s.name == "grid.largest_cuboid")
    samples = {name: len(tracer.op_walls) for name in UNITS}
    samples.update({"grid.criterion_ms.p50": criterion_samples, "grid.criterion_ms.p90": criterion_samples})
    samples["trace.overhead_ratio"] = len(untraced)
    return metrics, {"samples": samples}, attempted + traced_attempted, failed + traced_failed


def record_references() -> None:
    from workloads import DEFAULT_SEED, REFERENCES, WORKLOADS

    references = {}
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        for smoke in (True, False):
            for cls in WORKLOADS.values():
                workload = cls(DEFAULT_SEED, smoke, Path(workdir))
                outputs = [workload.output(workload.run()) for _ in range(workload.recorded_ops)]
                references[workload.key] = workload.reference(outputs)
                print(f"recorded {workload.key}", file=sys.stderr)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not add_source_path():
        print(f"pkmforge source not found under {SOURCE}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.record_references:
        record_references()
        return 0
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        def make_workload():
            return WORKLOADS[args.workload](args.seed, args.smoke, Path(workdir))

        workload = make_workload()
        if args.setup_only:
            print(time.perf_counter() - _STARTED)
            return 0
        if args.trace:
            metrics, notes, attempted, failed = per_layer(args, workload, make_workload)
        else:
            metrics, notes, attempted, failed = end_to_end(args, workload)
    print(json.dumps({"stamp": stamp(args, notes)}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH_DIR))
    sys.exit(main())
