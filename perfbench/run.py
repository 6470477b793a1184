"""Closed-loop benchmark of the mqpure command-line interface.

One client in one process calls ``mqpure.cli.main(argv)`` in-process,
starting each op when the previous one has finished and checking every
op's outputs.  BLAS keeps its default thread count, which is recorded.

    python3 perfbench/run.py --workload hexagon-pipeline --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics, with spans written to ``.perfbench/``.  ``--workload
all`` runs every workload in a fresh process and prints one table.  The
last line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# An untraced run times its own set-up and repeats it in fresh child
# processes, at least SETUP_PROBES times and for at least
# SETUP_PROBE_SECONDS, so that a cheap set-up gets more samples.
SETUP_PROBES = 2
SETUP_PROBE_SECONDS = 2.0

# op_s.tail needs this many samples beyond the percentile it reports.
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the seconds it took, and exit")
    return parser.parse_args(argv)


def set_up(workload, seed: int, work: Path):
    """Import mqpure, write the inputs and run the warm-up op, timed.

    Returns the imported ``mqpure.cli`` module, the op's arguments, the
    set-up seconds and the warm-up op's error (None if it passed).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import mqpure.cli

    if not Path(mqpure.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"mqpure imported from {mqpure.cli.__file__}, not {SRC}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    argv = workload.prepare(seed, work)
    error = run_op(mqpure.cli, argv, workload, work)[1] if workload.warm_up else None
    return mqpure.cli, argv, time.perf_counter() - start, error


def run_op(cli, argv, workload, work: Path):
    """One CLI command: returns (seconds, error or None, output bytes)."""
    shutil.rmtree(work / "out", ignore_errors=True)
    stdout = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    except Exception:
        return time.perf_counter() - start, traceback.format_exc(), 0
    seconds = time.perf_counter() - start
    if code != 0:
        return seconds, f"exit code {code}", 0
    try:
        error = workload.check(stdout.getvalue(), work)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        error = f"output check raised {exc!r}"
    return seconds, error, 0 if error else workload.output_bytes(work)


def probe_setups(workload_name: str, seed: int) -> list[float]:
    samples = []
    start = time.perf_counter()
    while len(samples) < SETUP_PROBES or time.perf_counter() - start < SETUP_PROBE_SECONDS:
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload_name,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def tail(samples: list[float]):
    """Highest percentile with TAIL_BEYOND samples above it, if above p50."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0 or (k + 1) / len(ordered) <= 0.5:
        return None
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / len(ordered),
            "samples": len(ordered)}


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(workload, seed: int) -> dict:
    import numpy  # not at the top: set_up times the first import

    digest = hashlib.sha256()
    for path in sorted((SRC / "mqpure").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "n_spins": workload.n_spins,
        "dim": 2**workload.n_spins,
        "seed": seed,
    }


def measure(cli, argv, workload, work: Path, seconds: float, tracer=None):
    """Closed loop for ``seconds``; with a tracer, every other op is traced."""
    ops, traced = [], []
    start = time.perf_counter()
    while (len(ops) < (2 if tracer else 1)
           or time.perf_counter() - start < seconds):
        is_traced = tracer is not None and len(ops) % 2 == 1
        if is_traced:
            tracer.op = len(ops)
            tracer.install()
        try:
            ops.append(run_op(cli, argv, workload, work))
        finally:
            if is_traced:
                tracer.uninstall()
        traced.append(is_traced)
    return ops, traced, time.perf_counter() - start


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    setups = [] if args.trace else probe_setups(workload.name, args.seed)
    try:
        cli, argv, setup_s, warm_error = set_up(workload, args.seed, work)
        setups.append(setup_s)
        tracer = tracing.Tracer() if args.trace else None
        ops, traced, window = measure(cli, argv, workload, work, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [e for _, e, _ in ops if e] + ([warm_error] if warm_error else [])
    for error in errors[:3]:
        print(f"op failed: {error}", file=sys.stderr)
    attempted = len(ops) + int(workload.warm_up)
    details = {"provenance": provenance(workload, args.seed),
               "ops": len(ops), "window_s": window,
               "error_rate": len(errors) / attempted}
    plain = [s for (s, _, _), t in zip(ops, traced) if not t]
    if args.trace:
        metrics, extra = traced_metrics(tracer, ops, traced, plain, args, workload)
        details.update(extra)
        specs = spec["per_layer"]
    else:
        metrics = {
            "op_s.p50": statistics.median(plain),
            "ops_per_s": sum(1 for _, e, _ in ops if not e) / window,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        details["op_s.tail"] = tail(plain) or f"omitted: {len(plain)} ops"
        details["setup_samples_s"] = setups
        specs = spec["end_to_end"]
    print("details " + json.dumps(details))
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in specs}
    for name, entry in result.items():
        print(f"{workload.name:18} {name:44} {entry['value']:<14.6g} {entry['unit']}")
    print(f"{workload.name:18} {'error_rate':44} {details['error_rate']:<14.6g}")
    return {"correct": not errors, "attempted": attempted, "failed": len(errors),
            "metrics": result}


def traced_metrics(tracer, ops, traced, plain, args, workload):
    tracer_ops = [i for i, t in enumerate(traced) if t]
    per_op = [tracer.op_metrics(i) for i in tracer_ops]
    traced_s = [ops[i][0] for i in tracer_ops]
    for m, i in zip(per_op, tracer_ops):
        m["output.bytes"] = ops[i][2]
    metrics = tracing.median_metrics(per_op)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain)
    # Self times of one op sum to its root span; what the op timer sees
    # beyond that span is the cost of the outermost wrapper.
    unaccounted = max(abs(ops[i][0] - tracer.root_seconds(i)) for i in tracer_ops)
    spans = WORK / f"spans-{workload.name}-seed{args.seed}.csv.gz"
    tracer.write(spans)
    extra = {
        "traced_ops": len(tracer_ops),
        "traced_op_s.p50": statistics.median(traced_s),
        "untraced_op_s.p50": statistics.median(plain),
        "max_unaccounted_s": unaccounted,
        "layer_shares": tracing.layer_shares(metrics, statistics.median(traced_s)),
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return metrics, extra


def run_all(args) -> dict:
    """Every workload in a fresh process; one table of every metric."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"{name} exited {done.returncode}")
        *lines, last = done.stdout.splitlines()
        print("\n".join(line for line in lines if not line.startswith("details ")))
        result = json.loads(last)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mqpure" / "__init__.py").is_file():
        print(f"error: mqpure sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        work = WORK / f"probe-{os.getpid()}"
        try:
            print(set_up(WORKLOADS[args.workload], args.seed, work)[2])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    WORK.mkdir(exist_ok=True)
    result = run_all(args) if args.workload == "all" else run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
