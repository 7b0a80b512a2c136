"""Benchmark of nosigchan: four user workloads, end to end and per module.

Run from the repository root, with the package source in ``src/``:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 15 --trace 0

One process drives the library as one closed-loop client, with BLAS pinned
to one thread.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
wraps every public function of the package's modules (see ``spans``) and
reports per-module metrics instead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Provenance, the
per-op parameters and any failures go to ``perfbench/out/``; the traced run
also writes its spans there.  README.md in this directory lists the
workloads and which metric each layer should move.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy loads BLAS

import argparse
import ctypes
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
PACKAGE = "nosigchan"
SETUP_REPS = 5
COLD_TIMEOUT_S = 60

# Per-layer metrics: <name>.calls and <name>.self_ms, per op.
TRACED_FUNCTIONS = (
    "tensor.ptrace", "tensor.ptranspose", "tensor.permute_systems", "tensor.permute_to",
    "tensor.embed", "tensor.bra_sandwich", "tensor.eigh", "tensor.kron",
    "channels.apply", "channels.choi_from_map", "channels.compose_par", "channels.compose_seq",
    "channels.kraus_from_choi", "channels.Channel.validate",
    "nosignal.build_localizable", "nosignal.build_realization_cc", "nosignal.build_semilocalizable",
    "nosignal.teleport_realization", "nosignal.check_nosignaling_dir",
    "counterexample.build_r_alpha_kraus", "counterexample.build_r_alpha_circuit",
    "counterexample.build_r_alpha_realization",
    "analysis.ppt_min_eig", "analysis.chsh_value", "analysis.extremality_rank",
    "choifile.load_channel",
    "cli.cmd_reproduce", "cli.cmd_check",
)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def import_package() -> SimpleNamespace:
    """Import nosigchan afresh from ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module(PACKAGE)
    except ImportError as exc:
        raise SetupError(f"cannot import {PACKAGE} from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise SetupError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in spans.MODULES})


def set_up(workload, seeds, workdir, tracer=None):
    """Import, generate inputs, write files and warm up, SETUP_REPS times.

    Returns the package and state of the last repetition and every
    repetition's wall time.  Warm-up runs one op of each kind; a tracer
    records input generation and file export under a "setup" root.
    """
    times = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        pkg = import_package()
        if tracer is not None:
            tracer.install(PACKAGE)
            tracer.begin("setup", rep)
        state = workload.setup(pkg, np.random.default_rng(seeds["setup"]), workdir)
        if tracer is not None:
            tracer.end()
        warm = np.random.default_rng(seeds["warm"])
        for kind in workload.kinds:
            workload.op(pkg, state, workload.make_case(state, kind, warm))
        times.append(time.perf_counter() - t0)
    return pkg, state, times


def schedule(workload, state, rng):
    """Endless op cases in shuffled blocks that hold every kind once."""
    while True:
        for k in rng.permutation(len(workload.kinds)):
            yield workload.make_case(state, workload.kinds[k], rng)


def run_op(workload, pkg, state, case, tracer=None, op_id=0):
    """Time one op, then check its output outside the timed interval.

    Returns (seconds, problem); problem is None when the output is correct.
    """
    out, problem = None, None
    if tracer is not None:
        tracer.begin("op", op_id)
    t0 = time.perf_counter()
    try:
        out = workload.op(pkg, state, case)
    except Exception:
        problem = traceback.format_exc()
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
    if problem is None:
        try:
            problem = workload.check(pkg, state, case, out)
        except Exception:
            problem = traceback.format_exc()
    return elapsed, problem


def measure(workload, pkg, state, cases, seconds, tracer=None):
    """Run ops from ``cases`` until ``seconds`` of wall time (checks included) pass."""
    lat, problems, used = [], [], []
    deadline = time.perf_counter() + seconds
    while not lat or time.perf_counter() < deadline:
        case = next(cases)
        dt, problem = run_op(workload, pkg, state, case, tracer, len(lat))
        lat.append(dt)
        problems.append(problem)
        used.append(case)
    return lat, problems, used


def cold_runs(workload, state, rng):
    """Fresh ``python -m nosigchan.cli`` processes, one after another."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times, problems = [], []
    for case in workload.cold_cases(state, rng):
        argv = [sys.executable, "-m", f"{PACKAGE}.cli", *workload.argv(state, case)]
        t0 = time.perf_counter()
        r = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=COLD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        problems.append(workload.check_cold(case, (r.returncode, r.stdout, r.stderr)))
    return times, problems


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(lat, setup_times, cold_times):
    return {
        "ops_per_s": _metric(len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": _metric(np.percentile(lat, 50) * 1e3, "ms"),
        "latency_p90_ms": _metric(np.percentile(lat, 90) * 1e3, "ms"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cli_cold_ms": _metric(statistics.median(cold_times) * 1e3, "ms"),
    }


def per_layer(tracer, traced_lat, replay_lat):
    """Per-op means over the traced ops, and the tracing overhead.

    Returns (metrics, consistency error in seconds).
    """
    name, start, end, parent, _, count = tracer.arrays()
    n_ops, totals, wall, err = spans.summarize(tracer.names, name, start, end, parent, count, "op")
    n_setups, setup_totals, _, _ = spans.summarize(tracer.names, name, start, end, parent, count, "setup")
    m = {}
    for f in TRACED_FUNCTIONS:
        calls, own, _ = totals.get(f, (0, 0.0, 0.0))
        m[f"{f}.calls"] = _metric(calls / n_ops, "count")
        m[f"{f}.self_ms"] = _metric(own / n_ops * 1e3, "ms")
    for mod in spans.MODULES:
        own = sum(t[1] for f, t in totals.items() if f.startswith(mod + "."))
        m[f"{mod}.self_ms"] = _metric(own / n_ops * 1e3, "ms")
    for f, (counter, unit, _) in spans.COUNTERS.items():
        m[f"{f}.{counter}"] = _metric(totals.get(f, (0, 0.0, 0.0))[2] / n_ops, unit)
    m["op.wall_ms"] = _metric(wall / n_ops * 1e3, "ms")
    m["op.untraced_ms"] = _metric(totals["op"][1] / n_ops * 1e3, "ms")
    calls, own, _ = setup_totals.get("choifile.save_channel", (0, 0.0, 0.0))
    m["setup.choifile.save_channel.calls"] = _metric(calls / n_setups, "count")
    m["setup.choifile.save_channel.self_ms"] = _metric(own / n_setups * 1e3, "ms")
    m["trace.traced_ops_per_s"] = _metric(len(traced_lat) / sum(traced_lat), "1/s")
    m["trace.untraced_ops_per_s"] = _metric(len(replay_lat) / sum(replay_lat), "1/s")
    m["trace.overhead_ratio"] = _metric(sum(traced_lat) / sum(replay_lat), "ratio")
    return m, err


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None where none is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def blas_build():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.26 only prints its config
        return None


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None


def provenance(args, workload, state, used, setup_times):
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": blas_build(),
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(),
        "setup_s_each": setup_times,
        "shared_inputs": workload.describe(state),
        "op_params": [workload.param(c) for c in used],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC / PACKAGE}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    seeds = dict(zip(("setup", "warm", "ops", "cold"), np.random.SeedSequence(args.seed).spawn(4)))
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"files-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        pkg, state, setup_times = set_up(workload, seeds, str(workdir), tracer)
        workload.prepare(state)
        cases = schedule(workload, state, np.random.default_rng(seeds["ops"]))
        if tracer is None:
            lat, problems, used = measure(workload, pkg, state, cases, args.seconds)
            cold_times, cold_problems = cold_runs(workload, state, np.random.default_rng(seeds["cold"]))
            problems += cold_problems
            metrics = end_to_end(lat, setup_times, cold_times)
            extra = {"cold_s": cold_times}
        else:
            lat, problems, used = measure(workload, pkg, state, cases, args.seconds / 2, tracer)
            replay_lat, replay_problems = zip(*(run_op(workload, pkg, state, c) for c in used))
            problems += replay_problems
            metrics, err = per_layer(tracer, lat, replay_lat)
            extra = {"replay_latency_s": replay_lat}
            tracer.uninstall()
            tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
            if err > 1e-6:
                problems.append(f"self times do not add up to op wall time: off by {err:.3e} s")
    except SetupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [p for p in problems if p is not None]
    record = {"provenance": provenance(args, workload, state, used, setup_times),
              "metrics": metrics, "op_latency_s": lat, **extra, "failures": failures}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for p in failures[:5]:
        sys.stderr.write(f"FAILED op: {p}\n")
    for key, m in metrics.items():
        print(f"{key:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": len(problems), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
