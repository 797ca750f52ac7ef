"""Stage timings of a bulk sweep and of the three factor methods, in fresh interpreters.

    python3 bench/run.py [--runs 7] [--steps 50000] [--calls 5] [--out BENCH.json]
                         [--column LABEL=SRC_DIR ...]

Each run spawns one interpreter per sweep config and one for the
crosscheck stage (``PYTHONDONTWRITEBYTECODE=1``, so every child compiles
soqd from source) with ``SRC_DIR`` on ``PYTHONPATH``.
The child times ``import soqd``, then one ``soqd.cli.run_sweep`` of one of
the two ``sweep_bulk`` configs of ``perfbench/workloads.py`` (t in {0, 10},
``--steps`` tau per t, CSV + SVG), then the CSV read back.  The stages are
the public functions run_sweep calls, each wrapped from outside:

    F     factor_over_tau, the closed-form factor, summed over the t
    G     g2_interacting, the fringe
    csv   write_points_csv
    svg   write_svg_plot
    rest  the rest of run_sweep: the grid and the CorrelationPoint record
    read  read_points_csv

Every stage is a first call in its process, so lazily imported kernels are
compiled inside it, as in a real job.  The report gives each stage in ns
per row, ``import`` in ms and the child's own peak RSS (``getrusage`` of
the child itself) in MiB, each as the median and quartiles over the runs,
one column per ``--column`` (default: ``change=src`` of this checkout).

The crosscheck child times the three factor methods on the cells of the
``crosscheck`` workload, n in {10, 40, 160} x t in {0, 10}, 11 tau each,
``--calls`` calls per method and cell (the first included, as
``soqd compare`` makes it): the closed form (``factor_over_tau``) and the
oracle (``decoherence_factor_oracle_fock``) in ms per call, the quadrature
(``decoherence_factor_fock_quadrature``) in ms per call and in ns per node,
a node being one t' x radial x angular point.
Columns alternate their order from run to run, so that drift of the host
falls on both.  The host fingerprint comes with the numbers.  Only the
standard library and numpy are used.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FIGURE_PARAMS = {"omega1": 0.2, "omega2": 1.3, "d_e": 0.8, "d_g": 0.2, "omega_e": 1.0}
#: name -> (apparatus, tau_max): the two sweep_bulk jobs
CONFIGS = {
    "coherent100": ({"kind": "coherent", "n": 100}, 5.0),
    "fock10000": ({"kind": "fock", "n": 10_000}, 0.5),
}
#: stage -> the soqd.cli global that run_sweep calls for it
WRAPPED = {"F": "factor_over_tau", "G": "g2_interacting",
           "csv": "write_points_csv", "svg": "write_svg_plot"}
STAGES = (*WRAPPED, "rest", "read")
#: the crosscheck workload's compare cells (n, t), each on CROSSCHECK_TAUS tau
CROSSCHECK_CELLS = tuple((n, t) for n in (10, 40, 160) for t in (0.0, 10.0))
CROSSCHECK_TAUS = 11
CROSSCHECK_TAU_MAX = 4.0
METHODS = ("oracle", "closed", "quadrature")


def _child(config_path: str) -> None:
    """Time one ``soqd.cli.run_sweep`` and its read-back in this fresh
    process; print the stages as JSON.  The stages are the public
    functions run_sweep calls, wrapped here from outside, so that what is
    timed is the sweep path itself."""
    import time

    t0 = time.perf_counter()
    import soqd
    t_import = time.perf_counter() - t0

    import resource

    from soqd import cli

    times = dict.fromkeys(STAGES, 0.0)

    def timed(stage, func):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                times[stage] += time.perf_counter() - start
        return wrapper

    for stage, name in WRAPPED.items():
        setattr(cli, name, timed(stage, getattr(cli, name)))
    with open(config_path, encoding="utf-8") as fh:
        config = cli.sweep_config_from_json(json.load(fh))
    start = time.perf_counter()
    cli.run_sweep(config)
    times["rest"] = time.perf_counter() - start - sum(times[s] for s in WRAPPED)
    start = time.perf_counter()
    rows = len(soqd.read_points_csv(config.output_path))
    times["read"] = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"rows": rows, "import_s": t_import, "stages_s": times,
                      "peak_rss_mib": peak, "numpy_ma": "numpy.ma" in sys.modules}))


def _crosscheck_child(calls: int) -> None:
    """Time every factor method ``calls`` times on each crosscheck cell in
    this fresh process, in the order ``compare_methods`` calls them; print
    seconds per call and the quadrature's nodes per call as JSON."""
    import time

    t0 = time.perf_counter()
    import soqd
    t_import = time.perf_counter() - t0

    import resource

    import numpy as np

    from soqd import quadrature
    from soqd.cli import FIGURE_PARAMS as params

    taus = np.linspace(0.0, CROSSCHECK_TAU_MAX, CROSSCHECK_TAUS)
    cells = {}
    for n, t in CROSSCHECK_CELLS:
        t_prime = t + taus
        methods = {
            "oracle": lambda: soqd.decoherence_factor_oracle_fock(params, n, t, t_prime),
            "closed": lambda: soqd.factor_over_tau(params, soqd.FockState(n), t, taus),
            "quadrature": lambda: soqd.decoherence_factor_fock_quadrature(params, n, t, t_prime),
        }
        seconds = {}
        for name in METHODS:
            start = time.perf_counter()
            for _ in range(calls):
                methods[name]()
            seconds[name] = (time.perf_counter() - start) / calls
        nodes = taus.size * quadrature._radial_order(n) * quadrature._ANGULAR_ORDER
        cells[f"n{n}-t{t:g}"] = {"s_per_call": seconds, "quadrature_nodes": nodes}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"import_s": t_import, "cells": cells, "peak_rss_mib": peak}))


def _fingerprint() -> dict:
    import ctypes
    import glob
    import platform

    import numpy

    host = {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0))}
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    host["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        prefix = "scipy_openblas_" if "scipy_openblas" in path else "openblas_"
        for suffix in ("64_", ""):
            core = getattr(lib, f"{prefix}get_corename{suffix}", None)
            if core is not None:
                core.restype = ctypes.c_char_p
                host["blas"]["core"] = core().decode()
                break
    from numpy._core._multiarray_umath import __cpu_features__

    host["simd"] = [k for k, on in __cpu_features__.items() if on]
    host["env"] = {k: os.environ.get(k) for k in ("OPENBLAS_CORETYPE",
                                                   "NPY_DISABLE_CPU_FEATURES")}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            host["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name"))
    except (OSError, StopIteration):
        host["cpu"] = platform.processor()
    return host


def _quartiles(samples: list) -> dict:
    s = sorted(samples)

    def at(q):
        x = q * (len(s) - 1)
        i = int(x)
        return s[i] + (s[min(i + 1, len(s) - 1)] - s[i]) * (x - i)

    return {"median": at(0.5), "iqr": [at(0.25), at(0.75)]}


def _run_child(src: str, config: dict | None = None, calls: int | None = None) -> dict:
    """One fresh child: the sweep of ``config``, or the crosscheck stage
    with ``calls`` calls per method and cell."""
    # a new directory per child, as each benchmark job has: overwriting
    # the last child's output would add the truncation of its files
    with tempfile.TemporaryDirectory() as work:
        if config is None:
            child = ["--crosscheck-child", str(calls)]
        else:
            child = ["--child", os.path.join(work, "config.json")]
            with open(child[1], "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")
        out = subprocess.run([sys.executable, os.path.abspath(__file__), *child],
                             cwd=work, env=env, capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"bench child failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def measure(columns: dict, runs: int, steps: int, calls: int):
    """({label: {config: {metric: quartiles}}}, {label: crosscheck
    quartiles}) over ``runs`` fresh children of each kind."""
    samples = {label: {name: [] for name in CONFIGS} for label in columns}
    crosscheck = {label: [] for label in columns}
    for r in range(runs):
        order = list(columns) if r % 2 == 0 else list(columns)[::-1]
        for label in order:
            for name, (state, tau_max) in CONFIGS.items():
                config = dict(FIGURE_PARAMS, apparatus=state, t_values=[0.0, 10.0],
                              tau_min=0.0, tau_max=tau_max, tau_steps=steps,
                              method="closed", output_path="sweep.csv",
                              output_format="csv", emit_plot=True)
                samples[label][name].append(_run_child(columns[label], config))
            crosscheck[label].append(_run_child(columns[label], calls=calls))
    return _sweep_report(samples), {label: _crosscheck_report(results)
                                    for label, results in crosscheck.items()}


def _crosscheck_report(results: list) -> dict:
    cells = {}
    for cell, first in results[0]["cells"].items():
        nodes = first["quadrature_nodes"]
        entry = {f"{name}_ms_per_call": _quartiles(
            [1e3 * x["cells"][cell]["s_per_call"][name] for x in results])
            for name in METHODS}
        entry["quadrature_nodes"] = nodes
        entry["quadrature_ns_per_node"] = _quartiles(
            [1e9 * x["cells"][cell]["s_per_call"]["quadrature"] / nodes for x in results])
        cells[cell] = entry
    return {"import_ms": _quartiles([1e3 * x["import_s"] for x in results]),
            "peak_rss_mib": _quartiles([x["peak_rss_mib"] for x in results]),
            "cells": cells}


def _sweep_report(samples: dict) -> dict:
    report = {}
    for label, by_config in samples.items():
        report[label] = {}
        for name, results in by_config.items():
            rows = results[0]["rows"]
            entry = {"rows": rows,
                     "import_ms": _quartiles([1e3 * x["import_s"] for x in results]),
                     "peak_rss_mib": _quartiles([x["peak_rss_mib"] for x in results]),
                     "numpy_ma_loaded": any(x["numpy_ma"] for x in results)}
            for stage in STAGES:
                entry[f"{stage}_ns_per_row"] = _quartiles(
                    [1e9 * x["stages_s"][stage] / rows for x in results])
            entry["svg_ms"] = _quartiles([1e3 * x["stages_s"]["svg"] for x in results])
            report[label][name] = entry
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=7)
    parser.add_argument("--steps", type=int, default=50_000, help="tau per t")
    parser.add_argument("--calls", type=int, default=5,
                        help="calls per method and crosscheck cell")
    parser.add_argument("--column", action="append", default=[],
                        help="LABEL=SRC_DIR, a soqd source tree to time (repeatable)")
    parser.add_argument("--out", help="write the report here as JSON")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--crosscheck-child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child)
        return 0
    if args.crosscheck_child is not None:
        _crosscheck_child(args.crosscheck_child)
        return 0
    if args.calls < 1:
        parser.error("--calls must be >= 1")
    columns = dict(spec.split("=", 1) for spec in args.column) or {
        "change": os.path.join(ROOT, "src")}
    sweep, crosscheck = measure(columns, args.runs, args.steps, args.calls)
    report = {"host": _fingerprint(), "runs": args.runs, "steps_per_t": args.steps,
              "calls": args.calls, "columns": sweep, "crosscheck": crosscheck}
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
