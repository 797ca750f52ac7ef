"""Stage timings of a bulk sweep and of the three factor methods, in fresh interpreters.

    python3 bench/run.py [--runs 7] [--steps 50000] [--calls 5] [--out BENCH.json]
                         [--column LABEL=SRC_DIR ...]

Each run spawns one interpreter per sweep config and one for the
crosscheck stage (``PYTHONDONTWRITEBYTECODE=1``, so every child compiles
soqd from source), each in a new temporary directory that holds a symlink
to ``SRC_DIR`` and runs with that link as ``PYTHONPATH``: every column
imports soqd from a path of one length, which the sweep children's peak
RSS follows.
The child times ``import soqd``, then one ``soqd.cli.run_sweep`` of one of
the two ``sweep_bulk`` configs of ``perfbench/workloads.py`` (t in {0, 10},
``--steps`` tau per t, CSV + SVG), then the CSV read back, then a JSON
write of the sweep's rows.  The stages are the public functions run_sweep
calls, each wrapped from outside, and the two calls after it:

    F     factor_over_tau, the closed-form factor, summed over the t
    G     g2_interacting, the fringe
    csv   write_points_csv
    svg   write_svg_plot
    rest  the rest of run_sweep: the grid and the CorrelationPoint record
    read  read_points_csv
    json  write_points_json of the record run_sweep returned

Every stage is a first call in its process, so lazily imported kernels are
compiled inside it, as in a real job.  The report gives each stage in ns
per row, ``import`` in ms and the child's own peak RSS (``getrusage`` of
the child itself, taken after the read and before the json stage, so the
sweep's record is held through the read) in MiB, each as the median and
quartiles over the runs, one column per ``--column`` (default:
``change=src`` of this checkout).
Beside the SVG stage's total ms (``svg_ms``) it gives the size of the SVG
file the sweep wrote (``svg_bytes``).

The crosscheck child times the three factor methods on the cells of the
``crosscheck`` workload, n in {10, 40, 160} x t in {0, 10}, 11 tau each:
per method and cell, one first call (the one ``soqd compare`` makes), then
``--calls`` steady-state calls, each timed on its own.  It reports the
first call apart, and the median and the minimum of the steady-state
calls: the closed form (``factor_over_tau``) and the oracle
(``decoherence_factor_oracle_fock``) in ms per call, the quadrature
(``decoherence_factor_fock_quadrature``) in ms per call and, from the
steady-state median, in ns per node, a node being one t' x radial x
angular point.  It also reports the first call of the quadrature's
Gauss-Laguerre rule (``quadrature._gauss_laguerre_log``, wrapped from
outside) in ms per order the cells use, 18, 48 and 168 for n = 10, 40 and
160 (``quadrature_rule_ms``): the call that builds or reads the rule,
which every ``soqd compare`` process pays.
Every method is given (t, tau); a source tree whose oracle and quadrature
still take t' in place of tau (the ``t_prime`` parameter) is given
t' = t + tau.

The oracle stage runs, in its own fresh interpreter, the oracle sweep of
the ``crosscheck`` workload: a coherent |beta0|^2 = 10 preparation at its
certified cutoff (46 sectors), t in {0, 10} x 2 tau, as one
``decoherence_factor_oracle_coherent`` call: a first call, then
``--calls`` steady-state calls, each timed on its own.  It reports the
first call apart, and the median and the minimum of the steady-state
calls, in ms, and the ``numpy.linalg.eigh`` calls per call, counted by
wrapping ``eigh`` from outside.

The command stage then runs the whole ``soqd compare`` on each of those
cells (``--tau-max 4 --steps 11``), one fresh interpreter per cell, as
``python -m soqd`` runs it (``runpy.run_module("soqd", run_name="__main__",
alter_sys=True)``) after ``import soqd`` has written the monotonic clock,
which is system-wide on Linux, to stderr.  It reports ms from spawn to
exit (``command_wall_ms``) and from the end of ``import soqd`` to exit
(``command_post_import_ms``), per cell and summed over the six cells.

The decay stage runs, in its own fresh interpreter, the 14 searches of
the ``decay_search`` workload: ``decoherence_time`` for a coherent and a
number-state preparation at n in {10, 100, 10^4} x t in {0, 10}, then both
preparations at n = 100, t = 0 under equal couplings d_e = d_g = 0.5, a
window that never decays.  It reports ms per search and the tau points
each search evaluates, counted by wrapping the closed form's
``echo_over_tau`` from outside, per cell and as the mean over the 12
reached and over the 2 never-reached searches.

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
import time

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
STAGES = (*WRAPPED, "rest", "read", "json")
#: the crosscheck workload's compare cells (n, t), each on CROSSCHECK_TAUS tau
CROSSCHECK_CELLS = tuple((n, t) for n in (10, 40, 160) for t in (0.0, 10.0))
CROSSCHECK_TAUS = 11
CROSSCHECK_TAU_MAX = 4.0
METHODS = ("oracle", "closed", "quadrature")
#: the crosscheck workload's oracle sweep: coherent |beta0|^2, t values, tau
ORACLE_SWEEP = (10.0, (0.0, 10.0), (0.5, 2.5))
#: the decay_search workload's searches: (preparation, n, t) under the
#: preset couplings, then (preparation, n, t) under equal couplings
DECAY_CELLS = tuple((kind, n, t) for kind in ("coherent", "fock")
                    for n in (10, 100, 10_000) for t in (0.0, 10.0))
DECAY_NEVER = (("coherent", 100, 0.0), ("fock", 100, 0.0))
#: a compare run as ``python -m soqd`` runs it, once ``import soqd`` has
#: stamped the clock on stderr
COMMAND_CHILD = ("import sys, time\n"
                 "import soqd\n"
                 "print(repr(time.perf_counter()), file=sys.stderr)\n"
                 "import runpy\n"
                 "runpy.run_module('soqd', run_name='__main__', alter_sys=True)\n")


def _child(config_path: str) -> None:
    """Time one ``soqd.cli.run_sweep``, its read-back and a JSON write of
    its record in this fresh process; print the stages as JSON.  The
    stages are the public functions run_sweep calls, wrapped here from
    outside, so that what is timed is the sweep path itself."""
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
    points = cli.run_sweep(config)
    times["rest"] = time.perf_counter() - start - sum(times[s] for s in WRAPPED)
    start = time.perf_counter()
    rows = len(soqd.read_points_csv(config.output_path))
    times["read"] = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    cli.write_points_json("sweep.json", points)
    times["json"] = time.perf_counter() - start
    svg_bytes = os.path.getsize(cli._plot_path(config.output_path))
    print(json.dumps({"rows": rows, "import_s": t_import, "stages_s": times,
                      "peak_rss_mib": peak, "numpy_ma": "numpy.ma" in sys.modules,
                      "svg_bytes": svg_bytes}))


def _second_times(method, t, taus):
    """What ``method`` takes after t: tau, or t' = t + tau where the source
    tree under test is older than the (t, tau) contract."""
    import inspect

    return t + taus if "t_prime" in inspect.signature(method).parameters else taus


def _crosscheck_child(calls: int) -> None:
    """Time every factor method on each crosscheck cell in this fresh
    process, in the order ``compare_methods`` calls them, once and then
    ``calls`` more times; print the seconds of each call, the quadrature's
    nodes per call and the first call of its rule per order as JSON."""
    import time

    t0 = time.perf_counter()
    import soqd
    t_import = time.perf_counter() - t0

    import resource

    import numpy as np

    from soqd import quadrature
    from soqd.cli import FIGURE_PARAMS as params

    # the quadrature's Gauss-Laguerre rule, wrapped from outside: the
    # seconds of its first call per order, the one that builds or reads it
    rule_s = {}
    real_rule = quadrature._gauss_laguerre_log

    def timed_rule(order):
        start = time.perf_counter()
        try:
            return real_rule(order)
        finally:
            rule_s.setdefault(str(order), time.perf_counter() - start)

    quadrature._gauss_laguerre_log = timed_rule
    taus = np.linspace(0.0, CROSSCHECK_TAU_MAX, CROSSCHECK_TAUS)
    cells = {}
    for n, t in CROSSCHECK_CELLS:
        times = _second_times(soqd.decoherence_factor_fock_quadrature, t, taus)
        methods = {
            "oracle": lambda: soqd.decoherence_factor_oracle_fock(params, n, t, times),
            "closed": lambda: soqd.factor_over_tau(params, soqd.FockState(n), t, taus),
            "quadrature": lambda: soqd.decoherence_factor_fock_quadrature(params, n, t, times),
        }
        seconds = {name: [] for name in METHODS}
        for name in METHODS:
            for _ in range(1 + calls):
                start = time.perf_counter()
                methods[name]()
                seconds[name].append(time.perf_counter() - start)
        nodes = taus.size * quadrature._radial_order(n) * quadrature._ANGULAR_ORDER
        cells[f"n{n}-t{t:g}"] = {"s_per_call": seconds, "quadrature_nodes": nodes}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"import_s": t_import, "cells": cells, "rule_s": rule_s,
                      "peak_rss_mib": peak}))


def _oracle_child(calls: int) -> None:
    """Time the crosscheck oracle sweep in this fresh process, once and
    then ``calls`` more times, each call on its own, counting
    numpy.linalg.eigh calls; print the seconds of each call and the count
    as JSON."""
    import math
    import time

    import numpy as np

    import soqd
    from soqd.cli import FIGURE_PARAMS as params
    from soqd.oracle import min_cutoff

    eighs = []
    real_eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        eighs.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    np.linalg.eigh = counting
    x, t_values, taus = ORACLE_SWEEP
    beta0 = complex(math.sqrt(x))
    cutoff = min_cutoff(abs(beta0) ** 2)
    t = np.repeat(t_values, len(taus))
    times = _second_times(soqd.decoherence_factor_oracle_coherent, t,
                          np.tile(taus, len(t_values)))
    seconds = []
    for _ in range(1 + calls):
        start = time.perf_counter()
        soqd.decoherence_factor_oracle_coherent(params, beta0, t, times, cutoff)
        seconds.append(time.perf_counter() - start)
    print(json.dumps({"s_per_call": seconds, "sectors": cutoff + 1,
                      "eigh_per_call": len(eighs) / (1 + calls)}))


def _decay_child() -> None:
    """Time each decay_search search once in this fresh process, counting
    the tau points it hands the closed form; print both as JSON."""
    import math
    import time

    import numpy as np

    import soqd
    from soqd import correlation

    points = []
    real_echo = correlation.echo_over_tau

    def counting(params, t, taus):
        points[-1] += np.size(taus)
        return real_echo(params, t, taus)

    correlation.echo_over_tau = counting
    preset = soqd.ModelParams(**FIGURE_PARAMS)
    flat = soqd.ModelParams(**dict(FIGURE_PARAMS, d_e=0.5, d_g=0.5))
    cells = {}
    for params, suffix, searches in ((preset, "", DECAY_CELLS), (flat, "-never", DECAY_NEVER)):
        for kind, n, t in searches:
            state = (soqd.CoherentState(0j, complex(math.sqrt(n))) if kind == "coherent"
                     else soqd.FockState(n))
            points.append(0)
            start = time.perf_counter()
            try:
                soqd.decoherence_time(params, state, t)
                reached = True
            except soqd.DecoherenceNotReached:
                reached = False
            cells[f"{kind}-n{n}-t{t:g}{suffix}"] = {
                "s": time.perf_counter() - start, "points": points[-1], "reached": reached}
    print(json.dumps({"cells": cells}))


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
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if core is not None and threads is not None:
                core.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                host["blas"]["core"] = core().decode()
                host["blas"]["threads"] = threads()
                break
    from numpy._core._multiarray_umath import __cpu_features__

    host["simd"] = [k for k, on in __cpu_features__.items() if on]
    host["env"] = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE",
                                                   "OMP_NUM_THREADS",
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


def _child_env(src: str, work: str) -> dict:
    """The environment of a child run in ``work``: ``src`` reached through
    a link in ``work``, so that every column's soqd is at a path of one
    length (the sweep's peak RSS moved by 0.8 MiB with the length of
    ``src``), and no bytecode written."""
    link = os.path.join(work, "src")
    os.symlink(os.path.abspath(src), link)
    return dict(os.environ, PYTHONPATH=link, PYTHONDONTWRITEBYTECODE="1")


def _run_child(src: str, config: dict | None = None, calls: int | None = None,
               stage: str = "--crosscheck-child") -> dict:
    """One fresh child: the sweep of ``config``, or ``stage`` (the
    crosscheck or the oracle stage with ``calls`` calls per method and
    cell, or the decay stage)."""
    # a new directory per child, as each benchmark job has: overwriting
    # the last child's output would add the truncation of its files
    with tempfile.TemporaryDirectory() as work:
        if config is None:
            child = [stage, str(calls)] if calls is not None else [stage]
        else:
            child = ["--child", os.path.join(work, "config.json")]
            with open(child[1], "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        out = subprocess.run([sys.executable, os.path.abspath(__file__), *child],
                             cwd=work, env=_child_env(src, work), capture_output=True,
                             text=True)
    if out.returncode:
        raise RuntimeError(f"bench child failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def _run_command(src: str, n: int, t: float) -> dict:
    """One fresh ``soqd compare`` on the crosscheck cell (n, t): ms from
    spawn to exit and from the end of ``import soqd`` to exit."""
    argv = ["compare", "--n", str(n), "--t", repr(t), "--tau-max", repr(CROSSCHECK_TAU_MAX),
            "--steps", str(CROSSCHECK_TAUS)]
    with tempfile.TemporaryDirectory() as work:
        env = _child_env(src, work)
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", COMMAND_CHILD, *argv], cwd=work, env=env,
                             capture_output=True, text=True)
        end = time.perf_counter()
    if out.returncode or "max pairwise |delta|" not in out.stdout:
        raise RuntimeError(f"soqd {' '.join(argv)} failed:\n{out.stderr}")
    imported = float(out.stderr.splitlines()[0])
    return {"wall_ms": 1e3 * (end - start), "post_import_ms": 1e3 * (end - imported)}


def measure(columns: dict, runs: int, steps: int, calls: int):
    """({label: {config: {metric: quartiles}}}, {label: crosscheck
    quartiles}, {label: oracle quartiles}, {label: decay quartiles}) over
    ``runs`` fresh children of each kind."""
    samples = {label: {name: [] for name in CONFIGS} for label in columns}
    crosscheck = {label: [] for label in columns}
    oracle = {label: [] for label in columns}
    decay = {label: [] for label in columns}
    commands = {label: [] for label in columns}
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
            oracle[label].append(_run_child(columns[label], calls=calls,
                                            stage="--oracle-child"))
            commands[label].append({f"n{n}-t{t:g}": _run_command(columns[label], n, t)
                                    for n, t in CROSSCHECK_CELLS})
            decay[label].append(_run_child(columns[label], stage="--decay-child"))
    return (_sweep_report(samples),
            {label: _crosscheck_report(results, commands[label])
             for label, results in crosscheck.items()},
            {label: _oracle_report(results) for label, results in oracle.items()},
            {label: _decay_report(results) for label, results in decay.items()})


def _decay_report(results: list) -> dict:
    cells = {name: {"reached": first["reached"], "points_per_search": first["points"],
                    "ms_per_search": _quartiles([1e3 * x["cells"][name]["s"] for x in results])}
             for name, first in results[0]["cells"].items()}
    report = {"cells": cells}
    for group, reached in (("reached", True), ("never", False)):
        names = [name for name, cell in cells.items() if cell["reached"] is reached]
        report[f"ms_per_search_{group}"] = _quartiles(
            [1e3 * sum(x["cells"][name]["s"] for name in names) / len(names) for x in results])
        report[f"points_per_search_{group}"] = sum(
            cells[name]["points_per_search"] for name in names) / len(names)
    return report


def _oracle_report(results: list) -> dict:
    return {"sectors": results[0]["sectors"],
            "eigh_per_call": results[0]["eigh_per_call"],
            **_first_and_steady([x["s_per_call"] for x in results], "")}


def _first_and_steady(calls: list, prefix: str) -> dict:
    """From each run's call seconds, the first call, then the median and
    the minimum of the steady-state calls, each in ms over the runs."""
    return {f"{prefix}first_ms": _quartiles([1e3 * s[0] for s in calls]),
            f"{prefix}ms_per_call": _quartiles([1e3 * _quartiles(s[1:])["median"]
                                                for s in calls]),
            f"{prefix}min_ms": _quartiles([1e3 * min(s[1:]) for s in calls])}


def _crosscheck_report(results: list, commands: list) -> dict:
    cells = {}
    for cell, first in results[0]["cells"].items():
        nodes = first["quadrature_nodes"]
        entry = {}
        for name in METHODS:
            entry.update(_first_and_steady(
                [x["cells"][cell]["s_per_call"][name] for x in results], f"{name}_"))
        entry["quadrature_nodes"] = nodes
        entry["quadrature_ns_per_node"] = _quartiles(
            [1e9 * _quartiles(x["cells"][cell]["s_per_call"]["quadrature"][1:])["median"]
             / nodes for x in results])
        for key in ("wall_ms", "post_import_ms"):
            entry[f"command_{key}"] = _quartiles([run[cell][key] for run in commands])
        cells[cell] = entry
    report = {"import_ms": _quartiles([1e3 * x["import_s"] for x in results]),
              "peak_rss_mib": _quartiles([x["peak_rss_mib"] for x in results]),
              "quadrature_rule_ms": {order: _quartiles([1e3 * x["rule_s"][order]
                                                        for x in results])
                                     for order in results[0]["rule_s"]},
              "cells": cells}
    for key in ("wall_ms", "post_import_ms"):
        report[f"command_{key}_total"] = _quartiles(
            [sum(cell[key] for cell in run.values()) for run in commands])
    return report


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
            entry["svg_bytes"] = results[0]["svg_bytes"]
            report[label][name] = entry
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=7)
    parser.add_argument("--steps", type=int, default=50_000, help="tau per t")
    parser.add_argument("--calls", type=int, default=5,
                        help="steady-state calls per method and crosscheck cell, and "
                             "per oracle sweep, after a first call timed apart")
    parser.add_argument("--column", action="append", default=[],
                        help="LABEL=SRC_DIR, a soqd source tree to time (repeatable)")
    parser.add_argument("--out", help="write the report here as JSON")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--crosscheck-child", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--oracle-child", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--decay-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child)
        return 0
    if args.crosscheck_child is not None:
        _crosscheck_child(args.crosscheck_child)
        return 0
    if args.oracle_child is not None:
        _oracle_child(args.oracle_child)
        return 0
    if args.decay_child:
        _decay_child()
        return 0
    if args.calls < 1:
        parser.error("--calls must be >= 1")
    columns = dict(spec.split("=", 1) for spec in args.column) or {
        "change": os.path.join(ROOT, "src")}
    sweep, crosscheck, oracle, decay = measure(columns, args.runs, args.steps, args.calls)
    report = {"host": _fingerprint(), "runs": args.runs, "steps_per_t": args.steps,
              "calls": args.calls, "columns": sweep, "crosscheck": crosscheck,
              "oracle": oracle, "decay": decay}
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
