"""One benchmark job in a fresh interpreter: import soqd, act, report.

Usage: child.py SPEC_JSON T_SPAWN

Run with the job directory as working directory.  ``T_SPAWN`` is the
parent's ``time.perf_counter()`` just before it started this process (the
clock is system-wide monotonic on Linux), so ``t_import - T_SPAWN`` is the
set-up time.  Only ``sys`` and ``time`` load before ``import soqd``.

Spec kinds:
    probe  import soqd and report the host fingerprint
    cli    ``soqd.main(argv)``, then optionally ``soqd.read_points_csv``
    decay  ``soqd.decoherence_time`` for each listed cell
The result goes to ``result.json`` in the working directory.
"""

import sys
import time

import soqd  # the set-up window ends when this returns

T_IMPORT = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402


def _fingerprint() -> dict:
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    host = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE", "OMP_NUM_THREADS",
            "NPY_DISABLE_CPU_FEATURES")},
    }
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    host["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        prefix = "scipy_openblas_" if "scipy_openblas" in path else "openblas_"
        for suffix in ("64_", ""):
            try:
                core = getattr(lib, f"{prefix}get_corename{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            core.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            host["blas"]["core"] = core().decode()
            host["blas"]["threads"] = threads()
            break
    from numpy._core._multiarray_umath import __cpu_features__

    host["simd"] = [k for k, on in __cpu_features__.items() if on]
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh
                      if ln.startswith("model name")]
        host["cpu"] = models[0] if models else platform.processor()
    except OSError:
        host["cpu"] = platform.processor()
    return host


def _coverage() -> None:
    """A small fixed call set that reaches every layer the tracer wraps.

    Traced children run it after their job, so that a layer the workload
    never calls is still timed (on these calls, kept apart from the job's).
    """
    params = soqd.ModelParams(0.2, 1.3, 0.8, 0.2, 1.0)
    soqd.compare_methods(params, 4, 0.0, [0.0, 1.0])
    soqd.decoherence_factor_oracle_coherent(params, 1 + 0j, 0.0, 1.0, 20)
    soqd.decoherence_time(params, soqd.CoherentState(0j, 100 + 0j), 0.0)
    config = soqd.SweepConfig(params, soqd.FockState(10), (0.0,), 0.0, 1.0, 100,
                              output_path="coverage.csv", emit_plot=True)
    soqd.run_sweep(config)
    soqd.read_points_csv(config.output_path)


def _decay(cells: list) -> list:
    out = []
    for cell in cells:
        params = soqd.model_params_from_json(cell["params"])
        state = soqd.apparatus_from_json(cell["state"])
        try:
            out.append({"tau": soqd.decoherence_time(params, state, cell["t"])})
        except soqd.SimulationError as exc:
            out.append({"error": type(exc).__name__})
    return out


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    t_spawn = float(sys.argv[2])
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install(soqd)
    result = {"t_spawn": t_spawn, "t_import": T_IMPORT}
    kind = spec["kind"]
    if kind == "probe":
        result["host"] = _fingerprint()
    elif kind == "cli":
        result["rc"] = soqd.main(spec["argv"])
        if spec.get("readback") and result["rc"] == 0:
            result["readback_rows"] = len(soqd.read_points_csv(spec["readback"]))
    elif kind == "decay":
        result["searches"] = _decay(spec["cells"])
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    result["t_done"] = time.perf_counter()
    if tracer is not None:
        result["coverage_from"] = tracer.next_sid
        _coverage()
        result["coverage_s"] = time.perf_counter() - result["t_done"]
        tracer.dump(".")
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
