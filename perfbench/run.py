"""soqd benchmark: run one workload for a while, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a soqd checkout; soqd is imported from ``src/``, so
nothing needs installing.  Workloads are defined in ``workloads.py``.

A pass runs every job of the workload once, each in a fresh interpreter
(``child.py``), one at a time: with OpenBLAS at its default of one thread
per core, one child at a time keeps the busy threads at the core count.
Passes repeat until the next one would end past ``--seconds``.  Every
output is checked; a failed check, an exception or a non-zero exit fails
all of that job's ops.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced passes (``tracer.py`` spans plus ``-X importtime``) and
reports the per-layer metrics of ``layers.py``; the plain passes give the
tracing overhead.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  The host fingerprint and the raw
samples go to ``.perfbench/results/``.

``--size tiny`` and ``--corrupt`` exist for ``selfcheck.py``: a small
version of each workload, and outputs damaged before they are checked.
"""

import argparse
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median

import layers
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = ".perfbench"
#: a child still running after this is killed and its job failed
CHILD_TIMEOUT_S = 150.0

#: (name, unit) of the metrics a plain run reports
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MiB"))


@dataclass
class Tally:
    """What the passes of one kind (plain or traced) measured."""

    pass_walls: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    job_wall_s: float = 0.0
    work_s: float = 0.0
    covered_s: float = 0.0
    imports: dict = field(default_factory=lambda: {m: [] for m in layers.MODULES})
    totals: dict = field(default_factory=dict)
    coverage: dict = field(default_factory=dict)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)


def _spawn(make_argv, cwd: str, env: dict, out, err):
    """Run ``make_argv(t_spawn)`` to exit; return (exit code, wall s, t_spawn)."""
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(make_argv(t_spawn), cwd=cwd, env=env, stdout=out,
                            stderr=err, stdin=subprocess.DEVNULL)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        wall = time.perf_counter() - t_spawn
        watchdog.cancel()
        watchdog.join()
    return code, wall, t_spawn


def _spawn_child(job_dir: str, spec: dict, traced: bool, env: dict):
    """Run child.py on ``spec`` in ``job_dir``, output to files there."""
    with open(os.path.join(job_dir, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    importtime = ["-X", "importtime"] if traced else []
    with open(os.path.join(job_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(job_dir, "stderr.txt"), "wb") as err:
        return _spawn(lambda t: [sys.executable, *importtime, CHILD, "spec.json", repr(t)],
                      job_dir, env, out, err)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _import_times(stderr: str) -> dict:
    """Cumulative ``-X importtime`` seconds of each soqd module."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name.startswith("soqd.") and name[5:] in layers.MODULES:
            out[name[5:]] = int(cumulative) * 1e-6
    return out


def _run_job(job, job_dir: str, traced: bool, args, env, tally: Tally,
             outcome: Outcome) -> float:
    os.makedirs(job_dir)
    for name, text in job.files.items():
        with open(os.path.join(job_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    spec = dict(job.spec, trace=traced, run_id=os.path.relpath(job_dir, WORK_ROOT))
    code, wall, t_spawn = _spawn_child(job_dir, spec, traced, env)
    result_path = os.path.join(job_dir, "result.json")
    problems = []
    if code != 0 or not os.path.exists(result_path):
        tail = _read(os.path.join(job_dir, "stderr.txt")).strip().splitlines()[-1:]
        problems.append(f"exit code {code} {tail}")
    else:
        if args.corrupt:
            job.corrupt(job_dir)
        result = json.loads(_read(result_path))
        tally.setups.append(result["t_import"] - t_spawn)
        tally.work_s += result["t_done"] - result["t_import"]
        if result.get("rc", 0) != 0:
            problems.append(f"soqd exit code {result['rc']}")
        else:
            stdout = _read(os.path.join(job_dir, "stdout.txt"))
            try:
                problems += job.check(job_dir, result, stdout, outcome.facts)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"check failed: {exc!r}")
        if traced:
            for module, seconds in _import_times(
                    _read(os.path.join(job_dir, "stderr.txt"))).items():
                tally.imports[module].append(seconds)
            covered_ns = tracer.aggregate(*tracer.load(job_dir), result["coverage_from"],
                                          tally.totals, tally.coverage)
            tally.covered_s += covered_ns * 1e-9
            wall -= result["coverage_s"]
    tally.job_wall_s += wall
    outcome.attempted += job.ops
    if problems:
        outcome.failed += job.ops
        outcome.problems += [f"{job.name}: {p}" for p in problems]
    shutil.rmtree(job_dir)
    return wall


def _probe(work: str, env: dict) -> dict:
    """Warm-up child that imports soqd and reports the host fingerprint."""
    job_dir = os.path.join(work, "probe")
    os.makedirs(job_dir)
    code, _, _ = _spawn_child(job_dir, {"kind": "probe"}, False, env)
    result_path = os.path.join(job_dir, "result.json")
    if code != 0 or not os.path.exists(result_path):
        sys.exit(f"cannot import soqd from src/ (exit code {code}):\n"
                 + _read(os.path.join(job_dir, "stderr.txt")))
    return json.loads(_read(result_path))["host"]


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (os.path.isfile(os.path.join("src", "soqd", "__init__.py"))
            and os.path.isdir(os.path.join(workloads.GOLDEN, "figures"))):
        print("run from the root of a soqd checkout (src/soqd and tests/golden)",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    work = os.path.abspath(os.path.join(WORK_ROOT, f"run-{os.getpid()}"))
    os.makedirs(work)
    try:
        host = _probe(work, env)
        jobs = workloads.JOBS[args.workload](random.Random(args.seed),
                                                 args.size == "tiny")
        tallies = {False: Tally(), True: Tally()}
        outcome = Outcome()
        min_passes = 2 if args.trace else 1
        start = time.perf_counter()
        k = 0
        while True:
            traced = bool(args.trace) and k % 2 == 1
            t0 = time.perf_counter()
            outcome.facts["byte_exact"] = 0
            wall = sum(_run_job(job, os.path.join(work, f"pass{k}", job.name), traced,
                                args, env, tallies[traced], outcome) for job in jobs)
            tallies[traced].pass_walls.append(wall)
            k += 1
            now = time.perf_counter()
            if k >= min_passes and (now - start) + (now - t0) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain, traced = tallies[False], tallies[True]
    if args.trace:
        values = layers.compute(traced.totals, traced.coverage, {
            "passes": len(traced.pass_walls), "wall_s": traced.job_wall_s,
            "setup_s": sum(traced.setups), "covered_s": traced.covered_s,
            "imports": traced.imports,
            "traced_walls": traced.pass_walls, "plain_walls": plain.pass_walls,
            "byte_exact": outcome.facts["byte_exact"]})
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        done = outcome.attempted - outcome.failed
        values = {
            "wall_s": median(plain.pass_walls),
            "setup_s": median(plain.setups) if plain.setups else 0.0,
            "ops_per_s": done / plain.work_s if plain.work_s else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    fail_frac = outcome.failed / outcome.attempted

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "corrupt": args.corrupt,
        "host": host, "attempted": outcome.attempted, "failed": outcome.failed,
        "fail_frac": fail_frac, "metrics": metrics,
        "samples": {"plain_pass_wall_s": plain.pass_walls, "plain_setup_s": plain.setups,
                    "traced_pass_wall_s": traced.pass_walls},
        "problems": outcome.problems[:50],
    }
    results = os.path.join(WORK_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("host " + json.dumps(host, sort_keys=True))
    print(f"{args.workload} (passes: {len(plain.pass_walls)} plain, "
          f"{len(traced.pass_walls)} traced):", "  ".join(
              [f"{m}={e['value']:.6g} {e['unit']}" for m, e in metrics.items()]
              + [f"fail_frac={fail_frac:.6g} ({outcome.failed}/{outcome.attempted} ops)"]))
    for problem in outcome.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
