"""The four workloads: the jobs each runs and how each job's output is checked.

A job is one fresh ``child.py`` process.  Inputs are fixed; the seed only
orders the panels, picks the rows and tau windows the checks look at, and
picks the coupling of the never-reached decay searches, none of which
changes the amount of work.  A check returns a list of problems; any
problem, a non-zero exit or a missing result fails all of the job's ops.
"""

import json
import os
from dataclasses import dataclass, field
from typing import Callable

from reference import Reference

FIGURE_PARAMS = {"omega1": 0.2, "omega2": 1.3, "d_e": 0.8, "d_g": 0.2,
                 "omega_e": 1.0}
#: panel letter -> (mean occupation, first measurement time), as in soqd.cli
PANELS = {"a": (10, 0.0), "b": (10, 10.0), "c": (100, 0.0),
          "d": (100, 10.0), "e": (10_000, 0.0), "f": (10_000, 10.0)}
GOLDEN = os.path.join("tests", "golden")
CSV_HEADER = "t,tau,re_F,im_F,abs_F,G"

#: figure CSVs vs goldens after parsing; the seed's worst deviation is 1.1e-15
FIGURE_TOL = 1e-12
#: closed-form sweep F vs the 200-bit reference, relative to |F|; the seed's
#: worst is 1.0e-11 (number state n = 1e4, t = 10)
SWEEP_TOL = 1e-8
#: dense-oracle F vs the reference (absolute), and the compare command's bound
ORACLE_TOL = 1e-6
#: G = 1/2 + Re(...)/2 vs the reference (absolute)
G_TOL = 1e-9
#: F below this may underflow to 0 in double precision
UNDERFLOW = 1e-300
#: decoherence_time bisects to this absolute width
SEARCH_WIDTH = 1e-4


@dataclass
class Job:
    name: str
    spec: dict
    ops: int
    check: Callable  # (job_dir, result, stdout, facts) -> list of problems
    corrupt: Callable  # (job_dir) -> None; damages what check reads
    files: dict = field(default_factory=dict)  # written before the spawn


def _read_csv(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _bump_csv(path: str, row: int, col: int = 2) -> None:
    """Add 1e-3 to one value of data row ``row`` (0-based)."""
    lines = _read_csv(path)
    cells = lines[row + 1].split(",")
    cells[col] = format(float(cells[col]) + 1e-3, ".17g")
    lines[row + 1] = ",".join(cells)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _svg_problems(path: str) -> list:
    try:
        with open(path, encoding="utf-8") as fh:
            head = fh.read(4)
    except OSError:
        return [f"{path}: missing"]
    return [] if head == "<svg" else [f"{path}: not an SVG"]


def _row_problems(ref: Reference, state: dict, cells: list, f_tol: float,
                  relative: bool) -> list:
    """One parsed CSV row against the reference F, |F| and G.

    F and |F| must lie within ``f_tol`` of the reference, scaled by |F| when
    ``relative`` (past the decay |F| is tiny, so an absolute bound would
    pass any error there); G within ``G_TOL``.
    """
    t, tau, re_f, im_f, abs_f, g = (float(c) for c in cells)
    f = ref.factor(state, t, tau)
    want = complex(f)
    bound = f_tol * (abs(want) if relative else 1.0) + UNDERFLOW
    f_err = max(abs(complex(re_f, im_f) - want), abs(abs_f - abs(want)))
    g_err = abs(g - float(ref.g2(f, t, tau)))
    if f_err > bound or g_err > G_TOL:
        return [f"row t={t!r} tau={tau!r}: |delta F| {f_err:.3e}, |delta G| {g_err:.3e}"]
    return []


# ---------------------------------------------------------------------------
# figure_cold
# ---------------------------------------------------------------------------

def _figure_job(figure: int, panel: str) -> Job:
    stem = f"fig{figure}{panel}"

    def check(job_dir, result, stdout, facts):
        golden_path = os.path.join(GOLDEN, "figures", stem + ".csv")
        out_path = os.path.join(job_dir, stem + ".csv")
        with open(golden_path, "rb") as fh:
            golden = fh.read()
        with open(out_path, "rb") as fh:
            got = fh.read()
        facts["byte_exact"] = facts.get("byte_exact", 0) + (got == golden)
        want_lines = golden.decode().splitlines()
        got_lines = got.decode().splitlines()
        problems = _svg_problems(os.path.join(job_dir, stem + ".svg"))
        if len(got_lines) != len(want_lines) or got_lines[0] != want_lines[0]:
            return problems + [f"{stem}: header or row count differs from golden"]
        worst = 0.0
        for a, b in zip(got_lines[1:], want_lines[1:]):
            for x, y in zip(a.split(","), b.split(",")):
                y = float(y)
                worst = max(worst, abs(float(x) - y) / max(1.0, abs(y)))
        if worst > FIGURE_TOL:
            problems.append(f"{stem}: deviates from golden by {worst:.3e}")
        return problems

    def corrupt(job_dir):
        _bump_csv(os.path.join(job_dir, stem + ".csv"), 300)

    argv = ["figure", "--id", str(figure), "--panel", panel, "--out", "."]
    return Job(stem, {"kind": "cli", "argv": argv}, 600, check, corrupt)


def figure_cold(rng, tiny: bool) -> list:
    panels = ([(1, "a"), (2, "e")] if tiny
              else [(f, p) for f in (1, 2) for p in PANELS])
    rng.shuffle(panels)
    return [_figure_job(f, p) for f, p in panels]


# ---------------------------------------------------------------------------
# sweep_bulk
# ---------------------------------------------------------------------------

def _sweep_config(state: dict, t_values: list, tau_min: float, tau_max: float,
                  steps: int, method: str, plot: bool) -> str:
    config = dict(FIGURE_PARAMS, apparatus=state, t_values=t_values,
                  tau_min=tau_min, tau_max=tau_max, tau_steps=steps,
                  method=method, output_path="sweep.csv",
                  output_format="csv", emit_plot=plot)
    return json.dumps(config)


def _bulk_job(state: dict, tau_max: float, steps: int, samples: list) -> Job:
    t_values = [0.0, 10.0]
    rows = len(t_values) * steps
    ref = Reference(FIGURE_PARAMS)

    def check(job_dir, result, stdout, facts):
        lines = _read_csv(os.path.join(job_dir, "sweep.csv"))
        problems = _svg_problems(os.path.join(job_dir, "sweep.svg"))
        if result.get("readback_rows") != rows:
            problems.append(f"read back {result.get('readback_rows')} rows, "
                            f"expected {rows}")
        if len(lines) != rows + 1 or lines[0] != CSV_HEADER:
            return problems + ["sweep CSV: bad header or row count"]
        for idx in samples:
            cells = lines[idx + 1].split(",")
            t, tau = float(cells[0]), float(cells[1])
            want_tau = tau_max * (idx % steps) / (steps - 1)
            if t != t_values[idx // steps] or abs(tau - want_tau) > 1e-12 * tau_max:
                problems.append(f"row {idx}: grid node ({t!r}, {tau!r}) misplaced")
                continue
            problems += _row_problems(ref, state, cells, SWEEP_TOL, relative=True)
        return problems

    def corrupt(job_dir):
        _bump_csv(os.path.join(job_dir, "sweep.csv"), samples[0])

    config = _sweep_config(state, t_values, 0.0, tau_max, steps, "closed", True)
    spec = {"kind": "cli", "argv": ["sweep", "--config", "sweep.json"],
            "readback": "sweep.csv"}
    name = f"sweep-{state['kind']}{state['n']}"
    return Job(name, spec, rows, check, corrupt, {"sweep.json": config})


def sweep_bulk(rng, tiny: bool) -> list:
    steps = 500 if tiny else 50_000
    jobs = []
    head = steps // 50  # rows before |F| has decayed, in each t block
    for state, tau_max in (({"kind": "coherent", "n": 100}, 5.0),
                           ({"kind": "fock", "n": 10_000}, 0.5)):
        samples = rng.sample(range(2 * steps), 2 if tiny else 4)
        for block in (0, steps):
            samples += rng.sample(range(block, block + head), 1 if tiny else 2)
        jobs.append(_bulk_job(state, tau_max, steps, sorted(samples)))
    return jobs


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------

COMPARE_STEPS = 11


def _compare_job(n: int, t: float, tau_max: float) -> Job:
    def check(job_dir, result, stdout, facts):
        lines = stdout.splitlines()
        table = [ln for ln in lines[1:] if ln and ln.lstrip()[0].isdigit()]
        last = lines[-1] if lines else ""
        prefix = "max pairwise |delta| = "
        if not last.startswith(prefix) or len(table) != COMPARE_STEPS:
            return ["compare: report missing or truncated"]
        delta = float(last[len(prefix):])
        return [] if delta <= ORACLE_TOL else [f"compare: delta {delta:.3e}"]

    def corrupt(job_dir):
        with open(os.path.join(job_dir, "stdout.txt"), "a", encoding="utf-8") as fh:
            fh.write("max pairwise |delta| = 1.000e-03\n")

    argv = ["compare", "--n", str(n), "--t", repr(t), "--tau-max", repr(tau_max),
            "--steps", str(COMPARE_STEPS)]
    return Job(f"compare-n{n}-t{t:g}", {"kind": "cli", "argv": argv},
               3 * COMPARE_STEPS, check, corrupt)


def _oracle_sweep_job(t_values: list, tau_min: float, tau_max: float,
                      steps: int) -> Job:
    state = {"kind": "coherent", "n": 10}
    rows = len(t_values) * steps
    ref = Reference(FIGURE_PARAMS)

    def check(job_dir, result, stdout, facts):
        lines = _read_csv(os.path.join(job_dir, "sweep.csv"))
        if len(lines) != rows + 1 or lines[0] != CSV_HEADER:
            return ["oracle sweep CSV: bad header or row count"]
        problems = []
        for line in lines[1:]:
            problems += _row_problems(ref, state, line.split(","), ORACLE_TOL,
                                      relative=False)
        return problems

    def corrupt(job_dir):
        _bump_csv(os.path.join(job_dir, "sweep.csv"), 0)

    config = _sweep_config(state, t_values, tau_min, tau_max, steps, "oracle", False)
    spec = {"kind": "cli", "argv": ["sweep", "--config", "sweep.json"]}
    return Job("oracle-coherent10", spec, rows, check, corrupt,
               {"sweep.json": config})


def crosscheck(rng, tiny: bool) -> list:
    tau_max = round(rng.uniform(2.0, 6.0), 3)
    cells = [(10, 0.0)] if tiny else [(n, t) for n in (10, 40, 160) for t in (0.0, 10.0)]
    jobs = [_compare_job(n, t, tau_max) for n, t in cells]
    tau_min = round(rng.uniform(0.0, 1.0), 3)
    tau_hi = round(tau_min + rng.uniform(1.0, 3.0), 3)
    jobs.append(_oracle_sweep_job([0.0] if tiny else [0.0, 10.0],
                                  tau_min, tau_hi, 2))
    return jobs


# ---------------------------------------------------------------------------
# decay_search
# ---------------------------------------------------------------------------

def _load_derived() -> dict:
    with open(os.path.join(GOLDEN, "derived_values.json"), encoding="utf-8") as fh:
        return json.load(fh)["coherent_tau_decay_t0"]["values"]


def decay_search(rng, tiny: bool) -> list:
    occupations = (10, 100) if tiny else (10, 100, 10_000)
    cells, keys = [], []
    for kind in ("coherent", "fock"):
        for n in occupations:
            for t in (0.0, 10.0):
                cells.append({"params": FIGURE_PARAMS, "state": {"kind": kind, "n": n},
                              "t": t})
                keys.append((kind, n, t))
    d = round(rng.uniform(0.2, 1.0), 3)
    flat = dict(FIGURE_PARAMS, d_e=d, d_g=d)
    never = [{"kind": "coherent", "n": 100}, {"kind": "fock", "n": 100}]
    for state in never[:1] if tiny else never:
        cells.append({"params": flat, "state": state, "t": 0.0})
    derived = _load_derived()

    def check(job_dir, result, stdout, facts):
        out = result.get("searches", [])
        if len(out) != len(cells):
            return [f"{len(out)} search results, expected {len(cells)}"]
        problems = []
        taus = {}
        for key, res in zip(keys, out):
            tau = res.get("tau")
            if not isinstance(tau, float) or not tau > 0:
                problems.append(f"{key}: no decay time ({res})")
            taus[key] = tau
        if problems:
            return problems
        for kind in ("coherent", "fock"):
            for t in (0.0, 10.0):
                seq = [taus[kind, n, t] for n in reversed(occupations)]
                if not all(a < b for a, b in zip(seq, seq[1:])):
                    problems.append(f"{kind} t={t:g}: tau_d not ordered by n: {seq}")
        for n in occupations:
            want = derived[str(n)]
            if abs(taus["coherent", n, 0.0] - want) > SEARCH_WIDTH:
                problems.append(f"coherent n={n}: tau_d {taus['coherent', n, 0.0]!r}"
                                f" vs pinned {want!r}")
        for res in out[len(keys):]:
            if res.get("error") != "DecoherenceNotReached":
                problems.append(f"equal couplings: expected DecoherenceNotReached, got {res}")
        return problems

    def corrupt(job_dir):
        path = os.path.join(job_dir, "result.json")
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        first, last = result["searches"][0], result["searches"][len(occupations) * 2 - 1]
        first["tau"], last["tau"] = last["tau"], first["tau"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)

    spec = {"kind": "decay", "cells": cells}
    return [Job("decay", spec, len(cells), check, corrupt)]


JOBS = {"figure_cold": figure_cold, "sweep_bulk": sweep_bulk,
            "crosscheck": crosscheck, "decay_search": decay_search}
WORKLOADS = tuple(JOBS)
