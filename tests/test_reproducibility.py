"""Preset panels: bytes independent of the host's kernels, values anchored
to a high-precision reference."""

import math
import os
import subprocess
import sys
from dataclasses import astuple

import pytest

import soqd
from soqd import (CoherentState, FockState, ModelParams, TauUnresolved, decoherence_time,
                  factor_over_tau, read_points_csv)
from soqd.cli import FIGURE_PARAMS, PANEL_SETTINGS, reproduce_figure

from test_propagator import schedule_product, schedule_rows

PANELS = [(figure, panel) for figure in (1, 2) for panel in PANEL_SETTINGS]

_RENDER_ALL = """
import sys
from soqd.cli import reproduce_figure
for figure in (1, 2):
    for panel in "abcdef":
        reproduce_figure(figure, panel, sys.argv[1])
"""


def _active_dispatched_features():
    """numpy's runtime-dispatched SIMD targets that this CPU enables."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def test_panel_bytes_do_not_depend_on_blas_kernel_or_simd_dispatch(tmp_path):
    """All 12 panels (CSV and SVG), rendered in fresh interpreters under
    different OpenBLAS core types and with numpy's dispatched SIMD targets
    masked, come out byte-identical: a kernel-dependent operation in the
    closed form or the writers shows here on a single host."""
    masked = ",".join(_active_dispatched_features())
    settings = {
        "default": {},
        "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
        "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
        "simd-masked": {"NPY_DISABLE_CPU_FEATURES": masked},
        "prescott-simd-masked": {"OPENBLAS_CORETYPE": "Prescott",
                                 "NPY_DISABLE_CPU_FEATURES": masked},
    }
    src = os.path.dirname(os.path.dirname(soqd.__file__))
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    base["PYTHONPATH"] = os.pathsep.join(
        [src] + ([base["PYTHONPATH"]] if base.get("PYTHONPATH") else []))
    for name, extra in settings.items():
        out = tmp_path / name
        out.mkdir()
        proc = subprocess.run([sys.executable, "-c", _RENDER_ALL, str(out)],
                              env={**base, **extra}, capture_output=True, text=True)
        assert proc.returncode == 0, f"{name}: {proc.stderr}"
    for figure, panel in PANELS:
        for ext in ("csv", "svg"):
            file = f"fig{figure}{panel}.{ext}"
            want = (tmp_path / "default" / file).read_bytes()
            for name in settings:
                assert (tmp_path / name / file).read_bytes() == want, \
                    f"{file} under {name} differs from the default run"


# ---------------------------------------------------------------------------
# accuracy against a 200-bit evaluation of the same schedule
# ---------------------------------------------------------------------------

#: relative error bound on F and absolute bound on G.  Measured worst over
#: all 7200 panel rows: 1.0e-11 for F (fig1f/fig2f, n = 10^4, where the
#: exponent of size n amplifies the transform's roundoff) and 2.8e-12 for G
F_REL_BOUND = 5e-11
G_ABS_BOUND = 1e-11

#: every 50th row of each 600-row panel, plus the last
ROW_STRIDE = 50


def _reference(mp, figure, n, t, t_prime):
    """F and G at 200 bits for t and t', floats (converted exactly) or mpf.

    The six-step schedule as written, each step mpmath.expm of
    -i*duration*H with H = [[alpha1, beta], [beta, alpha2]]: no half-angle
    formula and no echo identity, so the reference shares nothing with the
    closed form but the schedule.  A closed-form value on a tau grid is
    checked at t' = mp.mpf(t) + mp.mpf(tau), the t' the closed form
    evaluates, not at the float t + tau, which rounds tau by up to half an
    ulp of t.
    """
    p = ModelParams(*map(mp.mpf, astuple(FIGURE_PARAMS)))
    t, t_prime = mp.mpf(t), mp.mpf(t_prime)
    m = schedule_product(mp, schedule_rows(p, t, t_prime))
    if figure == 2:
        f = m[1, 1] ** n
    else:  # coherent (0, beta0) with beta0 the float sqrt(n) the panel uses
        beta0 = mp.mpf(math.sqrt(n))
        a6, b6 = m[0, 1] * beta0, m[1, 1] * beta0
        f = mp.exp(-abs(a6) ** 2 / 2 - (beta0 ** 2 + abs(b6) ** 2) / 2 + beta0 * b6)
    g = mp.mpf(1) / 2 + mp.re(mp.expj(p.omega_e * (t - t_prime)) * f) / 2
    return f, g


def test_panels_match_a_200_bit_reference(tmp_path):
    """Sampled rows of every panel agree with a 200-bit mpmath evaluation
    of the six-step schedule: |F - F_ref| <= 5e-11 |F_ref| and
    |G - G_ref| <= 1e-11.  Rows are read back from the panel CSVs, so the
    bound covers the whole path from schedule to printed digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workprec(200):
        for figure, panel in PANELS:
            n, _ = PANEL_SETTINGS[panel]
            points = read_points_csv(reproduce_figure(figure, panel, str(tmp_path))["csv"])
            rows = list(range(0, len(points), ROW_STRIDE)) + [len(points) - 1]
            for t, tau, f, g in zip(points.t[rows].tolist(), points.tau[rows].tolist(),
                                    points.f[rows].tolist(), points.g[rows].tolist()):
                f_ref, g_ref = _reference(mp, figure, n, t, mp.mpf(t) + mp.mpf(tau))
                rel_f = float(abs(mp.mpc(f) - f_ref) / abs(f_ref))
                assert rel_f <= F_REL_BOUND, (figure, panel, tau, rel_f)
                assert float(abs(g - g_ref)) <= G_ABS_BOUND, (figure, panel, tau)


# ---------------------------------------------------------------------------
# accuracy in the classical limit: large mean occupation
# ---------------------------------------------------------------------------

#: relative bound on |F| and bound on arg(F / F_ref) in units of sqrt(n):
#: the phase of F is about sqrt(n) rad, so that is its own condition
#: number.  Measured worst: 2.4e-15 for |F| and 2.1e-15 * sqrt(n) for the
#: phase (n = 10^8 and 10^12, t = 10)
ABS_F_REL_BOUND = 1e-13
PHASE_BOUND_PER_ROOT_N = 1e-14

#: (mean occupation, first measurement times); at n = 10^16 the decay
#: taus, about 2e-8, are lost to the rounding of t + tau at t = 10
LARGE_OCCUPATIONS = ((10 ** 8, (0.0, 10.0)), (10 ** 12, (0.0, 10.0)),
                     (10 ** 16, (0.0,)))


@pytest.mark.parametrize("figure", [1, 2])
def test_large_occupations_match_a_200_bit_reference(figure):
    """Both preparations at mean occupation 10^8, 10^12 and 10^16 over
    tau in {0.5, 1, 1.5} * sqrt(2) / (|d_e - d_g| sqrt(n)), where |F|
    falls through 1/e: |F| to 1e-13 relative and its phase to
    1e-14 * sqrt(n) rad of a 200-bit evaluation of the six-step schedule
    at t' = t + tau formed exactly.  A closed form that multiplies out the
    six steps and then takes log(m22) loses n * 1e-16 relative in |F|."""
    mp = pytest.importorskip("mpmath")
    with mp.workprec(200):
        for n, t_values in LARGE_OCCUPATIONS:
            state = CoherentState(0j, complex(math.sqrt(n))) if figure == 1 else FockState(n)
            law = math.sqrt(2) / (abs(FIGURE_PARAMS.d_e - FIGURE_PARAMS.d_g) * math.sqrt(n))
            taus = [0.5 * law, law, 1.5 * law]
            for t in t_values:
                values = factor_over_tau(FIGURE_PARAMS, state, t, taus)
                for tau, f in zip(taus, values.tolist()):
                    f_ref, _ = _reference(mp, figure, n, t, mp.mpf(t) + mp.mpf(tau))
                    f = mp.mpc(f)
                    rel_abs = float(abs(abs(f) - abs(f_ref)) / abs(f_ref))
                    phase = float(abs(mp.arg(f / f_ref)))
                    assert rel_abs <= ABS_F_REL_BOUND, (n, t, tau, rel_abs)
                    assert phase <= PHASE_BOUND_PER_ROOT_N * math.sqrt(n), (n, t, tau, phase)
        with pytest.raises(TauUnresolved):
            factor_over_tau(FIGURE_PARAMS, state, 10.0, taus)


# ---------------------------------------------------------------------------
# decay times against a 200-bit root of the same schedule
# ---------------------------------------------------------------------------

#: relative bound on a decay time; the search brackets the crossing to a
#: relative width of 1e-12
DECAY_REL_BOUND = 1e-10


@pytest.mark.parametrize("figure", [1, 2])
def test_decay_times_match_a_200_bit_root(figure):
    """The 1/e decay time of both preparations at n = 10 and 10^4, t = 0
    and 10, within 1e-10 relative of the root of log|F_ref| = -1, F_ref
    the 200-bit six-step schedule.  The root is bracketed at +-0.1 % of
    the search's answer."""
    mp = pytest.importorskip("mpmath")
    with mp.workprec(200):
        for n in (10, 10_000):
            state = CoherentState(0j, complex(math.sqrt(n))) if figure == 1 else FockState(n)
            for t in (0.0, 10.0):
                tau = decoherence_time(FIGURE_PARAMS, state, t)

                def excess(x):
                    f_ref, _ = _reference(mp, figure, n, t, mp.mpf(t) + x)
                    return mp.log(abs(f_ref)) + 1

                lo, hi = mp.mpf(tau) * (1 - 1e-3), mp.mpf(tau) * (1 + 1e-3)
                assert excess(lo) > 0 > excess(hi), (n, t, tau)
                root = mp.findroot(excess, (lo, hi), solver="anderson")
                rel = float(abs(tau - root) / root)
                assert rel <= DECAY_REL_BOUND, (n, t, tau, rel)
