"""Preset panels: bytes independent of the host's kernels, values anchored
to a high-precision reference."""

import math
import os
import subprocess
import sys

import pytest

import soqd
from soqd import read_points_csv
from soqd.cli import FIGURE_PARAMS, PANEL_SETTINGS, reproduce_figure

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
    """F and G at 200 bits for float inputs t and t' (converted exactly).

    Each step propagator is mpmath.expm of -i*duration*H with
    H = [[alpha1, beta], [beta, alpha2]]: no half-angle formula, so the
    reference shares nothing with the closed form but the schedule.
    """
    p = {k: mp.mpf(getattr(FIGURE_PARAMS, k))
         for k in ("omega1", "omega2", "d_e", "d_g", "omega_e")}
    w1, w2, de, dg = p["omega1"], p["omega2"], p["d_e"], p["d_g"]
    t, t_prime = mp.mpf(t), mp.mpf(t_prime)
    rows = ((w1, w2, de + dg, t), (-w1, -w2, -de, t), (w1, w2, de, t_prime),
            (-w1, -w2, -dg, t_prime), (w1, w2, dg, t), (-w1, -w2, -de - dg, t))
    m = mp.eye(2)
    for a1, a2, b, d in rows:
        m = mp.expm(mp.matrix([[a1, b], [b, a2]]) * (-1j * d)) * m
    if figure == 2:
        f = m[1, 1] ** n
    else:  # coherent (0, beta0) with beta0 the float sqrt(n) the panel uses
        beta0 = mp.mpf(math.sqrt(n))
        a6, b6 = m[0, 1] * beta0, m[1, 1] * beta0
        f = mp.exp(-abs(a6) ** 2 / 2 - (beta0 ** 2 + abs(b6) ** 2) / 2 + beta0 * b6)
    g = mp.mpf(1) / 2 + mp.re(mp.expj(p["omega_e"] * (t - t_prime)) * f) / 2
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
                f_ref, g_ref = _reference(mp, figure, n, t, t + tau)
                rel_f = float(abs(mp.mpc(f) - f_ref) / abs(f_ref))
                assert rel_f <= F_REL_BOUND, (figure, panel, tau, rel_f)
                assert float(abs(g - g_ref)) <= G_ABS_BOUND, (figure, panel, tau)
