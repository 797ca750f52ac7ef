"""Release-gating checks: every tolerance here is pinned, never tuned.

Each test stands alone and states its own bound.  Randomized draws use
fixed seeds so a failure is reproducible bit-for-bit; timed tests budget
wall-clock seconds on top of the numerical bound.
"""

import math
import os
import time

import numpy as np
import pytest

from soqd import (
    CoherentState,
    FockState,
    ModelParams,
    decoherence_factor_fock_quadrature,
    decoherence_factor_oracle_coherent,
    decoherence_factor_oracle_fock,
    decoherence_time,
    factor_over_tau,
    main,
)
from soqd.cli import FIGURE_PARAMS as PRESET
from soqd.correlation import g2_free, two_time_amplitude
from soqd.propagator import echo_over_tau

from test_propagator import step_transform, step_transform_ode, unitarity_defect


@pytest.fixture(scope="module")
def step_draws():
    rng = np.random.default_rng(8160)
    draws = []
    for _ in range(1000):
        a1, a2, b = rng.uniform(-2.0, 2.0, size=3)
        draws.append((float(a1), float(a2), float(b),
                      float(rng.uniform(0.0, 10.0))))
    return draws


@pytest.fixture(scope="module")
def decay_times():
    """1/e crossing of |F| for every (preparation, occupation, t) cell."""
    table = {}
    for n in (10, 100, 10_000):
        for t in (0.0, 10.0):
            coherent = CoherentState(0j, complex(math.sqrt(n)))
            table["coherent", n, t] = decoherence_time(PRESET, coherent, t)
            table["fock", n, t] = decoherence_time(PRESET, FockState(n), t)
    return table


def test_01_closed_step_matches_rk4_twin(step_draws):
    """Closed-form step transform vs fixed-step RK4 at dt=1e-3,
    entrywise <= 1e-8 over 1000 random draws, under 5 s."""
    start = time.perf_counter()
    worst = 0.0
    for step in step_draws:
        closed = step_transform(*step)
        integrated = step_transform_ode(*step, dt=1e-3)
        worst = max(worst, float(np.max(np.abs(closed - integrated))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_02_every_transform_is_unitary(step_draws):
    """max |M^dagger M - I| <= 1e-10 for all step transforms and for 1000
    fully composed six-step sequences."""
    worst = max(unitarity_defect(step_transform(*s)) for s in step_draws)
    rng = np.random.default_rng(8161)
    for _ in range(1000):
        w1, w2, de, dg = rng.uniform(-2.0, 2.0, size=4)
        params = ModelParams(float(w1), float(w2), float(de), float(dg),
                             omega_e=1.0)
        t, tp = rng.uniform(0.0, 10.0, size=2)
        m = np.eye(2) + echo_over_tau(params, float(t), [float(tp - t)])
        worst = max(worst, unitarity_defect(m))
    assert worst <= 1e-10


def test_03_telescoping_identities():
    """F(t, t) = 1 and (equal couplings => F = 1), both preparations,
    <= 1e-9 over 200 random (params, t, t') draws."""
    rng = np.random.default_rng(8162)
    worst = 0.0
    for _ in range(200):
        w1, w2, de, dg = rng.uniform(-2.0, 2.0, size=4)
        t, tp = (float(x) for x in rng.uniform(0.0, 10.0, size=2))
        beta0 = complex(*rng.uniform(-2.0, 2.0, size=2))
        n = int(rng.integers(0, 30))

        params = ModelParams(float(w1), float(w2), float(de), float(dg),
                             omega_e=1.0)
        coherent, fock = CoherentState(0j, beta0), FockState(n)
        worst = max(worst,
                    abs(factor_over_tau(params, coherent, t, [0.0])[0] - 1),
                    abs(factor_over_tau(params, fock, t, [0.0])[0] - 1))

        balanced = ModelParams(float(w1), float(w2), float(de), float(de),
                               omega_e=1.0)
        worst = max(worst,
                    abs(factor_over_tau(balanced, coherent, t, [tp - t])[0] - 1),
                    abs(factor_over_tau(balanced, fock, t, [tp - t])[0] - 1))
    assert worst <= 1e-9


def test_04_number_state_triple_agreement():
    """Closed form vs dense sector products (<= 1e-9) and vs phase-space
    quadrature (<= 1e-6) for n in {1, 2, 5, 10, 40}, t in {0, 10},
    21 tau points in [0, 10], under 30 s."""
    start = time.perf_counter()
    taus = np.linspace(0.0, 10.0, 21)
    worst_oracle = worst_quadrature = 0.0
    for n in (1, 2, 5, 10, 40):
        for t in (0.0, 10.0):
            for tau in taus:
                fc = factor_over_tau(PRESET, FockState(n), t, [tau])[0]
                fo = decoherence_factor_oracle_fock(PRESET, n, t, tau)[0]
                fq = decoherence_factor_fock_quadrature(PRESET, n, t, tau)[0]
                worst_oracle = max(worst_oracle, abs(fc - fo))
                worst_quadrature = max(worst_quadrature, abs(fc - fq))
    elapsed = time.perf_counter() - start
    assert worst_oracle <= 1e-9
    assert worst_quadrature <= 1e-6
    assert elapsed < 30.0


def test_05_coherent_closed_form_matches_dense_mixture():
    """Coherent overlap vs Poisson mixture of sector products at
    |beta0|^2 = 10, cutoff 120: <= 1e-6 on the same tau grid."""
    beta0 = complex(math.sqrt(10))
    taus = np.linspace(0.0, 10.0, 21)
    worst = 0.0
    for t in (0.0, 10.0):
        dense = decoherence_factor_oracle_coherent(PRESET, beta0, t, taus,
                                                   cutoff=120)
        assert 0.0 < dense.tail_bound <= 1e-9
        for tau, f_dense in zip(taus, dense.value):
            closed = factor_over_tau(PRESET, CoherentState(0j, beta0), t, [tau])[0]
            worst = max(worst, abs(closed - f_dense))
    assert worst <= 1e-6


def test_06_larger_occupation_decoheres_faster(decay_times):
    """Strict ordering tau_d(1e4) < tau_d(1e2) < tau_d(10) for both
    preparations at t = 0 and t = 10."""
    for kind in ("coherent", "fock"):
        for t in (0.0, 10.0):
            assert (decay_times[kind, 10_000, t]
                    < decay_times[kind, 100, t]
                    < decay_times[kind, 10, t]), (kind, t)


def test_07_decay_time_insensitive_to_first_measurement_time(decay_times):
    """Coherent tau_d moves < 25% between t = 0 and t = 10 at every
    occupation."""
    for n in (10, 100, 10_000):
        at_zero = decay_times["coherent", n, 0.0]
        at_ten = decay_times["coherent", n, 10.0]
        assert abs(at_ten - at_zero) / at_zero <= 0.25, n


def test_08_preparations_share_the_large_occupation_limit(decay_times):
    """| |F_fock| - |F_coherent| | <= 0.05 pointwise over [0, 2*tau_d] at
    n = 1e4, measured from t = 0.  The split is derived: to first order in
    tau, K - I = -i(d_e - d_g) tau sigma_x, so the coherent tau_d tends to
    sqrt(-2 ln theta) / (|d_e - d_g| sqrt(n)) at every t, and the number
    state's to that divided by sqrt(1 - x(t)^2), x(t) = u^dagger sigma_x u
    with u = S1(t) e_2.  At t = 0, u = e_2 and x(0) = 0, so the two
    preparations share the limit; at t = 10 the number state decays
    slower by 1/sqrt(1 - x(10)^2) = 1.411821."""
    tau_d = decay_times["coherent", 10_000, 0.0]
    taus = np.linspace(0.0, 2.0 * tau_d, 256)
    fock = np.abs(factor_over_tau(PRESET, FockState(10_000), 0.0, taus))
    coherent = np.abs(factor_over_tau(
        PRESET, CoherentState(0j, complex(math.sqrt(10_000))), 0.0, taus))
    assert float(np.max(np.abs(fock - coherent))) <= 0.05


def test_09_free_fringe_is_an_undamped_cosine():
    """g2 with the field coupling off is exactly 1/2 + cos(tau)/2 for the
    balanced superposition, <= 1e-12 on 100 tau values, and always equals
    the squared two-time amplitude."""
    c = 1 / math.sqrt(2)
    worst = 0.0
    for tau in np.linspace(0.0, 20.0, 100):
        got = g2_free(c, c, 1.0, 0.0, 0.0, float(tau))
        amp = two_time_amplitude(c, c, 1.0, 0.0, 0.0, float(tau))
        worst = max(worst,
                    abs(got - (0.5 + 0.5 * math.cos(tau))),
                    abs(got - abs(amp) ** 2))
    assert worst <= 1e-12


def test_10_preset_panels_are_deterministic(tmp_path, golden_dir):
    """All 12 preset panels, driven through the CLI, under 10 s total and
    byte-identical to the pinned CSVs and SVGs."""
    start = time.perf_counter()
    for figure in (1, 2):
        for panel in "abcdef":
            rc = main(["figure", "--id", str(figure), "--panel", panel,
                       "--out", str(tmp_path)])
            assert rc == 0
    elapsed = time.perf_counter() - start
    for figure in (1, 2):
        for panel in "abcdef":
            for ext in ("csv", "svg"):
                name = f"fig{figure}{panel}.{ext}"
                fresh = (tmp_path / name).read_bytes()
                with open(os.path.join(golden_dir, "figures", name), "rb") as fh:
                    pinned = fh.read()
                assert fresh == pinned, f"{name} deviates from its pinned bytes"
    assert elapsed < 10.0
