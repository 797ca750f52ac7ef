"""Closed-form factors, quadrature twin, correlation assembly, threshold search."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import soqd
from soqd import (
    CoherentState,
    ConfigError,
    DecoherenceNotReached,
    FockState,
    ModelParams,
    NonFiniteParameter,
    SectorTooLarge,
    TauUnresolved,
    UnphysicalFactor,
    decoherence_factor_fock_quadrature,
    decoherence_time,
    factor_over_tau,
    g2_interacting,
)
from soqd import correlation
from soqd.correlation import _TAU_BLOCK, TAU_MAX_DEFAULT, _overlap
from soqd.propagator import echo_over_tau
from soqd.quadrature import (
    _ANGULAR_ORDER,
    QUADRATURE_OCCUPATION_GUARD,
    _gauss_laguerre_log,
    _radial_order,
)


# ---------------------------------------------------------------------------
# closed-form factors
# ---------------------------------------------------------------------------

def test_coherent_factor_equal_times_is_unity(preset_params):
    for t in (0.0, 3.7, 10.0):
        f = factor_over_tau(preset_params, CoherentState(0j, 2.0 + 1.0j), t, [0.0])[0]
        assert abs(f - 1) <= 1e-9


def test_coherent_factor_equal_couplings_is_unity():
    params = ModelParams(0.7, -0.4, 0.5, 0.5, omega_e=1.0)
    for t, tp in ((0.0, 4.0), (2.0, 9.0)):
        f = factor_over_tau(params, CoherentState(0j, 1.5 + 0j), t, [tp - t])[0]
        assert abs(f - 1) <= 1e-9


def test_coherent_factor_empty_preparation_is_unity(preset_params):
    f = factor_over_tau(preset_params, CoherentState(0j, 0j), 1.0, [5.0])[0]
    assert f == pytest.approx(1.0)


def test_coherent_factor_magnitude_bounded(rng):
    for _ in range(20):
        w1, w2, de, dg = rng.uniform(-2, 2, size=4)
        params = ModelParams(w1, w2, de, dg, omega_e=1.0)
        beta0 = complex(*rng.uniform(-3, 3, size=2))
        t, tp = rng.uniform(0, 10, size=2)
        f = factor_over_tau(params, CoherentState(0j, beta0), t, [tp - t])[0]
        assert abs(f) <= 1 + 1e-10


def test_coherent_factor_exponential_identity(preset_params, rng):
    """With mode 1 empty the overlap collapses to exp(|beta0|^2 (m22 - 1)),
    m22 - 1 being D22."""
    for _ in range(10):
        beta0 = complex(*rng.uniform(-3, 3, size=2))
        t, tp = rng.uniform(0, 10, size=2)
        d22 = echo_over_tau(preset_params, t, [tp - t])[0, 1, 1]
        want = np.exp(abs(beta0) ** 2 * d22)
        got = factor_over_tau(preset_params, CoherentState(0j, beta0), t, [tp - t])[0]
        assert abs(got - want) <= 1e-12


def test_coherent_factor_matches_pinned_oracle(preset_params, derived_values):
    pinned = derived_values["coherent_sqrt10_f_preset_t0_tp2"]
    state = CoherentState(0j, complex(math.sqrt(10)))
    got = factor_over_tau(preset_params, state, 0.0, [2.0])[0]
    assert abs(got - complex(pinned["re"], pinned["im"])) <= 1e-6


def test_fock_closed_empty_is_unity(preset_params):
    assert factor_over_tau(preset_params, FockState(0), 1.0, [8.0])[0] == 1.0 + 0j


def test_fock_closed_equal_times_is_unity(preset_params):
    assert abs(factor_over_tau(preset_params, FockState(7), 4.2, [0.0])[0] - 1) <= 1e-9


def test_fock_closed_rejects_negative_occupation(preset_params):
    with pytest.raises(ConfigError, match="non-negative integer"):
        factor_over_tau(preset_params, FockState(-1), 0.0, [1.0])


def test_fock_closed_matches_pinned_oracle(preset_params, derived_values):
    pinned = derived_values["fock10_f_preset_t0_tp2"]
    got = factor_over_tau(preset_params, FockState(10), 0.0, [2.0])[0]
    assert abs(got - complex(pinned["re"], pinned["im"])) <= 1e-9


def test_fock_closed_survives_huge_occupation(preset_params):
    f = factor_over_tau(preset_params, FockState(10**6), 0.0, [2.0])[0]
    assert np.isfinite(f.real) and np.isfinite(f.imag)
    assert abs(f) < 1e-100


# ---------------------------------------------------------------------------
# quadrature twin
# ---------------------------------------------------------------------------

def test_default_quadrature_orders():
    """The orders follow from n: n + 8 radial nodes, never fewer than n + 1,
    and 8 on the phase circle, where the integrand is constant."""
    assert (_radial_order(0), _radial_order(40), _radial_order(100)) == (8, 48, 108)
    assert all(_radial_order(n) >= n + 1 for n in range(QUADRATURE_OCCUPATION_GUARD + 1))
    assert _ANGULAR_ORDER == 8


def test_gauss_laguerre_matches_numpy():
    nodes, log_w = _gauss_laguerre_log(32)
    ref_nodes, ref_w = np.polynomial.laguerre.laggauss(32)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-10
    assert np.max(np.abs(np.exp(log_w) - ref_w)) <= 1e-12


def _laguerre_rule_mp(order, start):
    """Gauss-Laguerre nodes and log-weights at 40 digits, by Newton on the
    roots of L_order from ``start``; w = x / ((R+1) L_{R+1}(x))^2."""
    mp = pytest.importorskip("mpmath").mp

    def laguerre(x):  # (L_{R-1}(x), L_R(x)) by the three-term recurrence
        prev, cur = mp.mpf(1), 1 - x
        for j in range(1, order):
            prev, cur = cur, ((2 * j + 1 - x) * cur - j * prev) / (j + 1)
        return prev, cur

    nodes, log_w = [], []
    with mp.workdps(40):
        for x0 in start:
            x = mp.mpf(float(x0))
            for _ in range(4):  # quadratic convergence from ~1e-13
                below, at = laguerre(x)
                x -= at * x / (order * (at - below))  # L_R' = R (L_R - L_{R-1}) / x
            below, _ = laguerre(x)
            nodes.append(float(x))
            # at a root of L_R, (R+1) L_{R+1} = -R L_{R-1}
            log_w.append(float(mp.log(x) - 2 * mp.log(abs(order * below))))
    return np.array(nodes), np.array(log_w)


@pytest.mark.parametrize("order", [64, 168])
def test_gauss_laguerre_rule_matches_a_40_digit_reference(order):
    nodes, log_w = _gauss_laguerre_log(order)
    ref_nodes, ref_log_w = _laguerre_rule_mp(order, nodes)
    assert np.all(np.diff(ref_nodes) > 0), "Newton did not find every root"
    assert np.max(np.abs(nodes - ref_nodes) / ref_nodes) <= 1e-12
    assert np.max(np.abs(log_w - ref_log_w)) <= 2e-10


def test_import_soqd_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(soqd.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, soqd; print([m for m in sys.modules if m.startswith('scipy')])"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_gauss_laguerre_rule_is_computed_once_per_order():
    nodes, log_w = _gauss_laguerre_log(24)
    assert _gauss_laguerre_log(24)[0] is nodes
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        log_w[0] = 0.0


def test_gauss_laguerre_fifth_moment():
    nodes, log_w = _gauss_laguerre_log(8)
    moment = float(np.exp(log_w) @ nodes**5)
    assert moment == pytest.approx(math.factorial(5), rel=1e-12)


def test_quadrature_empty_is_unity(preset_params):
    f = decoherence_factor_fock_quadrature(preset_params, 0, 0.0, 5.0)[0]
    assert abs(f - 1) <= 1e-12


def test_quadrature_equal_couplings_is_unity():
    params = ModelParams(0.7, -0.4, 0.5, 0.5, omega_e=1.0)
    f = decoherence_factor_fock_quadrature(params, 6, 1.0, 6.0)[0]
    assert abs(f - 1) <= 1e-9


def test_quadrature_matches_closed_form(preset_params, rng):
    for n in (1, 3, 10, 40):
        t, tp = rng.uniform(0, 10, size=2)
        closed = factor_over_tau(preset_params, FockState(n), t, [tp - t])[0]
        quad = decoherence_factor_fock_quadrature(preset_params, n, t, tp - t)[0]
        assert abs(closed - quad) <= 1e-9


def test_quadrature_matches_pinned_oracle(preset_params, derived_values):
    pinned = derived_values["fock10_f_preset_t0_tp2"]
    got = decoherence_factor_fock_quadrature(preset_params, 10, 0.0, 2.0)[0]
    assert abs(got - complex(pinned["re"], pinned["im"])) <= 1e-6


def test_quadrature_deep_occupation(preset_params):
    """n = 100 at its derived radial order 108 leans on weights of order
    1e-60; a weight path that loses relative accuracy at small magnitudes
    fails this by a factor of ~30.  At t' = 12, |F| = 5.7e-24, so the
    absolute bound there checks little; t' = 10.05 and 10.5 (|F| = 0.98
    and 0.036) hold the quadrature to 1e-9 of the closed form, relative."""
    assert _radial_order(100) == 108
    taus = np.array([2.0, 0.05, 0.5])
    closed = factor_over_tau(preset_params, FockState(100), 10.0, taus)
    quad = decoherence_factor_fock_quadrature(preset_params, 100, 10.0, taus)
    assert abs(closed[0] - quad[0]) <= 1e-6
    assert np.all(np.abs(closed[1:] - quad[1:]) <= 1e-9 * np.abs(closed[1:]))


def test_quadrature_rejects_oversized_occupation(preset_params):
    with pytest.raises(SectorTooLarge):
        decoherence_factor_fock_quadrature(
            preset_params, QUADRATURE_OCCUPATION_GUARD + 1, 0.0, 1.0)


def test_quadrature_rejects_negative_occupation(preset_params):
    with pytest.raises(ConfigError):
        decoherence_factor_fock_quadrature(preset_params, -2, 0.0, 1.0)


# ---------------------------------------------------------------------------
# correlation assembly
# ---------------------------------------------------------------------------

def test_g2_interacting_unit_factor_recovers_fringe():
    got = g2_interacting(1.0 + 0j, 2.0, 3.0, omega_e=1.0)
    assert got == pytest.approx(0.5 + 0.5 * math.cos(3.0), abs=1e-14)


def test_g2_interacting_dead_factor_gives_plateau():
    assert g2_interacting(0j, 0.0, 8.0, omega_e=1.0) == pytest.approx(0.5)


def test_g2_interacting_complex_factor():
    got = g2_interacting(0.5j, 1.0, 0.0, omega_e=1.0)
    assert got == pytest.approx(0.5, abs=1e-14)


def test_g2_interacting_rejects_unphysical_factor():
    with pytest.raises(UnphysicalFactor):
        g2_interacting(1.1 + 0j, 0.0, 1.0, omega_e=1.0)
    f = np.array([0.5, 1.2 + 0j, 1.7j, 0.0])
    with pytest.raises(UnphysicalFactor, match=r"\|f\| = 1\.7 "):
        g2_interacting(f, 0.0, np.linspace(0.0, 1.0, 4), omega_e=1.0)
    with pytest.raises(UnphysicalFactor, match="nan"):
        g2_interacting(np.array([0.5, complex(math.nan, 0.0)]), 0.0, 1.0, omega_e=1.0)


def test_g2_interacting_array_matches_scalar_calls_bit_for_bit():
    """10^4 points, f = 0 and |f| = 1 among them: the array path equals
    per-element calls and the complex-multiply scalar formula exactly."""
    rng = np.random.default_rng(11)
    size = 10_000
    f = np.sqrt(rng.uniform(0.0, 1.0, size)) * np.exp(1j * rng.uniform(-np.pi, np.pi, size))
    f[:50] = 0.0
    f[50:100] = np.exp(1j * rng.uniform(-np.pi, np.pi, 50))
    f[100:104] = (1.0, -1.0, 1j, -1j)
    t = rng.uniform(0.0, 20.0, size)
    tau = rng.uniform(-5.0, 30.0, size)
    omega_e = 1.3
    got = g2_interacting(f, t, tau, omega_e)
    assert got.shape == (size,)
    per_element = [g2_interacting(complex(z), float(a), float(b), omega_e)
                   for z, a, b in zip(f, t, tau)]
    formula = [0.5 + 0.5 * np.real(np.exp(1j * omega_e * (a - (a + b))) * complex(z))
               for z, a, b in zip(f, t.tolist(), tau.tolist())]
    assert np.array_equal(got, per_element)
    assert np.array_equal(got, formula)


def test_equal_couplings_reduce_to_free_fringe():
    """When both internal states stir the field identically the fringe
    never decays: the interacting correlation is the free 1/2 + cos(omega_e tau)/2."""
    params = ModelParams(0.7, -0.4, 0.5, 0.5, omega_e=1.0)
    for tau in np.linspace(0.0, 10.0, 11):
        f = factor_over_tau(params, CoherentState(0j, 2.0 + 0j), 1.0, [tau])[0]
        inter = g2_interacting(f, 1.0, float(tau), params.omega_e)
        free = 0.5 + 0.5 * math.cos(params.omega_e * tau)
        assert inter == pytest.approx(free, abs=1e-9)


def _length_one_calls(params, state, t, taus) -> np.ndarray:
    return np.array([factor_over_tau(params, state, t, [tau])[0] for tau in taus])


def test_factor_over_tau_matches_scalar_coherent(preset_params):
    """A scalar F is the length-1 call, with the bits of its grid entry."""
    taus = np.linspace(-2.0, 6.0, 17)
    state = CoherentState(0j, 1.5 - 0.5j)
    got = factor_over_tau(preset_params, state, 3.0, taus)
    singles = _length_one_calls(preset_params, state, 3.0, taus)
    assert np.array_equal(got.view(np.uint64), singles.view(np.uint64))


def test_factor_over_tau_matches_scalar_fock(preset_params):
    taus = np.linspace(0.0, 8.0, 17)
    for t in (0.0, 3.0):
        got = factor_over_tau(preset_params, FockState(12), t, taus)
        singles = _length_one_calls(preset_params, FockState(12), t, taus)
        assert np.array_equal(got.view(np.uint64), singles.view(np.uint64))


def test_factor_over_tau_empty_fock_is_flat(preset_params):
    got = factor_over_tau(preset_params, FockState(0), 1.0, np.linspace(0, 5, 9))
    assert np.array_equal(got, np.ones(9, dtype=complex))


@pytest.mark.parametrize("state", [FockState(10_000), CoherentState(0.3j, 1.5 - 0.5j)])
def test_factor_over_tau_in_blocks_keeps_every_bit(preset_params, state):
    """A grid of 2 full blocks and a partial one gives the bits of one
    unblocked evaluation: the arithmetic is elementwise per tau."""
    taus = np.linspace(0.0, 0.5, 2 * _TAU_BLOCK + 3)
    for t in (0.0, 10.0):
        whole = _overlap(state, echo_over_tau(preset_params, t, taus))
        got = factor_over_tau(preset_params, state, t, taus)
        assert got.shape == taus.shape
        assert np.array_equal(got.view(np.uint64), whole.view(np.uint64))


@pytest.mark.parametrize("state", [FockState(40), CoherentState(0.3j, 1.5 - 0.5j)])
def test_factor_over_tau_cuts_a_long_t_into_blocks_with_its_taus(preset_params, state):
    """A 1-D t longer than a block pairs with the taus entry by entry and
    gives, bit for bit, the per-t scalar calls; a scalar tau goes with
    every t."""
    rng = np.random.default_rng(27)
    t = rng.uniform(0.0, 20.0, _TAU_BLOCK + 904)
    taus = rng.uniform(0.0, 20.0, t.size)
    got = factor_over_tau(preset_params, state, t, taus)
    singles = np.array([factor_over_tau(preset_params, state, t0, [tau])[0]
                        for t0, tau in zip(t.tolist(), taus.tolist())])
    assert got.shape == t.shape
    assert np.array_equal(got.view(np.uint64), singles.view(np.uint64))
    got = factor_over_tau(preset_params, state, t, 3.0)
    singles = np.array([factor_over_tau(preset_params, state, t0, 3.0)[0] for t0 in t.tolist()])
    assert np.array_equal(got.view(np.uint64), singles.view(np.uint64))
    with pytest.raises(ConfigError, match=rf"got shapes \({t.size},\) and \(3,\)"):
        factor_over_tau(preset_params, state, t, taus[:3])


def test_factor_over_tau_refuses_tau_lost_to_rounding(preset_params):
    """At t = 1e17 the spacing of doubles is 16, so t + tau drops every
    tau below 8; the grid is refused instead of returning F(t, t) = 1."""
    with pytest.raises(TauUnresolved, match=r"tau = 0.5 is lost at t = 1e\+17"):
        factor_over_tau(preset_params, FockState(100), 1e17, [0.5, 1.0, 4.0])
    # tau = 0 is exact at any t, and t = 10 still resolves tau = 1e-5
    factor_over_tau(preset_params, FockState(100), 1e17, [0.0])
    factor_over_tau(preset_params, FockState(100), 10.0, [1e-5, 0.5])


@pytest.mark.parametrize("state", [FockState(100), CoherentState(0.3j, 1.5 - 0.5j)])
@pytest.mark.parametrize("t", [0.0, 10.0, 1e17])
def test_factor_at_coinciding_times_is_exactly_one(preset_params, state, t):
    """F(t, t) is exactly 1 at any t: tau = 0 makes D = M - I exactly 0,
    where a multiplied-out six-step product gave 1 + 4.4e-14 at t = 10."""
    f = factor_over_tau(preset_params, state, t, [0.0])[0]
    assert (f.real, f.imag) == (1.0, 0.0)


# ---------------------------------------------------------------------------
# threshold search
# ---------------------------------------------------------------------------

def test_decoherence_time_matches_pinned_values(preset_params, derived_values):
    pinned = derived_values["coherent_tau_decay_t0"]["values"]
    for key in ("10", "100"):
        state = CoherentState(0j, complex(math.sqrt(float(key))))
        got = decoherence_time(preset_params, state, 0.0)
        assert got == pytest.approx(pinned[key], abs=1e-9)


def test_decoherence_time_orders_by_occupation(preset_params):
    fast = decoherence_time(preset_params, FockState(40), 0.0)
    slow = decoherence_time(preset_params, FockState(10), 0.0)
    assert fast < slow


def _counted_closed_form_calls(monkeypatch) -> list:
    """Record the number of taus of every closed-form call the search makes."""
    sizes = []

    def counted(params, t, taus):
        sizes.append(np.size(taus))
        return echo_over_tau(params, t, taus)

    monkeypatch.setattr(correlation, "echo_over_tau", counted)
    return sizes


def test_decoherence_time_not_reached_for_equal_couplings(monkeypatch):
    """A window that never decays costs one grid: one call of at most 512
    taus."""
    sizes = _counted_closed_form_calls(monkeypatch)
    params = ModelParams(0.7, -0.4, 0.5, 0.5, omega_e=1.0)
    with pytest.raises(DecoherenceNotReached):
        decoherence_time(params, CoherentState(0j, 2.0 + 0j), 0.0, tau_max=5.0)
    assert len(sizes) == 1 and sizes[0] <= 512


def test_decoherence_time_evaluates_whole_grids(preset_params, monkeypatch):
    """A reached search makes no one-tau call and at most 1024 tau
    evaluations, down to its 1e-12 relative bracket."""
    sizes = _counted_closed_form_calls(monkeypatch)
    for state in (FockState(100), CoherentState(0j, 10.0 + 0j)):
        for t in (0.0, 10.0):
            sizes.clear()
            decoherence_time(preset_params, state, t)
            assert min(sizes) > 1 and sum(sizes) <= 1024, (state, t, sizes)


def test_decoherence_time_refuses_a_decay_that_t_cannot_resolve(preset_params):
    """At n = 1e16, t = 10, |F| falls through 1/e near tau = 3e-8, below
    1.78e-7, the smallest tau that t + tau resolves at t = 10."""
    with pytest.raises(TauUnresolved, match=r"already at tau = 1\.776\d*e-07"):
        decoherence_time(preset_params, FockState(10 ** 16), 10.0)


@pytest.mark.parametrize("n", [10 ** k for k in range(6, 17, 2)])
def test_coherent_decay_time_follows_the_classical_law(preset_params, n):
    """Coherent (0, sqrt(n)) at t = 0: tau_d * |d_e - d_g| * sqrt(n) is
    sqrt(-2 ln(1/e)) = sqrt(2) to within 1e-5 relative from n = 1e6 up
    (measured 3.6e-7 at 1e6, falling as 1/n)."""
    tau = decoherence_time(preset_params, CoherentState(0j, complex(math.sqrt(n))), 0.0)
    ratio = tau * abs(preset_params.d_e - preset_params.d_g) * math.sqrt(n) / math.sqrt(2)
    assert abs(ratio - 1.0) <= 1e-5


@pytest.fixture
def number_state_limit_at_t10(preset_params):
    """1/sqrt(1 - x^2) at t = 10, x = u^dagger sigma_x u, u = S1(10) e_2,
    S1 = exp(-i H1 t) with H1 of coupling d_e + d_g, at 200 bits."""
    mp = pytest.importorskip("mpmath").mp
    p = preset_params
    with mp.workprec(200):
        s1 = mp.expm(mp.matrix([[p.omega1, p.d_e + p.d_g],
                                [p.d_e + p.d_g, p.omega2]]) * (-10j))
        x = 2 * mp.re(mp.conj(s1[0, 1]) * s1[1, 1])
        return float(1 / mp.sqrt(1 - x ** 2))


@pytest.mark.parametrize("n", [10 ** k for k in range(4, 13, 2)])
def test_number_state_decay_time_follows_the_classical_law(preset_params, n,
                                                           number_state_limit_at_t10):
    """At t = 10, tau_fock / tau_coherent is the number-state law
    1/sqrt(1 - x(10)^2) = 1.411821 to within 2/sqrt(n) relative: the
    number state, with no phase reference, sees only the part of the
    coupling orthogonal to S1's rotation (measured 1.67/sqrt(n))."""
    fock = decoherence_time(preset_params, FockState(n), 10.0)
    coherent = decoherence_time(preset_params, CoherentState(0j, complex(math.sqrt(n))), 10.0)
    limit = number_state_limit_at_t10
    assert abs(fock / coherent / limit - 1.0) <= 2.0 / math.sqrt(n)


def test_decoherence_time_not_reached_for_empty_preparation(preset_params):
    with pytest.raises(DecoherenceNotReached):
        decoherence_time(preset_params, FockState(0), 0.0, tau_max=5.0)


def test_decoherence_time_validates_inputs(preset_params):
    state = FockState(5)
    with pytest.raises(ConfigError):
        decoherence_time(preset_params, state, 0.0, threshold=0.0)
    with pytest.raises(ConfigError):
        decoherence_time(preset_params, state, 0.0, threshold=1.0)
    with pytest.raises(ConfigError):
        decoherence_time(preset_params, state, 0.0, tau_max=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_decoherence_time_refuses_a_non_finite_t_or_tau_max(preset_params, bad):
    """A NaN or infinite t is NonFiniteParameter from the first grid, and
    such a tau_max a ConfigError, not a search that reads "not reached"."""
    state = FockState(5)
    with pytest.raises(NonFiniteParameter, match=rf"^t = {bad!r}"):
        decoherence_time(preset_params, state, bad)
    with pytest.raises(ConfigError, match=rf"tau_max must be finite and > 0, got {bad!r}"):
        decoherence_time(preset_params, state, 0.0, tau_max=bad)


def test_default_search_window():
    assert TAU_MAX_DEFAULT == 200.0
