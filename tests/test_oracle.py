"""Dense sector-space reference path."""

import ast
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from soqd import (
    CoherentState,
    ConfigError,
    CutoffTooSmall,
    EigenFailure,
    ModelParams,
    NegativeTime,
    SectorTooLarge,
    compare_methods,
    decoherence_factor_oracle_coherent,
    decoherence_factor_oracle_fock,
    factor_over_tau,
    run_sweep,
)
from soqd import oracle as oracle_module
from soqd import quadrature as quadrature_module
from soqd.cli import FIGURE_PARAMS, _coherent_cutoff, sweep_config_from_json
from soqd.oracle import (
    MIXTURE_TAIL_TARGET,
    SECTOR_GUARD,
    min_cutoff,
    sector_hamiltonians,
)
from soqd.propagator import echo_over_tau

from test_propagator import schedule_rows, step_transform


def test_sector_guard_value():
    assert SECTOR_GUARD == 512
    assert MIXTURE_TAIL_TARGET == 2.0 ** -53


#: populations (m, n_sys) of the three stacked sector Hamiltonians, in order
COUPLINGS = ((1, 1), (1, 0), (0, 1))


def _propagator(h: np.ndarray, duration) -> np.ndarray:
    """exp(-i H duration) as the production path forms it: _evolve on the
    identity columns, from numpy's own eigh of H."""
    return oracle_module._evolve(np.linalg.eigh(h), duration,
                                 np.eye(len(h), dtype=complex))


def test_sector_hamiltonian_single_quantum(preset_params):
    h11, h10, h01 = sector_hamiltonians(preset_params, 1)
    assert h11 == pytest.approx(np.array([[1.3, 1.0], [1.0, 0.2]]))
    assert h10 == pytest.approx(np.array([[1.3, 0.8], [0.8, 0.2]]))
    assert h01 == pytest.approx(np.array([[1.3, 0.2], [0.2, 0.2]]))


def test_sector_hamiltonian_empty_sector(preset_params):
    h = sector_hamiltonians(preset_params, 0)
    assert h.shape == (3, 1, 1) and not h.any()


def test_sector_hamiltonian_uncoupled_is_diagonal():
    params = ModelParams(0.2, 1.3, 0.0, 0.0, omega_e=1.0)
    h = sector_hamiltonians(params, 4)
    assert h.shape == (3, 5, 5)
    for hm in h:
        assert np.count_nonzero(hm - np.diag(np.diag(hm))) == 0
        assert hm[2, 2] == pytest.approx(0.2 * 2 + 1.3 * 2)


def test_sector_hamiltonian_is_hermitian(rng):
    for _ in range(20):
        w1, w2, de, dg = rng.uniform(-2, 2, size=4)
        params = ModelParams(w1, w2, de, dg, omega_e=1.0)
        h = sector_hamiltonians(params, int(rng.integers(0, 12)))
        assert h.dtype == float and np.array_equal(h, h.transpose(0, 2, 1))


def test_sector_hamiltonian_ladder_weights(preset_params):
    h = sector_hamiltonians(preset_params, 3)
    k = np.arange(3)
    root = np.sqrt((k + 1) * (3 - k))
    for hm, (m, n_sys) in zip(h, COUPLINGS):
        g = preset_params.d_e * m + preset_params.d_g * n_sys
        assert hm[k, k + 1] == pytest.approx(g * root)


def test_sector_hamiltonians_reject_a_negative_sector(preset_params):
    with pytest.raises(ConfigError, match="sector must be >= 0"):
        sector_hamiltonians(preset_params, -1)


def test_sector_propagator_zero_duration_is_identity(preset_params):
    for h in sector_hamiltonians(preset_params, 5):
        u = _propagator(h, 0.0)
        assert np.max(np.abs(u - np.eye(6))) <= 1e-12


def test_sector_propagator_diagonal_gives_elementwise_phases():
    params = ModelParams(0.2, 1.3, 0.0, 0.0, omega_e=1.0)
    h = sector_hamiltonians(params, 3)[0]
    u = _propagator(h, 1.7)
    expected = np.diag(np.exp(-1j * np.diag(h) * 1.7))
    assert np.max(np.abs(u - expected)) <= 1e-12


def test_sector_propagator_is_unitary(preset_params, rng):
    for _ in range(10):
        h = sector_hamiltonians(preset_params, int(rng.integers(1, 20)))[0]
        u = _propagator(h, float(rng.uniform(-10, 10)))
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= 1e-10


def test_sector_propagator_group_property(preset_params):
    h = sector_hamiltonians(preset_params, 6)[1]
    u = _propagator(h, 1.2) @ _propagator(h, 2.3)
    assert np.max(np.abs(u - _propagator(h, 3.5))) <= 1e-10


def test_sector_propagator_negative_duration_inverts(preset_params):
    h = sector_hamiltonians(preset_params, 4)[0]
    back_and_forth = _propagator(h, -2.0) @ _propagator(h, 2.0)
    assert np.max(np.abs(back_and_forth - np.eye(5))) <= 1e-10


def test_sector1_propagator_is_step_transform_with_modes_swapped(preset_params):
    """Sector 1 holds one quantum in either mode; its basis lists the
    mode-1-empty state first, so entries come out swapped relative to the
    2x2 amplitude matrix.  Step k of the six-step table is exp(-i H d) of
    one stacked coupling, with every coefficient negated on steps 2, 4, 6,
    which is the same as negating d."""
    h = sector_hamiltonians(preset_params, 1)
    rows = schedule_rows(preset_params, 1.5, 4.0)
    for row, which, sign in zip(rows, (0, 1, 1, 2, 2, 0), (1, -1, 1, -1, 1, -1)):
        u = _propagator(h[which], sign * row[3])
        assert np.max(np.abs(u - step_transform(*row)[::-1, ::-1])) <= 1e-9


def test_eigen_failure_is_wrapped(preset_params, monkeypatch):
    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", explode)
    with pytest.raises(EigenFailure, match="sector-2 eigendecomposition failed"):
        decoherence_factor_oracle_fock(preset_params, 2, 0.0, 1.0)


# ---------------------------------------------------------------------------
# number-state factor
# ---------------------------------------------------------------------------

def test_oracle_fock_vacuum_sector_is_unity(preset_params):
    assert decoherence_factor_oracle_fock(preset_params, 0, 3.0, 5.0)[0] == pytest.approx(1.0)


def test_oracle_fock_equal_times_is_unity(preset_params, rng):
    for n in (1, 3, 9):
        t = float(rng.uniform(0, 10))
        f = decoherence_factor_oracle_fock(preset_params, n, t, 0.0)[0]
        assert abs(f - 1) <= 1e-10


def test_oracle_fock_magnitude_bounded(preset_params, rng):
    for _ in range(20):
        n = int(rng.integers(0, 15))
        t, tp = rng.uniform(0, 10, size=2)
        assert abs(decoherence_factor_oracle_fock(preset_params, n, t, tp - t)[0]) <= 1 + 1e-10


def test_oracle_fock_rejects_oversized_sector(preset_params):
    with pytest.raises(SectorTooLarge):
        decoherence_factor_oracle_fock(preset_params, SECTOR_GUARD + 1, 0.0, 1.0)


def test_oracle_fock_single_quantum_equals_m22(preset_params, rng):
    for _ in range(10):
        w1, w2, de, dg = rng.uniform(-2, 2, size=4)
        params = ModelParams(w1, w2, de, dg, omega_e=1.0)
        t, tp = rng.uniform(0, 8, size=2)
        m22 = 1 + echo_over_tau(params, t, [tp - t])[0, 1, 1]
        f = decoherence_factor_oracle_fock(params, 1, t, tp - t)[0]
        assert abs(f - m22) <= 1e-9


def test_oracle_fock_agrees_with_m22_power(preset_params):
    m22 = 1 + echo_over_tau(preset_params, 0.0, [2.0])[0, 1, 1]
    f = decoherence_factor_oracle_fock(preset_params, 10, 0.0, 2.0)[0]
    assert abs(f - m22**10) <= 1e-9


# ---------------------------------------------------------------------------
# coherent mixture
# ---------------------------------------------------------------------------

def test_oracle_coherent_empty_preparation_is_unity(preset_params):
    result = decoherence_factor_oracle_coherent(preset_params, 0j, 0.0, 7.0, cutoff=5)
    assert result.value[0] == pytest.approx(1.0)
    assert result.tail_bound == 0.0
    # Poisson(0) has no tail: sector 0 alone is the exact mixture
    assert min_cutoff(0.0) == 0
    exact = decoherence_factor_oracle_coherent(preset_params, 0j, 0.0, 7.0, cutoff=0)
    assert exact.value[0] == 1.0 and exact.tail_bound == 0.0


def test_oracle_coherent_equal_couplings_is_unity():
    params = ModelParams(0.4, -1.1, 0.6, 0.6, omega_e=1.0)
    result = decoherence_factor_oracle_coherent(params, 2.0 + 0j, 1.0, 5.0, cutoff=40)
    assert abs(result.value[0] - 1) <= 1e-9


def test_oracle_coherent_rejects_small_cutoff(preset_params):
    assert min_cutoff(4.0) - 1 == 28
    with pytest.raises(CutoffTooSmall, match="smallest certified cutoff is 29"):
        decoherence_factor_oracle_coherent(preset_params, 2.0 + 0j, 0.0, 1.0, cutoff=28)


def test_oracle_coherent_rejects_oversized_cutoff(preset_params):
    # |beta0|^2 = 36 keeps the adequacy check happy so the guard is what fires
    with pytest.raises(SectorTooLarge):
        decoherence_factor_oracle_coherent(preset_params, 6.0 + 0j, 0.0, 1.0, cutoff=SECTOR_GUARD + 1)


def test_oracle_coherent_converges_under_cutoff_doubling(preset_params):
    lo = decoherence_factor_oracle_coherent(preset_params, 2.0 + 0j, 0.0, 2.0, cutoff=40)
    hi = decoherence_factor_oracle_coherent(preset_params, 2.0 + 0j, 0.0, 2.0, cutoff=80)
    assert abs(lo.value[0] - hi.value[0]) <= 1e-9
    assert lo.tail_bound <= 1e-9


def test_oracle_coherent_matches_closed_form(preset_params):
    beta0 = complex(math.sqrt(10))
    got = decoherence_factor_oracle_coherent(preset_params, beta0, 0.0, 2.0, cutoff=120)
    want = factor_over_tau(preset_params, CoherentState(0j, beta0), 0.0, [2.0])[0]
    assert abs(got.value[0] - want) <= 1e-6


# ---------------------------------------------------------------------------
# certified cutoff
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [0.25, 2.0, 10.0, 100.0, 348.0])
def test_certified_cutoff_bounds_the_true_tail(x, monkeypatch):
    """At the cutoff actually used, the discarded Poisson mass summed at
    200 bits stays below the bound, and the bound below 2^-53, also as the
    oracle reports it."""
    mpmath = pytest.importorskip("mpmath")
    cutoff = min_cutoff(x)
    assert cutoff <= SECTOR_GUARD
    with mpmath.workprec(200):
        # terms past C + 1 > x fall geometrically; stop far below the sum
        term = mpmath.exp(-x) * mpmath.mpf(x) ** (cutoff + 1) / mpmath.factorial(cutoff + 1)
        tail, k = mpmath.mpf(0), cutoff + 1
        while term > tail * mpmath.mpf(2) ** -100:
            tail += term
            k += 1
            term = term * x / k
        bound = oracle_module._poisson_tail_bound(x, cutoff)
        assert 0 < tail <= bound <= MIXTURE_TAIL_TARGET
    # only the reported bound is under test here, and 513 real sectors at
    # x = 348 would take many seconds, so the sectors are stubbed
    monkeypatch.setattr(oracle_module, "_sector_factor",
                        lambda params, n, t, t_primes: np.ones(t_primes.size, complex))
    result = decoherence_factor_oracle_coherent(FIGURE_PARAMS, complex(math.sqrt(x)),
                                                0.0, 1.0, cutoff)
    assert result.tail_bound <= MIXTURE_TAIL_TARGET


@pytest.mark.parametrize("x", [2.0, 10.0])
def test_certified_cutoff_agrees_with_the_old_cutoff(preset_params, x):
    """50 (t, t') cells.  The reference sums at least the sectors of the
    old max(20, 10 x) rule; at x = 2 that rule's own tail (6.1e-15) is
    above 1e-15, so there the reference takes twice the new cutoff."""
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 10.0, 50)
    tau = rng.uniform(0.0, 5.0, 50)
    beta0 = complex(math.sqrt(x))
    cutoff = min_cutoff(x)
    got = decoherence_factor_oracle_coherent(preset_params, beta0, t, tau, cutoff)
    old = max(20, math.ceil(10 * x))
    ref = decoherence_factor_oracle_coherent(preset_params, beta0, t, tau,
                                             max(old, 2 * cutoff))
    assert np.max(np.abs(got.value - ref.value)) <= 1e-15
    assert got.tail_bound <= MIXTURE_TAIL_TARGET


def test_oracle_coherent_reaches_large_occupation(preset_params):
    """|beta0|^2 = 100 needs cutoff 193, past the old rule's reach
    (10 x <= 512 stopped at x = 51)."""
    beta0 = 10.0 + 0j
    assert min_cutoff(100.0) == 193
    t = np.repeat([0.0, 10.0], 3)
    tau = np.tile([0.0, 0.05, 0.2], 2)
    got = decoherence_factor_oracle_coherent(preset_params, beta0, t, tau,
                                             min_cutoff(100.0))
    want = [factor_over_tau(preset_params, CoherentState(0j, beta0), t0, [tau0])[0]
            for t0, tau0 in zip(t.tolist(), tau.tolist())]
    assert np.max(np.abs(got.value - want)) <= 1e-6
    assert got.tail_bound <= MIXTURE_TAIL_TARGET


# ---------------------------------------------------------------------------
# array-valued t': one eigensystem set per sector, as-written products
# ---------------------------------------------------------------------------

def _dense_propagator(h, duration):
    """exp(-i H duration) as a full matrix, from numpy's eigh of H."""
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * evals * duration)) @ vecs.T


def _as_written_fock(params, n, t, t_prime):
    """The six sector propagators multiplied as full matrices, in order."""
    h11, h10, h01 = sector_hamiltonians(params, n)
    product = (
        _dense_propagator(h11, -t)
        @ _dense_propagator(h01, t)
        @ _dense_propagator(h01, -t_prime)
        @ _dense_propagator(h10, t_prime)
        @ _dense_propagator(h10, -t)
        @ _dense_propagator(h11, t)
    )
    return complex(product[0, 0])


@pytest.mark.parametrize("columns", [1, 300])
@pytest.mark.parametrize("n", [0, 1, 45, 160])
def test_evolve_matches_the_complex_product(preset_params, rng, n, columns):
    """The real products over the (re, im) view give V (phase * (V^T v))
    as complex matrix products do, for one and for many columns.  Both
    round sums of n + 1 terms, so the bound grows like sqrt(n + 1): over
    20 seeds and the SkylakeX and Prescott OpenBLAS kernels the worst
    difference was 1.3e-15 max|v| at n = 160, 0.11 of the bound there."""
    system = np.linalg.eigh(sector_hamiltonians(preset_params, n)[1])
    v = rng.normal(size=(n + 1, columns)) + 1j * rng.normal(size=(n + 1, columns))
    durations = rng.uniform(0.0, 10.0, columns)
    evals, vecs = system
    phase = np.exp(-1j * evals[:, None] * durations)
    want = vecs @ (phase * (vecs.T @ v))
    got = oracle_module._evolve(system, durations, v)
    assert got.shape == want.shape and got.dtype == complex
    assert np.max(np.abs(got - want)) <= 1e-15 * math.sqrt(n + 1) * np.max(np.abs(v))


@pytest.mark.parametrize("n, t, taus", [
    (0, 1.0, np.linspace(0.0, 5.0, 4)),
    (1, 0.0, np.linspace(0.0, 10.0, 11)),
    (7, 3.5, np.array([0.0, 0.25, 9.0])),
    (40, 10.0, np.linspace(0.0, 10.0, 21)),
    (20, 2.0, np.linspace(0.5, 4.0, 300)),  # more than one column block
])
def test_oracle_fock_array_matches_as_written_products(preset_params, n, t, taus):
    got = decoherence_factor_oracle_fock(preset_params, n, t, taus)
    assert got.shape == taus.shape and got.dtype == complex
    want = np.array([_as_written_fock(preset_params, n, t, t + tau) for tau in taus])
    assert np.max(np.abs(got - want)) <= 1e-12
    scalars = [decoherence_factor_oracle_fock(preset_params, n, t, tau) for tau in taus[:5]]
    assert all(f.shape == (1,) and f.dtype == complex for f in scalars)
    assert np.max(np.abs(np.concatenate(scalars) - got[:5])) <= 1e-12


def _per_matrix_factor(params, n, t, t_primes):
    """Sector-n factor from one Hamiltonian per matrix: each of the three
    built on its own and eigendecomposed by its own eigh call, then the
    six _evolve steps over the same column blocks as the oracle."""
    systems = []
    k = np.arange(n + 1)
    kk = k[:-1]
    for m, n_sys in COUPLINGS:
        h = np.zeros((n + 1, n + 1))
        h[k, k] = params.omega1 * k + params.omega2 * (n - k)
        g = params.d_e * m + params.d_g * n_sys
        h[kk, kk + 1] = h[kk + 1, kk] = g * np.sqrt((kk + 1.0) * (n - kk))
        systems.append(np.linalg.eigh(h))
    h11, h10, h01 = systems
    evolve, block = oracle_module._evolve, oracle_module._TAU_BLOCK
    start = np.zeros((n + 1, 1), dtype=complex)
    start[0] = 1.0
    out = np.empty(t_primes.size, dtype=complex)
    for lo in range(0, t_primes.size, block):
        tp = t_primes[lo:lo + block]
        tb = t if np.ndim(t) == 0 else t[lo:lo + block]
        v = evolve(h11, tb, start)
        v = evolve(h10, -tb, v)
        v = evolve(h10, tp, v)
        v = evolve(h01, -tp, v)
        v = evolve(h01, tb, v)
        v = evolve(h11, -tb, v)
        out[lo:lo + tp.size] = v[0]
    return out


@pytest.mark.parametrize("n", [0, 1, 45, 160, 512])
def test_oracle_fock_matches_the_per_matrix_construction(preset_params, n):
    """One stacked eigh per sector runs the same LAPACK routine on each
    Hamiltonian as three separate calls; LAPACK promises no bits, so the
    bound is the _evolve test's, 1e-15 sqrt(n + 1), for a scalar t and for
    300 (t, t') pairs, which cross a column block."""
    rng = np.random.default_rng(16)
    t = rng.uniform(0.0, 10.0, 300)
    t_prime = rng.uniform(0.0, 10.0, 300)
    bound = 1e-15 * math.sqrt(n + 1)
    tau = t_prime - 10.0
    got = decoherence_factor_oracle_fock(preset_params, n, 10.0, tau)
    assert np.max(np.abs(got - _per_matrix_factor(preset_params, n, 10.0, 10.0 + tau))) <= bound
    tau = t_prime - t
    got = decoherence_factor_oracle_fock(preset_params, n, t, tau)
    assert np.max(np.abs(got - _per_matrix_factor(preset_params, n, t, t + tau))) <= bound


def test_oracle_coherent_matches_the_per_matrix_construction(preset_params):
    """|beta0|^2 = 10 at its certified cutoff 45, t in {0, 10} x 2 tau,
    each sector from the per-matrix construction, weighted as the oracle
    weights it."""
    beta0 = complex(math.sqrt(10.0))
    x = abs(beta0) ** 2
    cutoff = min_cutoff(x)
    t = np.array([0.0, 0.0, 10.0, 10.0])
    tau = np.array([0.5, 2.5, 0.5, 2.5])
    want = np.zeros(t.size, dtype=complex)
    for n in range(cutoff + 1):
        w = math.exp(-x + n * math.log(x) - math.lgamma(n + 1.0))
        want += w * _per_matrix_factor(preset_params, n, t, t + tau)
    got = decoherence_factor_oracle_coherent(preset_params, beta0, t, tau, cutoff).value
    assert np.max(np.abs(got - want)) <= 1e-15 * math.sqrt(cutoff + 1)


def test_oracle_coherent_array_matches_scalar_calls(preset_params):
    taus = np.linspace(0.0, 6.0, 5)
    batch = decoherence_factor_oracle_coherent(preset_params, 1.5 + 0.5j, 2.0,
                                               taus, cutoff=30)
    assert batch.value.shape == taus.shape
    for tau, f in zip(taus, batch.value):
        single = decoherence_factor_oracle_coherent(preset_params, 1.5 + 0.5j, 2.0,
                                                    tau, cutoff=30)
        assert single.value.shape == (1,)
        assert abs(single.value[0] - f) <= 1e-12
        assert single.tail_bound == batch.tail_bound


@pytest.mark.parametrize("t, t_prime", [
    (-1.0, 2.0),
    (1.0, -2.0),
    (np.array([0.0, -0.5]), 2.0),
    (1.0, np.array([2.0, -0.5])),
])
def test_oracle_refuses_negative_times(preset_params, t, t_prime):
    """Both oracle entry points refuse a negative t or t', as the closed
    form and the quadrature do, instead of evolving backwards."""
    tau = t_prime - t
    with pytest.raises(NegativeTime):
        decoherence_factor_oracle_fock(preset_params, 3, t, tau)
    with pytest.raises(NegativeTime):
        decoherence_factor_oracle_coherent(preset_params, 2.0 + 0j, t, tau, 40)


def test_oracle_rejects_negative_occupation(preset_params):
    with pytest.raises(ConfigError):
        decoherence_factor_oracle_fock(preset_params, -1, 0.0, 1.0)


def test_oracle_rejects_two_dimensional_times(preset_params):
    with pytest.raises(ConfigError, match="scalars or 1-D"):
        decoherence_factor_oracle_fock(preset_params, 3, 0.0, np.zeros((2, 2)))


def _count_eigh(monkeypatch):
    calls = []
    real_eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_compare_eigendecomposes_each_hamiltonian_once(preset_params, monkeypatch):
    calls = _count_eigh(monkeypatch)
    compare_methods(preset_params, 12, 10.0, np.linspace(0.0, 10.0, 11))
    # one stack of the three sector-12 Hamiltonians for the oracle, one of
    # the three single-quantum ones for the quadrature's own transform
    assert calls == [(3, 13, 13), (3, 2, 2)]


@pytest.mark.parametrize("steps", [1, 9])
def test_coherent_oracle_eigendecomposes_once_per_sector(preset_params, monkeypatch,
                                                         steps):
    calls = _count_eigh(monkeypatch)
    decoherence_factor_oracle_coherent(preset_params, 1.0 + 1.0j, 0.0,
                                       np.linspace(0.0, 3.0, steps), cutoff=25)
    assert calls == [(3, n + 1, n + 1) for n in range(26)]


def test_oracle_takes_one_t_per_t_prime(preset_params):
    """300 (t, t') pairs, so the t columns cross a block boundary."""
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 5.0, 300)
    tau = rng.uniform(0.0, 5.0, 300) - t
    batch = decoherence_factor_oracle_fock(preset_params, 6, t, tau)
    assert batch.shape == (300,)
    for i in (0, 255, 256, 299):
        single = decoherence_factor_oracle_fock(preset_params, 6, t[i], tau[i])[0]
        assert abs(single - batch[i]) <= 1e-12


def test_oracle_sweep_eigendecomposes_once_per_sector_for_every_t(tmp_path,
                                                                  monkeypatch):
    """Two t values share one eigensystem set per sector: C + 1 stacked
    eigh calls, not C + 1 per t.  |beta0|^2 = 10 sums sectors 0..45."""
    config = sweep_config_from_json({
        "omega1": 0.2, "omega2": 1.3, "d_e": 0.8, "d_g": 0.2, "omega_e": 1.0,
        "apparatus": {"kind": "coherent", "n": 10}, "t_values": [0.0, 1.5],
        "tau_min": 0.0, "tau_max": 3.0, "tau_steps": 7, "method": "oracle",
        "output_path": str(tmp_path / "oracle.csv")})
    cutoff = _coherent_cutoff(config.state)
    calls = _count_eigh(monkeypatch)
    points = run_sweep(config)
    assert cutoff == 45
    assert calls == [(3, n + 1, n + 1) for n in range(46)]
    taus = np.linspace(0.0, 3.0, 7)
    for t in config.t_values:
        per_t = decoherence_factor_oracle_coherent(
            FIGURE_PARAMS, config.state.beta0, t, taus, cutoff).value
        assert np.max(np.abs(points.f[points.t == t] - per_t)) <= 1e-12


def test_oracle_memory_does_not_grow_with_the_grid(preset_params):
    """10^5 t' at n = 64: one unblocked (65 x 10^5) complex array alone
    would take 104 MB."""
    taus = np.linspace(0.0, 10.0, 100_000)
    tracemalloc.start()
    try:
        values = decoherence_factor_oracle_fock(preset_params, 64, 0.0, taus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == taus.shape
    assert peak < 20e6


def _imported_modules(module):
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported, "no imports found; the check is not reading the module"
    return imported


def test_oracle_imports_nothing_from_the_other_methods():
    """The oracle and the quadrature each build their own transform: neither
    imports the closed form (propagator, correlation) or the other."""
    for name in _imported_modules(oracle_module):
        assert "propagator" not in name and "correlation" not in name, name
        assert "quadrature" not in name, name
    for name in _imported_modules(quadrature_module):
        for other in ("propagator", "correlation", "oracle"):
            assert other not in name, name


def test_oracle_tail_bound_is_tight_and_positive(preset_params):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 200
    x, cutoff = 4, 40
    true_tail = mpmath.nsum(
        lambda k: mpmath.exp(-x) * mpmath.mpf(x) ** k / mpmath.factorial(k),
        [cutoff + 1, mpmath.inf])
    result = decoherence_factor_oracle_coherent(preset_params, 2.0 + 0j, 0.0, 1.0,
                                                cutoff=cutoff)
    assert result.tail_bound > 0.0
    assert true_tail <= result.tail_bound <= 2 * true_tail
