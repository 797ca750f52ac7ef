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
    sector_hamiltonian,
    sector_propagator,
)
from soqd.propagator import echo_over_tau

from test_propagator import step_transform


def test_sector_guard_value():
    assert SECTOR_GUARD == 512
    assert MIXTURE_TAIL_TARGET == 2.0 ** -53


def test_sector_hamiltonian_single_quantum(preset_params):
    h = sector_hamiltonian(preset_params, m=1, n_sys=1, sector=1)
    assert h == pytest.approx(np.array([[1.3, 1.0], [1.0, 0.2]]))


def test_sector_hamiltonian_empty_sector(preset_params):
    h = sector_hamiltonian(preset_params, 1, 1, sector=0)
    assert h.shape == (1, 1) and h[0, 0] == 0


def test_sector_hamiltonian_uncoupled_is_diagonal(preset_params):
    h = sector_hamiltonian(preset_params, m=0, n_sys=0, sector=4)
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
    assert h[2, 2] == pytest.approx(0.2 * 2 + 1.3 * 2)


def test_sector_hamiltonian_is_hermitian(rng):
    for _ in range(20):
        w1, w2, de, dg = rng.uniform(-2, 2, size=4)
        params = ModelParams(w1, w2, de, dg, omega_e=1.0)
        h = sector_hamiltonian(params, 1, 0, sector=int(rng.integers(0, 12)))
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12


def test_sector_hamiltonian_ladder_weights(preset_params):
    h = sector_hamiltonian(preset_params, 1, 0, sector=3)
    k = np.arange(3)
    expected = preset_params.d_e * np.sqrt((k + 1) * (3 - k))
    assert h[k, k + 1] == pytest.approx(expected)


def test_sector_hamiltonian_rejects_bad_populations(preset_params):
    with pytest.raises(ValueError):
        sector_hamiltonian(preset_params, 2, 0, 1)
    with pytest.raises(ValueError):
        sector_hamiltonian(preset_params, 1, 0, -1)


def test_sector_propagator_zero_duration_is_identity(preset_params):
    h = sector_hamiltonian(preset_params, 1, 1, 5)
    u = sector_propagator(h, 0.0)
    assert np.max(np.abs(u - np.eye(6))) <= 1e-12


def test_sector_propagator_diagonal_gives_elementwise_phases(preset_params):
    h = sector_hamiltonian(preset_params, 0, 0, 3)
    u = sector_propagator(h, 1.7)
    expected = np.diag(np.exp(-1j * np.diag(h) * 1.7))
    assert np.max(np.abs(u - expected)) <= 1e-12


def test_sector_propagator_is_unitary(preset_params, rng):
    for _ in range(10):
        h = sector_hamiltonian(preset_params, 1, 1, int(rng.integers(1, 20)))
        u = sector_propagator(h, float(rng.uniform(-10, 10)))
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= 1e-10


def test_sector_propagator_group_property(preset_params):
    h = sector_hamiltonian(preset_params, 1, 0, 6)
    u = sector_propagator(h, 1.2) @ sector_propagator(h, 2.3)
    assert np.max(np.abs(u - sector_propagator(h, 3.5))) <= 1e-10


def test_sector_propagator_negative_duration_inverts(preset_params):
    h = sector_hamiltonian(preset_params, 1, 1, 4)
    back_and_forth = sector_propagator(h, -2.0) @ sector_propagator(h, 2.0)
    assert np.max(np.abs(back_and_forth - np.eye(5))) <= 1e-10


def test_sector1_propagator_is_step_transform_with_modes_swapped(preset_params):
    """Sector 1 holds one quantum in either mode; its basis lists the
    mode-1-empty state first, so entries come out swapped relative to the
    2x2 amplitude matrix."""
    h = sector_hamiltonian(preset_params, 1, 1, 1)
    u = sector_propagator(h, 1.0)
    g = preset_params.d_e + preset_params.d_g
    m = step_transform(preset_params.omega1, preset_params.omega2, g, 1.0)
    swapped = m[::-1, ::-1]
    assert np.max(np.abs(u - swapped)) <= 1e-9


def test_eigen_failure_is_wrapped(preset_params, monkeypatch):
    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", explode)
    h = sector_hamiltonian(preset_params, 1, 1, 2)
    with pytest.raises(EigenFailure):
        sector_propagator(h, 1.0)


# ---------------------------------------------------------------------------
# number-state factor
# ---------------------------------------------------------------------------

def test_oracle_fock_vacuum_sector_is_unity(preset_params):
    assert decoherence_factor_oracle_fock(preset_params, 0, 3.0, 8.0) == pytest.approx(1.0)


def test_oracle_fock_equal_times_is_unity(preset_params, rng):
    for n in (1, 3, 9):
        t = float(rng.uniform(0, 10))
        f = decoherence_factor_oracle_fock(preset_params, n, t, t)
        assert abs(f - 1) <= 1e-10


def test_oracle_fock_magnitude_bounded(preset_params, rng):
    for _ in range(20):
        n = int(rng.integers(0, 15))
        t, tp = rng.uniform(0, 10, size=2)
        assert abs(decoherence_factor_oracle_fock(preset_params, n, t, tp)) <= 1 + 1e-10


def test_oracle_fock_rejects_oversized_sector(preset_params):
    with pytest.raises(SectorTooLarge):
        decoherence_factor_oracle_fock(preset_params, SECTOR_GUARD + 1, 0.0, 1.0)


def test_oracle_fock_single_quantum_equals_m22(preset_params, rng):
    for _ in range(10):
        w1, w2, de, dg = rng.uniform(-2, 2, size=4)
        params = ModelParams(w1, w2, de, dg, omega_e=1.0)
        t, tp = rng.uniform(0, 8, size=2)
        m22 = 1 + echo_over_tau(params, t, [tp - t])[0, 1, 1]
        f = decoherence_factor_oracle_fock(params, 1, t, tp)
        assert abs(f - m22) <= 1e-9


def test_oracle_fock_agrees_with_m22_power(preset_params):
    m22 = 1 + echo_over_tau(preset_params, 0.0, [2.0])[0, 1, 1]
    f = decoherence_factor_oracle_fock(preset_params, 10, 0.0, 2.0)
    assert abs(f - m22**10) <= 1e-9


# ---------------------------------------------------------------------------
# coherent mixture
# ---------------------------------------------------------------------------

def test_oracle_coherent_empty_preparation_is_unity(preset_params):
    result = decoherence_factor_oracle_coherent(preset_params, 0j, 0.0, 7.0, cutoff=5)
    assert result.value == pytest.approx(1.0)
    assert result.tail_bound == 0.0
    # Poisson(0) has no tail: sector 0 alone is the exact mixture
    assert min_cutoff(0.0) == 0
    exact = decoherence_factor_oracle_coherent(preset_params, 0j, 0.0, 7.0, cutoff=0)
    assert exact.value == 1.0 and exact.tail_bound == 0.0


def test_oracle_coherent_equal_couplings_is_unity():
    params = ModelParams(0.4, -1.1, 0.6, 0.6, omega_e=1.0)
    result = decoherence_factor_oracle_coherent(params, 2.0 + 0j, 1.0, 6.0, cutoff=40)
    assert abs(result.value - 1) <= 1e-9


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
    assert abs(lo.value - hi.value) <= 1e-9
    assert lo.tail_bound <= 1e-9


def test_oracle_coherent_matches_closed_form(preset_params):
    beta0 = complex(math.sqrt(10))
    got = decoherence_factor_oracle_coherent(preset_params, beta0, 0.0, 2.0, cutoff=120)
    want = factor_over_tau(preset_params, CoherentState(0j, beta0), 0.0, [2.0])[0]
    assert abs(got.value - want) <= 1e-6


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
    t_prime = t + rng.uniform(0.0, 5.0, 50)
    beta0 = complex(math.sqrt(x))
    cutoff = min_cutoff(x)
    got = decoherence_factor_oracle_coherent(preset_params, beta0, t, t_prime, cutoff)
    old = max(20, math.ceil(10 * x))
    ref = decoherence_factor_oracle_coherent(preset_params, beta0, t, t_prime,
                                             max(old, 2 * cutoff))
    assert np.max(np.abs(got.value - ref.value)) <= 1e-15
    assert got.tail_bound <= MIXTURE_TAIL_TARGET


def test_oracle_coherent_reaches_large_occupation(preset_params):
    """|beta0|^2 = 100 needs cutoff 193, past the old rule's reach
    (10 x <= 512 stopped at x = 51)."""
    beta0 = 10.0 + 0j
    assert min_cutoff(100.0) == 193
    t = np.repeat([0.0, 10.0], 3)
    t_prime = t + np.tile([0.0, 0.05, 0.2], 2)
    got = decoherence_factor_oracle_coherent(preset_params, beta0, t, t_prime,
                                             min_cutoff(100.0))
    want = [factor_over_tau(preset_params, CoherentState(0j, beta0), t0, [t1 - t0])[0]
            for t0, t1 in zip(t.tolist(), t_prime.tolist())]
    assert np.max(np.abs(got.value - want)) <= 1e-6
    assert got.tail_bound <= MIXTURE_TAIL_TARGET


# ---------------------------------------------------------------------------
# array-valued t': one eigensystem set per sector, as-written products
# ---------------------------------------------------------------------------

def _as_written_fock(params, n, t, t_prime):
    """The six sector propagators multiplied as full matrices, in order."""
    h11 = sector_hamiltonian(params, 1, 1, n)
    h10 = sector_hamiltonian(params, 1, 0, n)
    h01 = sector_hamiltonian(params, 0, 1, n)
    product = (
        sector_propagator(h11, -t)
        @ sector_propagator(h01, t)
        @ sector_propagator(h01, -t_prime)
        @ sector_propagator(h10, t_prime)
        @ sector_propagator(h10, -t)
        @ sector_propagator(h11, t)
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
    system = oracle_module._eigensystem(sector_hamiltonian(preset_params, 1, 0, n))
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
    got = decoherence_factor_oracle_fock(preset_params, n, t, t + taus)
    assert got.shape == taus.shape and got.dtype == complex
    want = np.array([_as_written_fock(preset_params, n, t, t + tau) for tau in taus])
    assert np.max(np.abs(got - want)) <= 1e-12
    scalars = [decoherence_factor_oracle_fock(preset_params, n, t, t + tau)
               for tau in taus[:5]]
    assert all(isinstance(f, complex) for f in scalars)
    assert np.max(np.abs(np.array(scalars) - got[:5])) <= 1e-12


def test_oracle_coherent_array_matches_scalar_calls(preset_params):
    taus = np.linspace(0.0, 6.0, 5)
    batch = decoherence_factor_oracle_coherent(preset_params, 1.5 + 0.5j, 2.0,
                                               2.0 + taus, cutoff=30)
    assert batch.value.shape == taus.shape
    for tau, f in zip(taus, batch.value):
        single = decoherence_factor_oracle_coherent(preset_params, 1.5 + 0.5j, 2.0,
                                                    2.0 + tau, cutoff=30)
        assert isinstance(single.value, complex)
        assert abs(single.value - f) <= 1e-12
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
    with pytest.raises(NegativeTime):
        decoherence_factor_oracle_fock(preset_params, 3, t, t_prime)
    with pytest.raises(NegativeTime):
        decoherence_factor_oracle_coherent(preset_params, 2.0 + 0j, t, t_prime, 40)


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
    # three sector-12 Hamiltonians for the oracle, three single-quantum
    # ones for the quadrature's own transform
    assert calls == [(13, 13)] * 3 + [(2, 2)] * 3


@pytest.mark.parametrize("steps", [1, 9])
def test_coherent_oracle_eigendecomposes_once_per_sector(preset_params, monkeypatch,
                                                         steps):
    calls = _count_eigh(monkeypatch)
    decoherence_factor_oracle_coherent(preset_params, 1.0 + 1.0j, 0.0,
                                       np.linspace(0.0, 3.0, steps), cutoff=25)
    assert len(calls) == 3 * 26


def test_oracle_takes_one_t_per_t_prime(preset_params):
    """300 (t, t') pairs, so the t columns cross a block boundary."""
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 5.0, 300)
    t_prime = rng.uniform(0.0, 5.0, 300)
    batch = decoherence_factor_oracle_fock(preset_params, 6, t, t_prime)
    assert batch.shape == (300,)
    for i in (0, 255, 256, 299):
        single = decoherence_factor_oracle_fock(preset_params, 6, t[i], t_prime[i])
        assert abs(single - batch[i]) <= 1e-12


def test_oracle_sweep_eigendecomposes_once_per_sector_for_every_t(tmp_path,
                                                                  monkeypatch):
    """Two t values share one eigensystem set per sector: 3 (C + 1) eigh
    calls, not 3 (C + 1) per t.  |beta0|^2 = 10 sums sectors 0..45."""
    config = sweep_config_from_json({
        "omega1": 0.2, "omega2": 1.3, "d_e": 0.8, "d_g": 0.2, "omega_e": 1.0,
        "apparatus": {"kind": "coherent", "n": 10}, "t_values": [0.0, 1.5],
        "tau_min": 0.0, "tau_max": 3.0, "tau_steps": 7, "method": "oracle",
        "output_path": str(tmp_path / "oracle.csv")})
    cutoff = _coherent_cutoff(config.state)
    calls = _count_eigh(monkeypatch)
    points = run_sweep(config)
    assert cutoff == 45
    assert len(calls) == 3 * 46
    taus = np.linspace(0.0, 3.0, 7)
    for t in config.t_values:
        per_t = decoherence_factor_oracle_coherent(
            FIGURE_PARAMS, config.state.beta0, t, t + taus, cutoff).value
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
