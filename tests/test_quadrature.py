"""Phase-space quadrature: its own transform, whole grids, bounded memory."""

import tracemalloc

import numpy as np
import pytest

from soqd import (
    EigenFailure,
    FockState,
    NegativeTime,
    decoherence_factor_fock_quadrature,
    decoherence_factor_oracle_fock,
    factor_over_tau,
)
from soqd import propagator
from soqd import quadrature as quadrature_module
from soqd.cli import FIGURE_PARAMS as PRESET


def test_quadrature_does_not_share_the_schedule_table(monkeypatch):
    """A sign error in the closed form's schedule table (step 4's coupling
    flipped) moves the closed form away from the oracle, while the
    quadrature, which builds its own transform, still agrees with it."""
    real_rows = propagator._schedule_rows

    def flipped(params, t, t_prime):
        rows = list(real_rows(params, t, t_prime))
        a1, a2, b, d = rows[3]
        rows[3] = (a1, a2, -b, d)
        return tuple(rows)

    monkeypatch.setattr(propagator, "_schedule_rows", flipped)
    taus = np.linspace(0.0, 10.0, 21)
    for t in (0.0, 10.0):
        oracle = decoherence_factor_oracle_fock(PRESET, 10, t, t + taus)
        closed = factor_over_tau(PRESET, FockState(10), t, taus)
        quad = decoherence_factor_fock_quadrature(PRESET, 10, t, t + taus)
        assert np.max(np.abs(closed - oracle)) > 1e-2, t
        assert np.max(np.abs(quad - oracle)) <= 1e-6, t


def test_quadrature_array_matches_scalar_calls():
    """n = 100 evaluates two t' per block, so five t' cross two block
    boundaries; each entry matches its own scalar call."""
    nodes = quadrature_module._radial_order(100) * quadrature_module._ANGULAR_ORDER
    assert quadrature_module._NODE_BUDGET // nodes == 2
    t_prime = 10.0 + np.linspace(0.0, 4.0, 5)
    batch = decoherence_factor_fock_quadrature(PRESET, 100, 10.0, t_prime)
    assert batch.shape == t_prime.shape and batch.dtype == complex
    singles = [decoherence_factor_fock_quadrature(PRESET, 100, 10.0, tp)
               for tp in t_prime.tolist()]
    assert all(isinstance(f, complex) for f in singles)
    assert np.max(np.abs(batch - np.array(singles))) <= 1e-15


def test_quadrature_memory_does_not_grow_with_the_grid():
    """300 t' at n = 40: one unblocked (300 x 64 x 64) complex temporary
    alone would take 19.7 MB."""
    t_prime = np.linspace(0.0, 10.0, 300)
    tracemalloc.start()
    try:
        values = decoherence_factor_fock_quadrature(PRESET, 40, 0.0, t_prime)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == t_prime.shape
    assert peak < 10e6


def test_quadrature_refuses_negative_times_and_wraps_eigen_failures(monkeypatch):
    with pytest.raises(NegativeTime):
        decoherence_factor_fock_quadrature(PRESET, 3, 1.0, np.array([2.0, -0.5]))
    with pytest.raises(NegativeTime):
        decoherence_factor_fock_quadrature(PRESET, 3, -1.0, 2.0)

    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", explode)
    with pytest.raises(EigenFailure):
        decoherence_factor_fock_quadrature(PRESET, 3, 0.0, 1.0)
