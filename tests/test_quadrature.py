"""Phase-space quadrature: its own transform, whole grids, bounded memory."""

import math
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
from test_reproducibility import _reference


def test_quadrature_does_not_share_the_schedule_table(monkeypatch):
    """A sign error in the closed form's step kernel (H_g's coupling
    flipped in its E_g = exp(+i*Hg*tau) - I call) moves the closed form
    away from the oracle, while the quadrature, which builds its own
    transform, still agrees with it."""
    real_step = propagator._step_minus_identity

    def flipped(alpha1, alpha2, beta, duration):
        if beta == PRESET.d_g:  # d_e, d_g and d_e + d_g differ at the preset
            beta = -beta
        return real_step(alpha1, alpha2, beta, duration)

    monkeypatch.setattr(propagator, "_step_minus_identity", flipped)
    taus = np.linspace(0.0, 10.0, 21)
    for t in (0.0, 10.0):
        oracle = decoherence_factor_oracle_fock(PRESET, 10, t, t + taus)
        closed = factor_over_tau(PRESET, FockState(10), t, taus)
        quad = decoherence_factor_fock_quadrature(PRESET, 10, t, t + taus)
        assert np.max(np.abs(closed - oracle)) > 1e-2, t
        assert np.max(np.abs(quad - oracle)) <= 1e-6, t


def test_quadrature_reads_each_node_image_of_its_own_transform(monkeypatch):
    """The H01 coupling of the quadrature's own transform with its sign
    flipped moves the quadrature away from the oracle, while the closed
    form still agrees with it: the kernel takes every node's image from
    that transform, not from an identity shared with the closed form."""
    real_systems = quadrature_module._single_quantum_eigensystems

    def flipped(params):
        h11, h10, _ = real_systems(params)
        h01 = np.linalg.eigh(np.array([[params.omega1, -params.d_g],
                                       [-params.d_g, params.omega2]]))
        return [h11, h10, h01]

    monkeypatch.setattr(quadrature_module, "_single_quantum_eigensystems", flipped)
    taus = np.linspace(0.0, 10.0, 21)
    for t in (0.0, 10.0):
        oracle = decoherence_factor_oracle_fock(PRESET, 10, t, t + taus)
        closed = factor_over_tau(PRESET, FockState(10), t, taus)
        quad = decoherence_factor_fock_quadrature(PRESET, 10, t, t + taus)
        assert np.max(np.abs(quad - oracle)) > 1e-2, t
        assert np.max(np.abs(closed - oracle)) <= 1e-6, t


def test_half_angle_rotation_matches_cos_and_sin():
    """The kernel's (cos, sin) from tan of the half phase is within 4e-16
    of np.cos and np.sin (measured worst 3.3e-16) over the phases a node
    can take, |phi| <= 2 pi * QUADRATURE_OCCUPATION_GUARD, including the
    half-angle's poles at odd multiples of pi and phases near 0."""
    limit = 2.0 * math.pi * quadrature_module.QUADRATURE_OCCUPATION_GUARD
    rng = np.random.default_rng(14)
    phi = np.concatenate([
        [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
         511 * math.pi, -511 * math.pi, limit, -limit],
        rng.uniform(-limit, limit, 200_000),
        rng.uniform(-1e-8, 1e-8, 1000),
    ])
    weight = np.ones_like(phi)
    re, im = quadrature_module._rotate(weight, 0.5 * phi, np.empty_like(phi))
    assert np.max(np.abs(re - np.cos(phi))) <= 4e-16
    assert np.max(np.abs(im - np.sin(phi))) <= 4e-16


def _gauss_laguerre_log_as_first_built(order):
    """The rule as first built: the Jacobi matrix as a sum of three dense
    np.diag arrays, and a compare-and-any renormalization guard."""
    k = np.arange(order, dtype=float)
    jacobi = np.diag(2.0 * k + 1.0) + np.diag(k[1:], 1) + np.diag(k[1:], -1)
    nodes = np.linalg.eigvalsh(jacobi)
    prev = np.ones_like(nodes)
    cur = 1.0 - nodes
    shift = np.zeros_like(nodes)
    for j in range(1, order + 1):
        prev, cur = cur, ((2.0 * j + 1.0 - nodes) * cur - j * prev) / (j + 1.0)
        big = np.abs(cur) > 1e100
        if big.any():
            factor = np.where(big, np.abs(cur), 1.0)
            cur /= factor
            prev /= factor
            shift += np.log(factor)
    log_tail = shift + np.log(np.abs(cur))
    return nodes, np.log(nodes) - 2.0 * (math.log(order + 1.0) + log_tail)


@pytest.mark.parametrize("order", [64, 72, 168, 264])
def test_gauss_laguerre_rule_bit_equals_its_first_construction(order):
    nodes, log_w = quadrature_module._gauss_laguerre_log(order)
    ref_nodes, ref_log_w = _gauss_laguerre_log_as_first_built(order)
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert log_w.tobytes() == ref_log_w.tobytes()


#: absolute bound on |F - F_ref| against the 200-bit reference; measured
#: worst 1.6e-13 (n = 256, tau = 0.05, where |F| is still of order one)
QUADRATURE_ABS_BOUND = 2e-13


def test_quadrature_matches_a_200_bit_reference():
    """The quadrature against a 200-bit mpmath.expm evaluation of the
    six-step schedule, F_ref = m22**n, over n up to the guard."""
    mp = pytest.importorskip("mpmath")
    taus = np.array([0.05, 0.3, 1.7, 4.137])
    with mp.workprec(200):
        for n in (1, 10, 40, 160, 256):
            for t in (0.0, 10.0):
                values = decoherence_factor_fock_quadrature(PRESET, n, t, t + taus)
                for f, t_prime in zip(values.tolist(), (t + taus).tolist()):
                    f_ref, _ = _reference(mp, 2, n, t, t_prime)
                    error = float(abs(mp.mpc(f) - f_ref))
                    assert error <= QUADRATURE_ABS_BOUND, (n, t, t_prime, error)


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
