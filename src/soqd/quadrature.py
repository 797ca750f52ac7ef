"""Number-state decoherence factor by phase-space quadrature.

The number state is resolved on coherent states,

    F = integral d^2beta/pi <0,n | image of (0,beta)> <beta | n>,

and the integral is taken on Gauss-Laguerre (radial) x uniform trapezoid
(angular) nodes.  The image of (0, beta) comes from this module's own
transform: the three real symmetric single-quantum Hamiltonians
[[omega1, g], [g, omega2]] with g = d_e*m + d_g*n_sys are eigendecomposed
once per call, and the mode-2 unit vector is pushed through the six
propagators in the order the measurement sequence applies them.  Nothing
comes from the closed form (no schedule table, no half-angle formula, no
m22**n) or from the oracle, so a sign or ordering mistake in either of
those shows up as a disagreement with this path.
"""

import functools
import math

import numpy as np

from .model import EigenFailure, ModelParams, SectorTooLarge, _time_grid

__all__ = [
    "QUADRATURE_OCCUPATION_GUARD",
    "decoherence_factor_fock_quadrature",
]

#: the quadrature path refuses occupations above this; the closed form
#: covers arbitrary n, so past a few hundred the integral is all cost
QUADRATURE_OCCUPATION_GUARD = 256

#: t' entries x radial x angular nodes evaluated together; at n = 160
#: (168 x 64 nodes) that is one t' per block, so the work arrays stay at
#: one t' worth whatever the grid size
_NODE_BUDGET = 2 ** 14

#: uniform trapezoid nodes on the phase circle
_ANGULAR_ORDER = 64


def _radial_order(n: int) -> int:
    """Gauss-Laguerre order for occupation n: the radial factor is a
    degree-n polynomial, which n + 1 nodes integrate exactly; n + 8 and a
    floor of 64 add margin."""
    return max(64, n + 8)


@functools.lru_cache(maxsize=32)
def _gauss_laguerre_log(order: int):
    """Gauss-Laguerre nodes and log-weights for weight exp(-u) on [0, inf).

    The rule depends on the order alone, so it is computed once per order
    and cached; the returned arrays are read-only.

    Nodes are the eigenvalues of the symmetrized Jacobi matrix (diagonal
    2k+1, off-diagonal k), from a dense symmetric eigensolve of that
    order x order matrix (Golub & Welsch, Math. Comp. 23, 1969), which
    keeps the runtime on numpy alone.  Weights do NOT come from the
    eigenvectors: the first components fall below the eigensolver's
    absolute accuracy long before the rule's tail does, which silently
    corrupts every weight under ~1e-14 -- exactly the ones a
    high-occupation integrand leans on.  Instead each log-weight is
    evaluated from the analytic form w = u / ((R+1) * L_{R+1}(u))^2, with
    L_{R+1} run up by the three-term recurrence and renormalized on the
    fly so the recursion stays finite while log(w) keeps full relative
    accuracy at any magnitude.
    """
    k = np.arange(order, dtype=float)
    jacobi = np.diag(2.0 * k + 1.0) + np.diag(k[1:], 1) + np.diag(k[1:], -1)
    nodes = np.linalg.eigvalsh(jacobi)
    prev = np.ones_like(nodes)  # L_0
    cur = 1.0 - nodes  # L_1
    shift = np.zeros_like(nodes)  # accumulated log of the renormalizations
    for j in range(1, order + 1):
        prev, cur = cur, ((2.0 * j + 1.0 - nodes) * cur - j * prev) / (j + 1.0)
        big = np.abs(cur) > 1e100
        if big.any():
            factor = np.where(big, np.abs(cur), 1.0)
            cur /= factor
            prev /= factor
            shift += np.log(factor)
    log_tail = shift + np.log(np.abs(cur))
    log_w = np.log(nodes) - 2.0 * (math.log(order + 1.0) + log_tail)
    nodes.flags.writeable = False
    log_w.flags.writeable = False
    return nodes, log_w


def _single_quantum_eigensystems(params: ModelParams):
    """eigh of [[omega1, g], [g, omega2]] for (m, n_sys) = (1, 1), (1, 0), (0, 1)."""
    systems = []
    for m, n_sys in ((1, 1), (1, 0), (0, 1)):
        g = params.d_e * m + params.d_g * n_sys
        try:
            systems.append(np.linalg.eigh(np.array([[params.omega1, g],
                                                    [g, params.omega2]])))
        except np.linalg.LinAlgError as exc:
            raise EigenFailure(f"single-quantum eigendecomposition failed: {exc}") from exc
    return systems


def _apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for a 2x2 ``a``, as elementwise products and sums.

    Unlike ``@``, which hands the product to whichever BLAS kernel suits
    the shape, every column comes out with the same bits however many
    columns go together, so an array call matches its scalar calls.
    """
    return a[:, :1] * v[0] + a[:, 1:] * v[1]


def _propagate(system, duration, v: np.ndarray) -> np.ndarray:
    """exp(-i H duration) applied to the columns of v, from H's eigensystem.

    ``duration`` is a scalar, or one value per column of the result.
    """
    evals, vecs = system
    phase = np.exp(-1j * evals[:, None] * np.atleast_1d(duration))
    return _apply(vecs, phase * _apply(vecs.T, v))


def _image_of_mode2(params: ModelParams, t, t_primes: np.ndarray):
    """(m12, m22): where the sequence takes the mode-2 unit vector, per t'.

    ``t`` is a scalar or one value per entry of ``t_primes``.  Applies
    exp(-iH11 t), exp(+iH10 t), exp(-iH10 t'), exp(+iH01 t'),
    exp(-iH01 t), exp(+iH11 t), in that order.
    """
    h11, h10, h01 = _single_quantum_eigensystems(params)
    v = np.array([[0.0], [1.0]])
    v = _propagate(h11, t, v)
    v = _propagate(h10, -t, v)
    v = _propagate(h10, t_primes, v)
    v = _propagate(h01, -t_primes, v)
    v = _propagate(h01, t, v)
    v = _propagate(h11, -t, v)
    return v[0], v[1]


def decoherence_factor_fock_quadrature(params: ModelParams, n: int, t, t_prime):
    """Number-state factor by direct phase-space integration.

    Resolve |n> on coherent states: F = integral d^2beta/pi of
    <0,n | image of (0,beta)> <beta | n>.  In polar form with u = |beta|^2
    the radial integral carries weight exp(-u) (Gauss-Laguerre) and the
    phase integral is 2*pi-periodic with finite harmonic content (uniform
    trapezoid).  The orders follow from n alone: the non-weight radial
    factor is a degree-n polynomial in u, so any radial order >= n + 1
    integrates it exactly, and _radial_order(n) = max(64, n + 8) nodes
    are used, with _ANGULAR_ORDER = 64 on the phase circle.  Everything is
    assembled in log space (lgamma + complex log-powers) and exponentiated
    once per node.

    Scalar ``t`` and ``t_prime`` give a complex; a 1-D array for either
    (the other broadcasts against it) gives one complex per entry, from
    one set of eigensystems, evaluated in blocks of _NODE_BUDGET nodes.
    Raises NegativeTime where t or t' is below 0.
    """
    if n < 0:
        raise ValueError(f"occupation must be >= 0, got {n}")
    if n > QUADRATURE_OCCUPATION_GUARD:
        raise SectorTooLarge(
            f"occupation {n} exceeds the quadrature guard {QUADRATURE_OCCUPATION_GUARD}")
    t, t_primes, scalar = _time_grid(t, t_prime)
    m12, m22 = _image_of_mode2(params, t, t_primes)
    u, log_w = _gauss_laguerre_log(_radial_order(n))
    theta = 2.0 * math.pi * np.arange(_ANGULAR_ORDER) / _ANGULAR_ORDER
    beta = np.sqrt(u)[:, None] * np.exp(1j * theta)[None, :]
    # + u divides out the rule's exp(-u) weight, - u/2 is the
    # exp(-|beta|^2/2) of <beta|n>
    log_radial = (log_w + 0.5 * u)[:, None]
    if n > 0:
        log_conj_beta = np.log(np.conj(beta))
    block = max(1, _NODE_BUDGET // beta.size)
    out = np.empty(t_primes.size, dtype=complex)
    for lo in range(0, out.size, block):
        # preparation has mode 1 empty, so the image of (0, beta) is:
        a6 = m12[lo:lo + block, None, None] * beta
        b6 = m22[lo:lo + block, None, None] * beta
        exponent = log_radial - 0.5 * (np.abs(a6) ** 2 + np.abs(b6) ** 2)
        if n > 0:
            with np.errstate(divide="ignore", invalid="ignore"):
                power = n * (np.log(b6) + log_conj_beta)
            power = np.where(np.isfinite(power.real), power, -np.inf)
            exponent = exponent + power - math.lgamma(n + 1.0)
        total = np.exp(exponent).reshape(len(a6), -1).sum(axis=1)
        out[lo:lo + len(a6)] = total / _ANGULAR_ORDER
    return complex(out[0]) if scalar else out
