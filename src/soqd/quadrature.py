"""Number-state decoherence factor by phase-space quadrature.

The number state is resolved on coherent states,

    F = integral d^2beta/pi <0,n | image of (0,beta)> <beta | n>,

and the integral is taken on Gauss-Laguerre (radial) x uniform trapezoid
(angular) nodes.  The image of (0, beta) comes from this module's own
transform: the three real symmetric single-quantum Hamiltonians
[[omega1, g], [g, omega2]] with g = d_e*m + d_g*n_sys are eigendecomposed
once per call, and the mode-2 unit vector is pushed through the six
propagators in the order the measurement sequence applies them.  Nothing
comes from the closed form (no schedule table, no half-angle step
kernel, no m22**n) or from the oracle, so a sign or ordering mistake in
either of those shows up as a disagreement with this path.

The per-node kernel runs on separate real and imaginary float64 arrays.
Every node forms its own image b6 = m22*beta and takes its own
log|b6| = log(re^2 + im^2)/2 and arg b6 = arctan2(im, re); the node's
weight is exp(real exponent) * (cos, sin)(phi) with
phi = n * (arg b6 + arg conj beta), formed from h = tan(phi/2) as
(2 - q, 2h)/q with q = 1 + h^2: one vectorized tan per node, where
numpy's float64 cos and sin are scalar libm calls.  The image is never
factored: log(m22*beta) is not split into log m22 + log beta, and
|m22*beta| is not replaced by |m22||beta|, since either would drop the
angular sum and leave the closed form's m22**n.
"""

import functools
import math

import numpy as np

from .model import ConfigError, EigenFailure, ModelParams, SectorTooLarge, _time_grid

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
    jacobi = np.zeros((order, order))
    jacobi.flat[::order + 1] = 2.0 * k + 1.0
    jacobi.flat[1::order + 1] = k[1:]
    jacobi.flat[order::order + 1] = k[1:]
    nodes = np.linalg.eigvalsh(jacobi)
    prev = np.ones_like(nodes)  # L_0
    cur = 1.0 - nodes  # L_1
    shift = np.zeros_like(nodes)  # accumulated log of the renormalizations
    for j in range(1, order + 1):
        prev, cur = cur, ((2.0 * j + 1.0 - nodes) * cur - j * prev) / (j + 1.0)
        size = np.abs(cur)
        if size.max() > 1e100:
            factor = np.where(size > 1e100, size, 1.0)
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


def _rotate(weight: np.ndarray, half_phase: np.ndarray, spare: np.ndarray):
    """(weight * cos 2x, weight * sin 2x) for x = half_phase, per element.

    With h = tan x and q = 1 + h^2, cos 2x = (2 - q)/q and sin 2x = 2h/q,
    so each element takes one tan, which numpy runs as a SIMD loop, where
    its float64 cos and sin each go to scalar libm.  A node's |x| is at
    most pi * QUADRATURE_OCCUPATION_GUARD, and |tan x| < 2e18 for every
    double |x| <= 260 pi (at the double nearest an odd multiple of pi/2),
    so h^2 stays finite; the results are within 4e-16 of weight * (cos,
    sin).  Works in place: the results overwrite ``spare`` (the real part) and
    ``half_phase`` (the imaginary part), and ``weight`` ends as weight / q.
    """
    h = np.tan(half_phase, out=half_phase)
    q = np.multiply(h, h, out=spare)
    q += 1.0
    weight /= q
    im = np.multiply(h, weight, out=half_phase)
    im *= 2.0
    re = np.subtract(2.0, q, out=spare)
    re *= weight
    return re, im


def _node_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the radial and angular nodes, one total per t'."""
    return values.reshape(len(values), -1).sum(axis=1)


def decoherence_factor_fock_quadrature(params: ModelParams, n: int, t, t_prime):
    """Number-state factor by direct phase-space integration.

    Resolve |n> on coherent states: F = integral d^2beta/pi of
    <0,n | image of (0,beta)> <beta | n>.  In polar form with u = |beta|^2
    the radial integral carries weight exp(-u) (Gauss-Laguerre) and the
    phase integral is 2*pi-periodic with finite harmonic content (uniform
    trapezoid).  The orders follow from n alone: the non-weight radial
    factor is a degree-n polynomial in u, so any radial order >= n + 1
    integrates it exactly, and _radial_order(n) = max(64, n + 8) nodes
    are used, with _ANGULAR_ORDER = 64 on the phase circle.  Each node's
    modulus is assembled in log space (lgamma, log|beta| once per call,
    log|b6| per node) and exponentiated once; its phase n*(arg b6 +
    arg conj beta) goes through one tan of its half (see _rotate), and the
    real and imaginary parts are summed separately.

    Scalar ``t`` and ``t_prime`` give a complex; a 1-D array for either
    (the other broadcasts against it) gives one complex per entry, from
    one set of eigensystems, evaluated in blocks of _NODE_BUDGET nodes.
    Raises ConfigError for n < 0, SectorTooLarge above
    QUADRATURE_OCCUPATION_GUARD and NegativeTime where t or t' is below 0.
    """
    if n < 0:
        raise ConfigError(f"occupation must be >= 0, got {n}")
    if n > QUADRATURE_OCCUPATION_GUARD:
        raise SectorTooLarge(
            f"occupation {n} exceeds the quadrature guard {QUADRATURE_OCCUPATION_GUARD}")
    t, t_primes, scalar = _time_grid(t, t_prime)
    m12, m22 = _image_of_mode2(params, t, t_primes)
    u, log_w = _gauss_laguerre_log(_radial_order(n))
    theta = 2.0 * math.pi * np.arange(_ANGULAR_ORDER) / _ANGULAR_ORDER
    radius = np.sqrt(u)[:, None]
    beta_re, beta_im = radius * np.cos(theta), radius * np.sin(theta)
    # + u divides out the rule's exp(-u) weight, - u/2 is the
    # exp(-|beta|^2/2) of <beta|n>, n log|beta| - lgamma(n+1) its power
    log_base = (log_w + 0.5 * u + 0.5 * n * np.log(u) - math.lgamma(n + 1.0))[:, None]
    # from beta's own parts, so that arg b6 + arg conj beta is exactly 0
    # where the image leaves beta unchanged
    arg_conj_beta = np.arctan2(-beta_im, beta_re)
    block = max(1, _NODE_BUDGET // beta_re.size)
    # every step below writes into these block-sized arrays, so that a
    # block allocates no temporaries
    work = np.empty((5, min(block, t_primes.size)) + beta_re.shape)
    out = np.empty(t_primes.size, dtype=complex)
    for lo in range(0, out.size, block):
        m12_re, m12_im, m22_re, m22_im = (
            x[lo:lo + block, None, None] for x in (m12.real, m12.imag, m22.real, m22.imag))
        rows = slice(lo, lo + len(m12_re))
        w0, w1, w2, w3, tmp = work[:, :len(m12_re)]
        # preparation has mode 1 empty, so the image of (0, beta) is
        # (a6, b6) = (m12 beta, m22 beta), formed node by node
        a6_re = np.multiply(m12_re, beta_re, out=w0)
        a6_re -= np.multiply(m12_im, beta_im, out=tmp)
        a6_im = np.multiply(m12_re, beta_im, out=w1)
        a6_im += np.multiply(m12_im, beta_re, out=tmp)
        b6_re = np.multiply(m22_re, beta_re, out=w2)
        b6_re -= np.multiply(m22_im, beta_im, out=tmp)
        b6_im = np.multiply(m22_re, beta_im, out=w3)
        b6_im += np.multiply(m22_im, beta_re, out=tmp)
        # exponent = log_base - (|a6|^2 + |b6|^2) / 2, over a6_re
        exponent = np.multiply(a6_re, a6_re, out=a6_re)
        exponent += np.multiply(a6_im, a6_im, out=a6_im)
        b6_sq = np.multiply(b6_re, b6_re, out=w1)
        b6_sq += np.multiply(b6_im, b6_im, out=tmp)
        exponent += b6_sq
        exponent *= -0.5
        exponent += log_base
        if n == 0:
            out[rows] = _node_sum(np.exp(exponent, out=exponent))
            continue
        # log|b6| and arg b6 per node; b6 = 0 gives log 0 = -inf, weight 0
        with np.errstate(divide="ignore"):
            power = np.log(b6_sq, out=b6_sq)  # 2 log|b6|
        power *= 0.5 * n
        exponent += power
        half_phase = np.arctan2(b6_im, b6_re, out=b6_re)
        half_phase += arg_conj_beta
        half_phase *= 0.5 * n
        weight = np.exp(exponent, out=exponent)
        re, im = _rotate(weight, half_phase, b6_im)
        out[rows] = _node_sum(re) + 1j * _node_sum(im)
    out /= _ANGULAR_ORDER
    return complex(out[0]) if scalar else out
