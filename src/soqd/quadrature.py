"""Number-state decoherence factor by phase-space quadrature.

The number state is resolved on coherent states,

    F = integral d^2beta/pi <0,n | image of (0,beta)> <beta | n>,

and the integral is taken on Gauss-Laguerre (radial) x uniform trapezoid
(angular) nodes.  The orders are the ones the integrand needs.  With
mode 1 empty, the image of (0, beta) is (a6, b6) = (m12 beta, m22 beta),
so with u = |beta|^2 the integrand exp(-(|a6|^2 + |b6|^2 + u)/2) *
b6**n conj(beta)**n / n! is exp(-u) m22**n u**n / n! by unitarity, the
same at every angle of beta.  The trapezoid rule is exact for a
trigonometric polynomial of degree below its node count, and a constant
needs one node, so _ANGULAR_ORDER = 8 (two per quadrant, so that arg b6,
arg conj beta and their wrap at +-pi still vary from node to node); the
radial factor is exp(-u) times a degree-n polynomial, which the
Gauss-Laguerre rule of any order >= (n + 1)/2 integrates exactly, and
_radial_order(n) = n + 8.  The kernel does not use this: every node is
formed from its own image and summed, as if the angle mattered.

The image of (0, beta) comes from this module's own
transform: the three real symmetric single-quantum Hamiltonians
[[omega1, g], [g, omega2]] with g = d_e*m + d_g*n_sys are eigendecomposed
together, in one stacked call per factor call, and the mode-2 unit vector
is pushed through the six propagators in the order the measurement
sequence applies them.  Nothing comes from the closed form (no schedule
table, no half-angle step kernel, no m22**n) or from the oracle, so a
sign or ordering mistake in either of those shows up as a disagreement
with this path.

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

The entry point keeps the time contract of soqd.model: (t, tau) in, one
complex per grid node out as a 1-D array.
"""

import functools
import math
import os

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
#: (168 x 8 nodes) that is 12 t' per block, so the work arrays stay at
#: 12 t' worth whatever the grid size
_NODE_BUDGET = 2 ** 14

#: uniform trapezoid nodes on the phase circle: the integrand is the same
#: at every angle, and two nodes per quadrant exercise the phase wrap
_ANGULAR_ORDER = 8


def _radial_order(n: int) -> int:
    """Gauss-Laguerre order for occupation n: the radial factor is exp(-u)
    times a degree-n polynomial in u, which every order >= (n + 1)/2
    integrates exactly; n + 8 reaches the table's last order, 264, at the
    occupation guard."""
    return n + 8


#: highest Gauss-Laguerre order the quadrature uses, and the table holds
_TOP_ORDER = _radial_order(QUADRATURE_OCCUPATION_GUARD)

#: nodes and log-weights of every Gauss-Laguerre order 1 ... _TOP_ORDER,
#: little-endian float64: order R's R ascending nodes, then their R
#: log-weights, start R (R - 1) doubles in.  Written by
#: tools/gauss_laguerre_table.py
_RULE_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gauss_laguerre.f64")


@functools.lru_cache(maxsize=32)
def _gauss_laguerre_log(order: int):
    """Gauss-Laguerre nodes and log-weights for weight exp(-u) on [0, inf).

    The rule depends on the order alone: this order's 2 * order doubles
    are read from _RULE_TABLE on first use and cached, and the returned
    arrays are read-only.  Each value is the double nearest a 200-bit
    computation (Newton's method on the roots of L_order, and log w =
    log x - 2 log|order * L_{order-1}(x)|), so the rule's smallest
    weights keep full relative accuracy.  Raises ConfigError for an order
    outside 1 ... _TOP_ORDER and OSError for a table that cannot be read
    or is cut short.
    """
    if not 1 <= order <= _TOP_ORDER:
        raise ConfigError(
            f"no Gauss-Laguerre rule of order {order}: the table holds 1 ... {_TOP_ORDER}")
    rule = np.fromfile(_RULE_TABLE, dtype="<f8", count=2 * order,
                       offset=8 * order * (order - 1))
    if rule.size != 2 * order:
        raise OSError(f"{_RULE_TABLE} is cut short: order {order} is missing")
    rule.flags.writeable = False
    return rule[:order], rule[order:]


def _single_quantum_eigensystems(params: ModelParams):
    """Eigensystems of [[omega1, g], [g, omega2]] for g = d_e + d_g, d_e, d_g,
    the (m, n_sys) = (1, 1), (1, 0), (0, 1) couplings, from one stacked eigh."""
    h = np.array([[[params.omega1, g], [g, params.omega2]]
                  for g in (params.d_e + params.d_g, params.d_e, params.d_g)])
    try:
        evals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"single-quantum eigendecomposition failed: {exc}") from exc
    return list(zip(evals, vecs))


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


def decoherence_factor_fock_quadrature(params: ModelParams, n: int, t, tau) -> np.ndarray:
    """Number-state factor by direct phase-space integration.

    Resolve |n> on coherent states: F = integral d^2beta/pi of
    <0,n | image of (0,beta)> <beta | n>.  In polar form with u = |beta|^2
    the radial integral carries weight exp(-u) (Gauss-Laguerre) and the
    phase integral is 2*pi-periodic with finite harmonic content (uniform
    trapezoid).  The orders follow from n alone: the non-weight radial
    factor is a degree-n polynomial in u and the phase integrand is
    constant, so _radial_order(n) = n + 8 radial and _ANGULAR_ORDER = 8
    angular nodes integrate it exactly (see the module docstring).  Each node's
    modulus is assembled in log space (lgamma, log|beta| once per call,
    log|b6| per node) and exponentiated once; its phase n*(arg b6 +
    arg conj beta) goes through one tan of its half (see _rotate), and the
    real and imaginary parts are summed separately.

    One entry per (t, tau) node, from one set of eigensystems, evaluated
    in blocks of _NODE_BUDGET nodes.  Raises ConfigError for n < 0,
    SectorTooLarge above QUADRATURE_OCCUPATION_GUARD, and
    model._time_grid's ConfigError, NegativeTime and TauUnresolved.
    """
    if n < 0:
        raise ConfigError(f"occupation must be >= 0, got {n}")
    if n > QUADRATURE_OCCUPATION_GUARD:
        raise SectorTooLarge(
            f"occupation {n} exceeds the quadrature guard {QUADRATURE_OCCUPATION_GUARD}")
    t, t_primes = _time_grid(t, tau)
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
    return out
