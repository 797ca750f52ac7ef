"""Closed-form mode transform of the interferometric schedule, on the echo
identity.

Each step evolves the two field modes under a constant bilinear
Hamiltonian h = alpha1*n1 + alpha2*n2 + beta*(a1^+ a2 + a2^+ a1), which
acts on coherent amplitudes through exp(-i*H*duration) with
H = [[alpha1, beta], [beta, alpha2]].  Four of the schedule's six steps
cancel exactly, so the composed transform over t' = t + tau is

    M = S1(t)^dagger K(tau) S1(t),  S1(t) = exp(-i*H1*t),
    K(tau) = exp(+i*Hg*tau) exp(-i*He*tau)  (Cini's first-order factor),

with H1, He, Hg of couplings d_e + d_g, d_e and d_g.  ``echo_over_tau``
returns D = M - I = S1^dagger (K - I) S1 over a tau grid, all three steps
from the one kernel exp(-i*H*d) - I, so D keeps its relative precision as
tau -> 0 and tau = 0 gives D = 0 exactly.  The six-step table is the
definition the tests check the identity against; the quadrature and the
oracle evolve through the six steps on their own and share none of this.

Reproducible arithmetic: every transform is built on separate real and
imaginary float64 arrays with elementwise + - * / and real sin/cos only
(the scalar rate comes from math.hypot).  Those round the same way under
every BLAS kernel and every SIMD dispatch target, whereas a stacked
complex ``@`` goes to whichever zgemm kernel the BLAS picks for the CPU,
and numpy's complex multiply fuses products (FMA) on some targets only.
The bits of a transform therefore depend on the code alone, which is what
lets the preset panels be pinned byte for byte.
"""

import math

import numpy as np

from .model import ModelParams, _time_grid

__all__ = ["echo_over_tau"]

#: treat sin(x)/x as 1 below this angle; the relative error of the
#: replacement is < x^2/6 ~ 1.7e-17, under double roundoff
_SMALL_ANGLE = 1e-8


def _plus(x, y):
    """x + y for complex numbers held as (re, im) pairs of float arrays."""
    return (x[0] + y[0], x[1] + y[1])


def _times(x, y):
    """x * y for complex numbers held as (re, im) pairs of float arrays."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _grown(x, y):
    """(1 + x) * (1 + y) - 1 as x + y + x*y, for (re, im) pairs."""
    return _plus(_plus(x, y), _times(x, y))


def _matrix(entry):
    """The 2x2 matrix ((entry(0, 0), entry(0, 1)), (entry(1, 0), entry(1, 1)))."""
    return ((entry(0, 0), entry(0, 1)), (entry(1, 0), entry(1, 1)))


def _matmul(a, b):
    """a @ b for 2x2 matrices held as ((m11, m12), (m21, m22)) of pairs."""
    return _matrix(lambda i, j: _plus(_times(a[i][0], b[0][j]), _times(a[i][1], b[1][j])))


def _grown_matrix(a, b):
    """(I + a) @ (I + b) - I as a + b + a @ b, for 2x2 matrices of pairs."""
    ab = _matmul(a, b)
    return _matrix(lambda i, j: _plus(_plus(a[i][j], b[i][j]), ab[i][j]))


def _step_minus_identity(alpha1: float, alpha2: float, beta: float, duration):
    """exp(-i*H*duration) - I for H = [[alpha1, beta], [beta, alpha2]], as pairs.

    ``duration`` may be a scalar or an ndarray; every entry is an (re, im)
    pair of arrays of duration's shape.  The step is exp(-i*phi) *
    (cos(theta) I - i*sin(theta)/G [[-delta, beta], [beta, delta]]) with
    phi = (alpha1 + alpha2)*d/2, delta = (alpha2 - alpha1)/2,
    G = hypot(delta, beta) and theta = G*d.  Nothing is subtracted from 1:
    exp(-i*phi) - 1 = -2 sin^2(phi/2) - i sin(phi) and
    cos(theta) - 1 = -2 sin^2(theta/2).  sin(theta)/G is replaced by d for
    theta below _SMALL_ANGLE, so the G -> 0 limit is exact, not 0/0.
    """
    d = np.asarray(duration, dtype=float)
    delta = 0.5 * (alpha2 - alpha1)
    rate = math.hypot(delta, beta)
    angle = rate * d
    half_phase = 0.5 * (alpha1 + alpha2) * d
    p = (-2.0 * np.square(np.sin(0.5 * half_phase)), -np.sin(half_phase))
    cos_less_1 = -2.0 * np.square(np.sin(0.5 * angle))
    denom = rate if rate > 0 else 1.0
    sin_ratio = np.where(np.abs(angle) < _SMALL_ANGLE, d, np.sin(angle) / denom)
    dsin = delta * sin_ratio
    bsin = beta * sin_ratio
    off = (p[1] * bsin, -((1.0 + p[0]) * bsin))  # (1 + p) * -i * bsin
    return ((_grown(p, (cos_less_1, dsin)), off),
            (off, _grown(p, (cos_less_1, -dsin))))


def echo_over_tau(params: ModelParams, t: float, taus) -> np.ndarray:
    """D = M(t, t + tau) - I over a whole tau grid at once.

    Returns a complex array of shape taus-shape + (2, 2); the arithmetic
    is elementwise, so each tau gets the bits of a length-1 call.  t' is
    formed only for the check the oracle and the quadrature make: raises
    model._time_grid's ConfigError (also for taus of more than one
    dimension), NonFiniteParameter, NegativeTime and TauUnresolved.
    """
    _time_grid(t, taus)
    taus = np.asarray(taus, dtype=float)
    w1, w2, de, dg = params.omega1, params.omega2, params.d_e, params.d_g
    k_less_i = _grown_matrix(_step_minus_identity(w1, w2, dg, -taus),
                             _step_minus_identity(w1, w2, de, taus))
    e_1 = _step_minus_identity(w1, w2, de + dg, t)
    s1 = _matrix(lambda i, j: _plus(e_1[i][j], (float(i == j), 0.0)))
    s1_dagger = _matrix(lambda i, j: (s1[j][i][0], -s1[j][i][1]))
    d = _matmul(s1_dagger, _matmul(k_less_i, s1))
    out = np.empty(taus.shape + (2, 2), dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            out[..., i, j].real, out[..., i, j].imag = d[i][j]
    return out
