"""Closed-form mode transforms for the six-step interferometric schedule.

Each step evolves the two field modes under a constant bilinear Hamiltonian

    h = alpha1 * n1 + alpha2 * n2 + beta * (a1^+ a2 + a2^+ a1),

which acts on coherent amplitudes through the 2x2 matrix exp(-i*H*duration)
with H = [[alpha1, beta], [beta, alpha2]].  The decoherence factor of the
full measurement sequence is an overlap taken after six such steps whose
frequencies and couplings alternate in sign.  ``_schedule_rows`` is the one
table of those steps, ``_mode_entries`` the half-angle kernel of one step,
and ``transform_over_tau`` the composed transform over a whole tau grid,
which the closed-form factors in :mod:`soqd.correlation` read.  The
quadrature and the oracle build their transforms on their own and share
none of this.

Composition order: step 1 acts first, so the combined transform is the
matrix product M6 @ M5 @ M4 @ M3 @ M2 @ M1.  Keep it that way; reversing
the product is a silent transpose bug that every cross-check downstream
is designed to catch.

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

from .model import ModelParams, _t_prime

__all__ = ["transform_over_tau"]

#: treat sin(x)/x as 1 below this angle; the relative error of the
#: replacement is < x^2/6 ~ 1.7e-17, under double roundoff
_SMALL_ANGLE = 1e-8


def _schedule_rows(params: ModelParams, t, t_prime) -> tuple:
    """(alpha1, alpha2, beta, duration) of the six steps, step 1 first.

    Steps 1 and 6 carry the summed coupling d_e + d_g (with opposite
    signs), steps 2/3 carry d_e, steps 4/5 carry d_g; steps 3 and 4 last
    t', the rest last t.  Step 6 is step 1 with every coefficient negated.
    """
    w1, w2 = params.omega1, params.omega2
    de, dg = params.d_e, params.d_g
    return (
        (w1, w2, de + dg, t),
        (-w1, -w2, -de, t),
        (w1, w2, de, t_prime),
        (-w1, -w2, -dg, t_prime),
        (w1, w2, dg, t),
        (-w1, -w2, -de - dg, t),
    )


def _times(x, y):
    """x * y for complex numbers held as (re, im) pairs of float arrays."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _matmul(a, b):
    """a @ b for 2x2 matrices held as ((m11, m12), (m21, m22)) of pairs."""
    def entry(i, j):
        p, q = _times(a[i][0], b[0][j]), _times(a[i][1], b[1][j])
        return (p[0] + q[0], p[1] + q[1])
    return ((entry(0, 0), entry(0, 1)), (entry(1, 0), entry(1, 1)))


def _mode_entries(alpha1: float, alpha2: float, beta: float, duration):
    """exp(-i*H*duration) for H = [[alpha1, beta], [beta, alpha2]], as pairs.

    ``duration`` may be a scalar or an ndarray; every entry is an (re, im)
    pair of arrays of duration's shape.  Uses the half-angle form

        exp(-i*(alpha1+alpha2)*d/2) * (cos(G*d) * I
            - i*sin(G*d)/G * [[-delta, beta], [beta, delta]])

    with delta = (alpha2 - alpha1)/2 and G = sqrt(delta^2 + beta^2); the
    sin(G*d)/G ratio is replaced by d itself for G*d below _SMALL_ANGLE so
    the degenerate G -> 0 limit is exact instead of 0/0.
    """
    d = np.asarray(duration, dtype=float)
    delta = 0.5 * (alpha2 - alpha1)
    rate = math.hypot(delta, beta)
    angle = rate * d
    half_phase = 0.5 * (alpha1 + alpha2) * d
    phase = (np.cos(half_phase), -np.sin(half_phase))
    cos = np.cos(angle)
    denom = rate if rate > 0 else 1.0
    sin_ratio = np.where(np.abs(angle) < _SMALL_ANGLE, d, np.sin(angle) / denom)
    dsin = delta * sin_ratio
    bsin = beta * sin_ratio
    off = (bsin * phase[1], -(bsin * phase[0]))  # -i * bsin * phase
    return ((_times((cos, dsin), phase), off),
            (off, _times((cos, -dsin), phase)))


def _schedule_product(rows) -> np.ndarray:
    """M6 @ ... @ M1 over (alpha1, alpha2, beta, duration) rows, step 1
    first, as a complex array of shape duration-shape + (2, 2)."""
    total = None
    for row in rows:
        m = _mode_entries(*row)
        total = m if total is None else _matmul(m, total)
    shape = np.broadcast_shapes(*(np.shape(row[3]) for row in rows))
    out = np.empty(shape + (2, 2), dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            out[..., i, j].real, out[..., i, j].imag = total[i][j]
    return out


def transform_over_tau(params: ModelParams, t: float, taus) -> np.ndarray:
    """Composed transforms for t' = t + tau over a whole tau grid at once.

    Returns an array of shape (len(taus), 2, 2); the arithmetic is
    elementwise, so each tau gets the bits of a length-1 call.  Steps 3
    and 4 get the array duration, the four t-steps stay scalar and
    broadcast.  Raises NegativeTime where t or t + tau is below 0 and
    TauUnresolved where t + tau loses tau to rounding.
    """
    taus = np.asarray(taus, dtype=float)
    return _schedule_product(_schedule_rows(params, t, _t_prime(t, taus)))
