"""Second-order correlation functions and decoherence factors.

The detector's two-time correlation is

    G(t, t') = 1/2 + Re[exp(i*omega_e*(t - t')) * F(t, t')] / 2,  t' = t + tau

for an equal-weight internal superposition, where the decoherence factor
F is the overlap between the initial field state and the same state pushed
through the six-step schedule.  F is evaluated three independent ways:

* closed form  - the 2x2 mode transform on the echo identity, read as
                 D = M - I (production path),
* quadrature   - integrate the coherent-state resolution of the number
                 state over the complex plane (see :mod:`soqd.quadrature`),
* oracle       - dense sector products (see :mod:`soqd.oracle`).

The closed form lives here, on the D of :mod:`soqd.propagator`; routine
agreement between all three is what the test suite is built around.
"""

import math

import numpy as np

from .model import (
    ApparatusState,
    ConfigError,
    DecoherenceNotReached,
    FockState,
    ModelParams,
    NotNormalized,
    TAU_ROUNDING_BUDGET,
    TauUnresolved,
    _check_unit_disk,
)
from .propagator import echo_over_tau

__all__ = [
    "two_time_amplitude",
    "g2_free",
    "factor_over_tau",
    "g2_interacting",
    "decoherence_time",
]

#: threshold search window for decoherence_time
TAU_MAX_DEFAULT = 200.0

#: decoherence_time: taus of its log-spaced bracketing grid and of each
#: refining linspace, and the relative bracket width it stops at
_SEARCH_GRID, _SEARCH_REFINE, _SEARCH_WIDTH = 256, 64, 1e-12

#: taus per closed-form block: D and the overlap peak at about 240 bytes
#: per tau (tracemalloc), so a long grid is evaluated this many at a time
_TAU_BLOCK = 2 ** 12


# ---------------------------------------------------------------------------
# free two-level interference (no field coupling)
# ---------------------------------------------------------------------------

def _check_normalized(c_e: complex, c_g: complex) -> None:
    norm = abs(c_e) ** 2 + abs(c_g) ** 2
    if abs(norm - 1.0) > 1e-9:
        raise NotNormalized(f"|c_e|^2 + |c_g|^2 = {norm!r}, expected 1")


def two_time_amplitude(c_e: complex, c_g: complex, omega_e: float,
                       omega_g: float, t1: float, t2: float) -> complex:
    """Symmetrized two-time amplitude of a freely precessing two-level system."""
    _check_normalized(c_e, c_g)
    return (c_e * c_g * np.exp(-1j * (omega_e * t2 + omega_g * t1))
            + c_g * c_e * np.exp(-1j * (omega_g * t2 + omega_e * t1)))


def g2_free(c_e: complex, c_g: complex, omega_e: float, omega_g: float,
            t1: float, t2: float) -> float:
    """|two_time_amplitude|^2 in closed form: an undamped cosine fringe."""
    _check_normalized(c_e, c_g)
    return float(2.0 * abs(c_e * c_g) ** 2
                 * (1.0 + math.cos((omega_g - omega_e) * (t2 - t1))))


# ---------------------------------------------------------------------------
# decoherence factors (closed form)
# ---------------------------------------------------------------------------

def _overlap(state: ApparatusState, d: np.ndarray) -> np.ndarray:
    """Closed-form factor of ``state`` from D = M - I: exp(_log_overlap)."""
    return np.exp(_complex(*_log_overlap(state, d)))


def _log_overlap(state: ApparatusState, d: np.ndarray) -> tuple:
    """(log|F|, arg F) of ``state`` from D = M - I, shape (..., 2, 2).

    |F| comes from unitarity and D alone, never from M = I + D: a coherent
    preparation z0 has F = exp(z0^dagger D z0) with real part -|D z0|^2/2,
    and a number state F = m22**n = exp(n * (log1p(-|D12|^2)/2
    + i*arg(1 + D22))).  The exponents are assembled on real and imaginary
    parts with + - * / only, and the one transcendental kind is complex
    log/exp, which rounds the same under every SIMD target (real log,
    log1p, exp and arctan2 do not): log1p(x) is Goldberg's
    log(u) * x/(u - 1), u = 1 + x (x itself where u == 1), so the bits
    depend on the code alone.  log|F| never underflows, as |F| can.
    """
    if isinstance(state, FockState):
        if state.n == 0:
            zero = np.zeros(d.shape[:-2])
            return zero, zero
        d12, d22 = d[..., 0, 1], d[..., 1, 1]
        x = -(d12.real * d12.real + d12.imag * d12.imag)
        u = 1.0 + x
        with np.errstate(divide="ignore", invalid="ignore"):
            log1p_x = np.where(u == 1.0, x, np.log(u.astype(complex)).real * (x / (u - 1.0)))
            phase = np.log(1.0 + d22).imag
        return state.n * (0.5 * log1p_x), state.n * phase
    prep = (state.alpha0, state.beta0)
    norm2 = dot_im = 0.0
    for k, z0 in enumerate(prep):
        w_re = w_im = 0.0  # w_k = D[k, 0] * alpha0 + D[k, 1] * beta0
        for j, c in enumerate(prep):
            e = d[..., k, j]
            w_re = w_re + (e.real * c.real - e.imag * c.imag)
            w_im = w_im + (e.real * c.imag + e.imag * c.real)
        norm2 = norm2 + (w_re * w_re + w_im * w_im)
        dot_im = dot_im + (z0.real * w_im - z0.imag * w_re)
    return -0.5 * norm2, dot_im


def _complex(re, im) -> np.ndarray:
    """re + i*im without a complex multiply: assigned, so exact."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real, out.imag = re, im
    return out


# ---------------------------------------------------------------------------
# correlation assembly
# ---------------------------------------------------------------------------

def g2_interacting(f, t, tau, omega_e: float) -> np.ndarray:
    """Fold decoherence factors into the two-time correlation, elementwise.

    f, t and tau broadcast against each other; scalars give a 0-d array.
    Equal internal weights are hard-wired: the fringe term enters with
    coefficient 1/2 on top of the 1/2 plateau.  t' is t + tau, as the
    factor methods form it, so the phase has the same bits.  The real part of
    exp(i*omega_e*(t - t')) * f is taken as e.re*f.re - e.im*f.im on real
    arrays, never through a complex multiply, so the bits do not depend on
    SIMD dispatch.  Raises UnphysicalFactor when any |f| exceeds 1 by more
    than roundoff.
    """
    f = np.asarray(f, dtype=complex)
    _check_unit_disk(f)
    e = np.exp(_complex(0.0, omega_e * (t - (t + tau))))
    return 0.5 + 0.5 * (e.real * f.real - e.imag * f.imag)


def factor_over_tau(params: ModelParams, state: ApparatusState, t: float,
                    taus) -> np.ndarray:
    """Decoherence factor on a whole tau grid (t' = t + tau), closed form.

    The closed form's one entry point: a scalar F is
    ``factor_over_tau(params, state, t, [tau])[0]``, and sweeps, figures
    and ``compare`` all run through here.  The arithmetic is
    elementwise per tau, so a length-1 call gives the bits of its entry in
    a whole grid, and evaluating a long grid in blocks of _TAU_BLOCK gives
    the same bits as one call.  Raises NegativeTime where t or t + tau is
    below 0.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if taus.size <= _TAU_BLOCK:
        return _overlap(state, echo_over_tau(params, t, taus))
    return np.concatenate([
        _overlap(state, echo_over_tau(params, t, taus[lo:lo + _TAU_BLOCK]))
        for lo in range(0, taus.size, _TAU_BLOCK)])


# ---------------------------------------------------------------------------
# decoherence time
# ---------------------------------------------------------------------------

def decoherence_time(params: ModelParams, state: ApparatusState, t: float,
                     threshold: float = 1.0 / math.e,
                     tau_max: float = TAU_MAX_DEFAULT) -> float:
    """Smallest tau > 0 with |F(t, t + tau)| below threshold.

    One log-spaced grid of _SEARCH_GRID taus, from the smallest tau that t
    resolves (floored at tau_max * 2**-60) up to tau_max, brackets the
    first crossing; linspaces of _SEARCH_REFINE taus then refine the
    bracket to a relative width of at most 1e-12 and return its midpoint.
    Each grid is one closed-form call, decided on log|F| < log(threshold),
    so |F| never underflows.  Raises ConfigError for a threshold outside
    (0, 1) or tau_max <= 0, DecoherenceNotReached when |F| stays above
    threshold across the grid (equal couplings, empty preparations), and
    TauUnresolved when |F| is below it already at the grid's first tau
    (n = 1e16 at t = 10).
    """
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must lie in (0, 1), got {threshold}")
    if tau_max <= 0:
        raise ConfigError(f"tau_max must be > 0, got {tau_max}")
    lo = min(tau_max, max(tau_max * 2.0 ** -60, math.ulp(t) / TAU_ROUNDING_BUDGET))
    taus = np.geomspace(lo, tau_max, _SEARCH_GRID)
    while True:
        below = _log_overlap(state, echo_over_tau(params, t, taus))[0] < math.log(threshold)
        if not below.any():
            raise DecoherenceNotReached(f"|F| stayed above {threshold:g} up to tau = {tau_max:g}")
        i = int(np.argmax(below))
        if taus[i] == lo:
            raise TauUnresolved(f"|F| is below {threshold:g} already at tau = {lo!r}, "
                                f"the smallest tau searched at t = {t!r}")
        lo, hi = (taus[i - 1] if i else lo), taus[i]
        if hi - lo <= _SEARCH_WIDTH * hi:
            return float(0.5 * (lo + hi))
        # interior taus, then hi itself, so the next grid has a crossing
        taus = np.linspace(lo, hi, _SEARCH_REFINE + 1)[1:]
