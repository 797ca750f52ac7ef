"""Second-order correlation functions and decoherence factors.

The detector's two-time correlation is

    G(t, t') = 1/2 + Re[exp(i*omega_e*(t - t')) * F(t, t')] / 2

for an equal-weight internal superposition, where the decoherence factor
F is the overlap between the initial field state and the same state pushed
through the six-step schedule.  F is evaluated three independent ways:

* closed form  - compose the 2x2 mode transforms (production path),
* quadrature   - integrate the coherent-state resolution of the number
                 state over the complex plane (see :mod:`soqd.quadrature`),
* oracle       - dense sector products (see :mod:`soqd.oracle`).

The closed form lives here, on the transforms of :mod:`soqd.propagator`;
routine agreement between all three is what the test suite is built
around.
"""

import math

import numpy as np

from .model import (
    ApparatusState,
    DecoherenceNotReached,
    FockState,
    ModelParams,
    NotNormalized,
    _check_unit_disk,
)
from .propagator import transform_over_tau

__all__ = [
    "two_time_amplitude",
    "g2_free",
    "factor_over_tau",
    "g2_interacting",
    "decoherence_time",
]

#: threshold search window for decoherence_time
TAU_MAX_DEFAULT = 200.0

#: taus per closed-form block: the transform and overlap hold about 165
#: bytes per tau in flight, so a long grid is evaluated this many at a time
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

def _overlap(state: ApparatusState, m: np.ndarray) -> np.ndarray:
    """Closed-form factor of ``state`` from composed transforms m (..., 2, 2).

    Number states give m22**n as exp(n*log(m22)), which underflows smoothly
    toward zero at large n instead of degrading term by term; coherent
    states give the overlap of the preparation with its image.  Like the
    transform, the overlap is assembled on real and imaginary parts with
    + - * only (|z|^2 as re^2 + im^2), and the one complex log/exp per
    point rounds the same under every SIMD target, so the bits depend on
    the code alone.
    """
    if isinstance(state, FockState):
        if state.n == 0:
            return np.ones(m.shape[:-2], dtype=complex)
        m22 = m[..., 1, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_m22 = np.log(m22)
        out = np.exp(_complex(state.n * log_m22.real, state.n * log_m22.imag))
        return np.where(m22 == 0, 0j, out)
    # coherent overlap: sum over both modes k of -(|z0|^2 + |z6|^2)/2
    # + conj(z0)*z6, where z0 is the prepared amplitude and z6 its image
    prep = (state.alpha0, state.beta0)
    exp_re = exp_im = 0.0
    for k, z0 in enumerate(prep):
        z_re = z_im = 0.0  # z6 = m[k, 0] * alpha0 + m[k, 1] * beta0
        for j, c in enumerate(prep):
            e = m[..., k, j]
            z_re = z_re + (e.real * c.real - e.imag * c.imag)
            z_im = z_im + (e.real * c.imag + e.imag * c.real)
        norms = (z0.real * z0.real + z0.imag * z0.imag) + (z_re * z_re + z_im * z_im)
        exp_re = exp_re + (-0.5 * norms + (z0.real * z_re + z0.imag * z_im))
        exp_im = exp_im + (z0.real * z_im - z0.imag * z_re)
    return np.exp(_complex(exp_re, exp_im))


def _complex(re, im) -> np.ndarray:
    """re + i*im without a complex multiply: assigned, so exact."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real, out.imag = re, im
    return out


# ---------------------------------------------------------------------------
# correlation assembly
# ---------------------------------------------------------------------------

def g2_interacting(f, t, t_prime, omega_e: float) -> np.ndarray:
    """Fold decoherence factors into the two-time correlation, elementwise.

    f, t and t_prime broadcast against each other; scalars give a 0-d
    array.  Equal internal weights are hard-wired: the fringe term enters
    with coefficient 1/2 on top of the 1/2 plateau.  The real part of
    exp(i*omega_e*(t - t')) * f is taken as e.re*f.re - e.im*f.im on real
    arrays, never through a complex multiply, so the bits do not depend on
    SIMD dispatch.  Raises UnphysicalFactor when any |f| exceeds 1 by more
    than roundoff.
    """
    f = np.asarray(f, dtype=complex)
    _check_unit_disk(f)
    e = np.exp(_complex(0.0, omega_e * (t - t_prime)))
    return 0.5 + 0.5 * (e.real * f.real - e.imag * f.imag)


def factor_over_tau(params: ModelParams, state: ApparatusState, t: float,
                    taus) -> np.ndarray:
    """Decoherence factor on a whole tau grid (t' = t + tau), closed form.

    The closed form's one entry point: a scalar F is
    ``factor_over_tau(params, state, t, [tau])[0]``, and sweeps, figures
    and the threshold search all run through here.  The arithmetic is
    elementwise per tau, so a length-1 call gives the bits of its entry in
    a whole grid, and evaluating a long grid in blocks of _TAU_BLOCK gives
    the same bits as one call.  Raises NegativeTime where t or t + tau is
    below 0.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.size <= _TAU_BLOCK:
        return _overlap(state, transform_over_tau(params, t, taus))
    return np.concatenate([
        _overlap(state, transform_over_tau(params, t, taus[lo:lo + _TAU_BLOCK]))
        for lo in range(0, taus.size, _TAU_BLOCK)])


# ---------------------------------------------------------------------------
# decoherence time
# ---------------------------------------------------------------------------

def decoherence_time(params: ModelParams, state: ApparatusState, t: float,
                     threshold: float = 1.0 / math.e,
                     tau_max: float = TAU_MAX_DEFAULT) -> float:
    """Smallest tau > 0 with |F(t, t + tau)| below threshold.

    Scans |F| on grids of doubling resolution over (0, tau_max] until the
    first sub-threshold sample stops moving, then bisects the bracketing
    cell down to 1e-4 absolute width.  Raises DecoherenceNotReached when
    |F| stays above threshold across the whole window (equal couplings,
    empty preparations).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if tau_max <= 0:
        raise ValueError(f"tau_max must be > 0, got {tau_max}")

    hit = None
    spacing = None
    points = 1024
    while points <= 131072:
        taus = np.linspace(0.0, tau_max, points + 1)[1:]
        absf = np.abs(factor_over_tau(params, state, t, taus))
        below = absf < threshold
        if below.any():
            idx = int(np.argmax(below))
            new_hit = taus[idx]
            new_spacing = tau_max / points
            if hit is not None and abs(new_hit - hit) <= new_spacing:
                hit, spacing = new_hit, new_spacing
                break
            hit, spacing = new_hit, new_spacing
        points *= 2
    if hit is None:
        raise DecoherenceNotReached(
            f"|F| stayed above {threshold:g} for tau in (0, {tau_max:g}]")

    def absf_at(tau: float) -> float:
        return float(np.abs(factor_over_tau(params, state, t, np.array([tau])))[0])

    lo = max(0.0, hit - spacing)
    hi = hit
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if absf_at(mid) < threshold:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
