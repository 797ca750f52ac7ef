"""Brute-force reference path in truncated Fock space.

The exchange coupling conserves the total occupation n1 + n2, so the
two-mode Hilbert space splits into sectors of fixed total n.  Inside
sector n we build the (n+1) x (n+1) real symmetric Hamiltonians H11, H10
and H01 explicitly, stacked as one array from a shared diagonal and
ladder band, and eigendecompose the stack in one call: every propagator
exp(-i H d) is then V diag(exp(-i lambda d)) V^T, for any duration d, so
one eigensystem set per sector serves a whole (t, tau) grid (the
eigenvector method for normal matrices).  The start vector is pushed
through the six sequence propagators as written, every (t, t') pair at
once as matrix columns, in blocks of fixed width so the work arrays do
not grow with the grid.  V is real, so each product with it is one real
matrix product against the complex columns viewed as interleaved (re, im)
floats.  No 2x2 shortcut, no normal-ordering identity, nothing from the
closed form: this path exists to catch sign and ordering mistakes in the
closed form, at honest matrix-product cost.

Coherent preparations are Poisson mixtures over sectors, summed one
sector at a time, with a log-space upper bound on the discarded Poisson
mass.  That bound also sets the cutoff: the smallest one whose certified
tail is at most 2^-53 (min_cutoff), so no sector is summed that could
not change a bit of the result, and every sector that could is.

Both entry points keep the time contract of soqd.model: (t, tau) in, one
complex per grid node out as a 1-D array.
"""

import math
from typing import NamedTuple

import numpy as np

from .model import (CoherentState, ConfigError, CutoffTooSmall, EigenFailure, FockState,
                    ModelParams, SectorTooLarge, _shown, _time_grid)

__all__ = [
    "SECTOR_GUARD",
    "MIXTURE_TAIL_TARGET",
    "min_cutoff",
    "sector_hamiltonians",
    "decoherence_factor_oracle_fock",
    "CoherentOracleResult",
    "decoherence_factor_oracle_coherent",
]

#: largest sector dimension the dense path accepts; keeps a single
#: eigendecomposition + products well under a second
SECTOR_GUARD = 512

#: largest certified Poisson tail a mixture cutoff may leave: the unit
#: roundoff of a double, since the mixture value has |value| <= 1
MIXTURE_TAIL_TARGET = 2.0 ** -53

#: t' columns pushed through the propagators together; bounds the work
#: arrays at (n + 1) x _TAU_BLOCK complex entries whatever the grid size
_TAU_BLOCK = 256


def sector_hamiltonians(params: ModelParams, sector: int) -> np.ndarray:
    """The sector's H11, H10 and H01 as one real (3, sector + 1, sector + 1) array.

    Basis vector k is the product state with k quanta in mode 1 and
    sector - k in mode 2, so index 0 is the mode-1-empty state.  The three
    share the diagonal omega1*k + omega2*(sector - k) and the ladder roots
    sqrt((k+1)*(sector-k)) of the two-mode exchange on the sub/super-
    diagonal, scaled by the couplings d_e + d_g, d_e and d_g of the
    internal populations (1, 1), (1, 0) and (0, 1).  Raises FockState's
    ConfigError for a sector that is not an occupation it accepts.
    """
    FockState(sector)
    k = np.arange(sector + 1)
    h = np.zeros((3, sector + 1, sector + 1))
    h[:, k, k] = params.omega1 * k + params.omega2 * (sector - k)
    kk = k[:-1]
    off = np.multiply.outer([params.d_e + params.d_g, params.d_e, params.d_g],
                            np.sqrt((kk + 1.0) * (sector - kk)))
    h[:, kk, kk + 1] = h[:, kk + 1, kk] = off
    return h


def _evolve(system, duration, v: np.ndarray) -> np.ndarray:
    """exp(-i H duration) applied to the columns of v: V (phase * (V^T v)).

    ``duration`` is a scalar, or one value per column of ``v``, a
    C-contiguous complex array.  V is real, so each product is one real
    matrix product of V against the interleaved (re, im) float view of the
    complex columns, not a complex product against a complex copy of V.
    """
    evals, vecs = system
    phase = np.exp(-1j * evals[:, None] * np.atleast_1d(duration))
    w = phase * (vecs.T @ v.view(float)).view(complex)
    return (vecs @ w.view(float)).view(complex)


def _sector_factor(params: ModelParams, n: int, t,
                   t_primes: np.ndarray) -> np.ndarray:
    """Sector-n factor at every entry of the 1-D array ``t_primes``.

    ``t`` is a scalar or one value per entry of ``t_primes``.  The three
    sector Hamiltonians are eigendecomposed in one stacked eigh call, which
    runs the same LAPACK routine on each as three separate calls would.
    Applies exp(-iH11 t), exp(+iH10 t), exp(-iH10 t'), exp(+iH01 t'),
    exp(-iH01 t), exp(+iH11 t) to the mode-1-empty basis vector, in that
    order, and reads its own component back.  Raises EigenFailure if
    LAPACK does not converge.
    """
    try:
        evals, vecs = np.linalg.eigh(sector_hamiltonians(params, n))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"sector-{n} eigendecomposition failed: {exc}") from exc
    h11, h10, h01 = zip(evals, vecs)
    start = np.zeros((n + 1, 1), dtype=complex)
    start[0] = 1.0
    out = np.empty(t_primes.size, dtype=complex)
    for lo in range(0, t_primes.size, _TAU_BLOCK):
        tp = t_primes[lo:lo + _TAU_BLOCK]
        tb = t if np.ndim(t) == 0 else t[lo:lo + _TAU_BLOCK]
        v = _evolve(h11, tb, start)
        v = _evolve(h10, -tb, v)
        v = _evolve(h10, tp, v)
        v = _evolve(h01, -tp, v)
        v = _evolve(h01, tb, v)
        v = _evolve(h11, -tb, v)
        out[lo:lo + tp.size] = v[0]
    return out


def decoherence_factor_oracle_fock(params: ModelParams, n: int, t, tau) -> np.ndarray:
    """Decoherence factor of the n-quantum preparation, by dense propagators.

    Applies the six sequence propagators exp(+iH11 t), exp(-iH01 t),
    exp(+iH01 t'), exp(-iH10 t'), exp(+iH10 t), exp(-iH11 t) (the rightmost
    acts first) to the mode-1-empty state and returns its amplitude to end
    where it started, one entry per (t, tau) node, all from one eigensystem
    set.  Raises FockState's ConfigError, SectorTooLarge above SECTOR_GUARD,
    and model._time_grid's ConfigError, NegativeTime and TauUnresolved.
    """
    FockState(n)
    if n > SECTOR_GUARD:
        raise SectorTooLarge(f"sector {n} exceeds the dense guard {SECTOR_GUARD}")
    return _sector_factor(params, n, *_time_grid(t, tau))


class CoherentOracleResult(NamedTuple):
    """Mixture value (1-D, one per grid node) plus an upper bound on the
    discarded tail mass."""

    value: np.ndarray
    tail_bound: float


def _poisson_tail_bound(x: float, cutoff: int) -> float:
    """Upper bound on the Poisson(x) mass above ``cutoff``; needs cutoff + 2 > x.

    Past the first discarded term w_{C+1} each ratio w_{n+1}/w_n = x/(n+1)
    is at most r = x/(C+2), so the tail is below the geometric sum
    w_{C+1}/(1 - r).  log w_{C+1} comes from lgamma, so the bound stays
    positive far below the ~1e-16 floor of 1 - sum(w).
    """
    log_first = -x + (cutoff + 1) * math.log(x) - math.lgamma(cutoff + 2.0)
    return math.exp(log_first) / (1.0 - x / (cutoff + 2.0))


def min_cutoff(x: float) -> int:
    """Smallest mixture cutoff C for mean occupation x whose certified tail,
    _poisson_tail_bound(x, C), is at most MIXTURE_TAIL_TARGET.

    The search starts at ceil(x), so C + 2 > x as the bound needs, and
    stops at SECTOR_GUARD + 1: that value means no cutoff the dense path
    accepts is enough, as at x = inf.  x = 0 gives 0, since Poisson(0) has
    no tail.  Raises ConfigError for a negative or NaN x.
    """
    if not x >= 0:
        raise ConfigError(f"mean occupation must be >= 0, got {_shown(x)}")
    if x == 0:
        return 0
    cutoff = math.ceil(min(x, SECTOR_GUARD + 1))
    while (cutoff <= SECTOR_GUARD
           and _poisson_tail_bound(x, cutoff) > MIXTURE_TAIL_TARGET):
        cutoff += 1
    return cutoff


def decoherence_factor_oracle_coherent(params: ModelParams, beta0: complex,
                                       t, tau, cutoff: int) -> CoherentOracleResult:
    """Coherent-preparation factor as a Poisson mixture over sectors.

    Number conservation kills every cross-sector interference term, so the
    coherent factor is exactly sum_n w_n F_n with Poisson weights
    w_n = exp(-x) x^n / n!, x = |beta0|^2.  Each |F_n| <= 1, so the
    truncation error is bounded by the discarded tail mass, whose upper
    bound is returned alongside the value.  Sectors are evaluated one at a
    time, each with one stacked eigendecomposition for the whole grid;
    ``t`` and ``tau`` broadcast as in decoherence_factor_oracle_fock, and
    the value is one complex per grid node.  Raises CutoffTooSmall when the
    cutoff's certified tail exceeds MIXTURE_TAIL_TARGET (cutoff below
    min_cutoff(x)), SectorTooLarge above SECTOR_GUARD, and the time errors
    of decoherence_factor_oracle_fock, all after CoherentState's ConfigError
    for a beta0 it refuses (NaN, or 4|beta0|^2 past the float range).
    """
    x = abs(CoherentState(0j, beta0).beta0) ** 2
    needed = min_cutoff(x)
    if cutoff < needed:
        raise CutoffTooSmall(
            f"cutoff {_shown(cutoff)} leaves a Poisson tail above 2^-53 at "
            f"|beta0|^2 = {x:g}; the smallest certified cutoff is {needed}")
    if cutoff > SECTOR_GUARD:
        raise SectorTooLarge(f"cutoff {_shown(cutoff)} exceeds the dense guard {SECTOR_GUARD}")
    if x == 0:
        return CoherentOracleResult(
            decoherence_factor_oracle_fock(params, 0, t, tau), 0.0)
    t, times = _time_grid(t, tau)
    log_x = math.log(x)
    value = np.zeros(times.size, dtype=complex)
    for n in range(cutoff + 1):
        w = math.exp(-x + n * log_x - math.lgamma(n + 1.0))
        value += w * _sector_factor(params, n, t, times)
    # cutoff >= min_cutoff(x) >= ceil(x), so cutoff + 2 > x as the bound needs
    tail = _poisson_tail_bound(x, cutoff)
    return CoherentOracleResult(value, tail)
