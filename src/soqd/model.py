"""Shared parameter types, state descriptions, errors and the sweep record.

Everything downstream (propagator, correlation, quadrature, oracle, cli)
imports from here; soqd.cli parses their JSON form.  Units: hbar = 1, so
frequencies and couplings are inverse time and all times are dimensionless.

The three factor methods share one time contract: t and tau in, scalars
or 1-D arrays that broadcast to one grid, and a 1-D complex array out, one
entry per node (length 1 for scalars).  Only _time_grid forms t' = t + tau.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "SimulationError",
    "NonFiniteParameter",
    "NegativeTime",
    "TauUnresolved",
    "UnphysicalFactor",
    "DecoherenceNotReached",
    "EigenFailure",
    "SectorTooLarge",
    "CutoffTooSmall",
    "ConfigError",
    "ToleranceExceeded",
    "TAU_ROUNDING_BUDGET",
    "ModelParams",
    "CoherentState",
    "FockState",
    "ApparatusState",
    "UNIT_BOUND_SLACK",
    "CorrelationPoint",
]


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class SimulationError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteParameter(SimulationError):
    """A model parameter, a measurement time or a sweep coordinate is NaN
    or infinite."""


class NegativeTime(SimulationError):
    """A measurement time is negative."""


class TauUnresolved(SimulationError):
    """t + tau rounds so coarsely at this t that tau is lost: (t + tau) - t
    differs from tau by more than TAU_ROUNDING_BUDGET * |tau|."""


class UnphysicalFactor(SimulationError):
    """A decoherence factor left the unit disk, or a correlation left [0, 1],
    by more than roundoff."""


class DecoherenceNotReached(SimulationError):
    """|F| never fell below threshold inside the search window."""


class EigenFailure(SimulationError):
    """Eigendecomposition of a sector matrix did not converge."""


class SectorTooLarge(SimulationError):
    """Occupation number exceeds the guard for the requested method."""


class CutoffTooSmall(SimulationError):
    """Mixture cutoff whose certified Poisson tail exceeds 2^-53 at the
    requested mean occupation (below oracle.min_cutoff)."""


class ConfigError(SimulationError):
    """A config file, config dict, command-line option or argument is
    malformed or out of range."""


class ToleranceExceeded(SimulationError):
    """Cross-method comparison exceeded its agreement tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Frequencies and couplings of the field/detector system.

    omega1, omega2 are the two field-mode frequencies, d_e and d_g the
    exchange-coupling strengths selected by the excited and ground internal
    states, and omega_e the internal transition frequency.  Raises
    NonFiniteParameter, naming each offending field, for NaN or infinite
    values.
    """

    omega1: float
    omega2: float
    d_e: float
    d_g: float
    omega_e: float

    def __post_init__(self):
        bad = [f.name for f in fields(self) if not math.isfinite(getattr(self, f.name))]
        if bad:
            raise NonFiniteParameter(f"non-finite model parameters: {', '.join(bad)}")


#: largest relative error in tau that forming t' = t + tau may introduce;
#: past it the grid no longer resolves tau at that t (t = 1e17 turns every
#: tau below 8 into 0 or 16)
TAU_ROUNDING_BUDGET = 1e-8


def _time_grid(t, tau):
    """(t, t + tau) as a scalar or 1-D t and a 1-D t', checked.

    A scalar ``t`` stays scalar, so the propagators before t' enters act
    on one column only.  Raises ConfigError when t and tau do not
    broadcast to one scalar or 1-D grid, then NonFiniteParameter, naming
    the first NaN or infinite entry of t, else of tau, before any
    arithmetic, then NegativeTime, naming the lowest time, where t or t' is
    below 0, then TauUnresolved, naming the first lost entry, where
    |(t' - t) - tau| > TAU_ROUNDING_BUDGET * |tau|.
    """
    t, tau = np.asarray(t, dtype=float), np.asarray(tau, dtype=float)
    if max(t.ndim, tau.ndim) > 1 or 1 not in (t.size, tau.size) and t.size != tau.size:
        raise ConfigError(f"t and tau must be scalars or 1-D and broadcast, got shapes "
                          f"{t.shape} and {tau.shape}")
    for name, x in (("t", t), ("tau", tau)):
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            where = f"[{bad[0]}]" if x.ndim else ""
            raise NonFiniteParameter(
                f"{name}{where} = {float(x.reshape(-1)[bad[0]])!r} is not a finite time")
    with np.errstate(over="ignore"):  # a t' past the float range is lost below
        t_prime = (t + tau).reshape(-1)
    low = float(min(np.min(t, initial=0.0), np.min(t_prime, initial=0.0)))
    if low < 0:
        raise NegativeTime(f"measurement times must be >= 0, got {low!r}")
    lost = np.flatnonzero(np.abs((t_prime - t) - tau) > TAU_ROUNDING_BUDGET * np.abs(tau))
    if lost.size:
        t0, tau0 = (float(np.broadcast_to(x, t_prime.shape)[lost[0]]) for x in (t, tau))
        raise TauUnresolved(
            f"tau = {tau0!r} is lost at t = {t0!r}: (t + tau) - t = "
            f"{(t0 + tau0) - t0!r}, beyond the relative budget {TAU_ROUNDING_BUDGET:g}")
    return (float(t) if t.ndim == 0 else np.broadcast_to(t, t_prime.shape)), t_prime


# ---------------------------------------------------------------------------
# apparatus preparations
# ---------------------------------------------------------------------------

def _shown(value) -> str:
    """repr of ``value``; an int past 64 bits, which str() may refuse, by sign and bit length."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    return repr(value)


@dataclass(frozen=True)
class CoherentState:
    """Product coherent preparation (alpha0 in mode 1, beta0 in mode 2).

    Raises ConfigError unless 4(|alpha0|^2 + |beta0|^2), which bounds
    |D z0|^2 as ||D|| <= 2 for unitary M, is a finite float."""

    alpha0: complex
    beta0: complex

    def __post_init__(self):
        bound = 4 * sum(z.real * z.real + z.imag * z.imag for z in (self.alpha0, self.beta0))
        if not math.isfinite(bound):
            raise ConfigError(f"coherent amplitudes give 4(|alpha0|^2 + |beta0|^2) = {bound}, "
                              "not a finite float")


#: largest n for which n * log|F| and n * arg F are finite floats:
#: |log|F|| / n = |log1p(x)| / 2 <= 26.5 ln 2, as u = 1 + x is 0 or at
#: least 2^-53, and |arg F| / n <= pi is smaller
_FOCK_CEILING = int(np.finfo(float).max / (26.5 * math.log(2)))


@dataclass(frozen=True)
class FockState:
    """Number-state preparation: mode 1 empty, n quanta in mode 2.

    Raises ConfigError unless n is an int in [0, _FOCK_CEILING].
    """

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise ConfigError(f"occupation must be a non-negative integer, got {_shown(self.n)}")
        if self.n > _FOCK_CEILING:
            raise ConfigError(f"occupation exceeds {_FOCK_CEILING:.6g}, the largest whose "
                              "log|F| is a finite float")


ApparatusState = CoherentState | FockState


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

#: roundoff allowed past the physical bounds |f| <= 1 and 0 <= g <= 1
UNIT_BOUND_SLACK = 1e-9


def _check_unit_disk(f: np.ndarray) -> None:
    """Raise UnphysicalFactor, naming the worst entry, if any |f| exceeds 1
    by more than UNIT_BOUND_SLACK (NaN included)."""
    abs_f = np.hypot(f.real, f.imag)
    bad = ~(abs_f <= 1 + UNIT_BOUND_SLACK)
    if bad.any():
        # np.max propagates NaN, so a NaN entry is reported first
        raise UnphysicalFactor(f"|f| = {np.max(abs_f[bad])} exceeds 1 beyond roundoff")


@dataclass(frozen=True, eq=False)
class CorrelationPoint:
    """Sweep samples as columns: decoherence factor f and correlation g
    at (t, tau).

    t, tau (float), f (complex) and g (float) are equal-length 1-D
    arrays, one entry per row; scalars are stored as the length-1 case,
    and len() is the row count.  Sweeps come out t-major with tau
    ascending.  Raises NonFiniteParameter, naming the first bad entry,
    when a t or tau is NaN or infinite; UnphysicalFactor, naming the worst
    entry, when any f or g leaves its physical range by more than
    UNIT_BOUND_SLACK (NaN included); and ConfigError when the columns differ
    in length.
    """

    t: np.ndarray
    tau: np.ndarray
    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        shapes = []
        for name, dtype in (("t", float), ("tau", float), ("f", complex), ("g", float)):
            column = np.atleast_1d(np.asarray(getattr(self, name), dtype=dtype))
            object.__setattr__(self, name, column)
            shapes.append(column.shape)
        if len(set(shapes)) != 1 or len(shapes[0]) != 1:
            raise ConfigError(f"t, tau, f and g must be 1-D and of one length, got shapes {shapes}")
        for name in ("t", "tau"):
            column = getattr(self, name)
            bad = np.flatnonzero(~np.isfinite(column))
            if bad.size:
                raise NonFiniteParameter(f"{name}[{bad[0]}] = {column[bad[0]]} is not finite")
        _check_unit_disk(self.f)
        bad = ~((self.g >= -UNIT_BOUND_SLACK) & (self.g <= 1 + UNIT_BOUND_SLACK))
        if bad.any():
            # farthest from [0, 1]; argmax picks a NaN entry first
            worst = self.g[bad][np.argmax(np.abs(self.g[bad] - 0.5))]
            raise UnphysicalFactor(f"g = {worst} outside [0, 1] beyond roundoff")

    def __len__(self) -> int:
        return self.t.size
