"""Shared parameter types, state descriptions, errors and the sweep record.

Everything downstream (propagator, correlation, quadrature, oracle, cli)
imports from here; soqd.cli parses their JSON form.  Units: hbar = 1, so
frequencies and couplings are inverse time and all times are dimensionless.

The three factor methods share one time contract: t and tau in, scalars
or 1-D arrays that broadcast to one grid, and a 1-D complex array out, one
entry per node (length 1 for scalars).  Only _time_grid forms t' = t + tau.
"""

import math
import numbers
import sys
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

def _shown(value) -> str:
    """repr of ``value``; an int past 64 bits, which str() may refuse, by sign and bit length."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    return repr(value)


@dataclass(frozen=True)
class ModelParams:
    """Frequencies and couplings of the field/detector system.

    omega1, omega2 are the two field-mode frequencies, d_e and d_g the
    exchange-coupling strengths selected by the excited and ground internal
    states, and omega_e the internal transition frequency.  Raises
    ConfigError, naming each offending field, for a bool or a value that is
    not a real number, then NonFiniteParameter, naming each, for NaN, an
    infinity or an int past the float range.
    """

    omega1: float
    omega2: float
    d_e: float
    d_g: float
    omega_e: float

    def __post_init__(self):
        values = [(f.name, getattr(self, f.name)) for f in fields(self)]
        wrong = [k for k, v in values if isinstance(v, bool) or not isinstance(v, numbers.Real)]
        if wrong:
            raise ConfigError(f"model parameters must be real numbers: {', '.join(wrong)}")
        bad = [k for k, v in values if not abs(v) <= sys.float_info.max]
        if bad:
            raise NonFiniteParameter(f"non-finite model parameters: {', '.join(bad)}")


#: largest relative error in tau that forming t' = t + tau may introduce;
#: past it the grid no longer resolves tau at that t (t = 1e17 turns every
#: tau below 8 into 0 or 16)
TAU_ROUNDING_BUDGET = 1e-8


def _finite_floats(value, name: str) -> np.ndarray:
    """``value``, a real number or an array of them, as a float array.

    Raises ConfigError for anything else (a str, a complex, None), then
    NonFiniteParameter, naming the first bad entry by _shown, for NaN, an
    infinity or an int past the float range, compared without converting it.
    """
    x = np.asarray(value)
    big = x.dtype.kind == "O"  # ints past 64 bits: compare each entry, not its float
    if x.dtype.kind not in "biufO" or big and not all(isinstance(v, numbers.Real) for v in x.flat):
        raise ConfigError(f"{name} must be real numbers, got {type(value).__name__}")
    floats = np.array([v if abs(v) <= sys.float_info.max else math.inf for v in x.flat],
                      float).reshape(x.shape) if big else x.astype(float, copy=False)
    bad = np.flatnonzero(~np.isfinite(floats))
    if bad.size:
        entry = f"{name}[{bad[0]}]" if x.ndim else name
        raise NonFiniteParameter(f"{entry} = {_shown(x.item(bad[0]))} is not finite as a float")
    return floats


def _time_grid(t, tau):
    """(t, t + tau) as a scalar or 1-D t and a 1-D t', checked.

    A scalar ``t`` stays scalar, so the propagators before t' enters act
    on one column only.  Raises _finite_floats's ConfigError and
    NonFiniteParameter for t, else for tau, then ConfigError when they do
    not broadcast to one scalar or 1-D grid, then NegativeTime, naming the
    lowest time, where t or t' is below 0, then TauUnresolved, naming the
    first lost entry, where |(t' - t) - tau| > TAU_ROUNDING_BUDGET * |tau|.
    """
    t, tau = _finite_floats(t, "t"), _finite_floats(tau, "tau")
    if max(t.ndim, tau.ndim) > 1 or 1 not in (t.size, tau.size) and t.size != tau.size:
        raise ConfigError(f"t and tau must be scalars or 1-D and broadcast, got shapes "
                          f"{t.shape} and {tau.shape}")
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

@dataclass(frozen=True)
class CoherentState:
    """Product coherent preparation (alpha0 in mode 1, beta0 in mode 2).

    Raises ConfigError, naming the amplitude by _shown, for one that is not
    a number or whose |re| + |im| is past the float range (an int is
    compared without converting it), then unless 4(|alpha0|^2 + |beta0|^2),
    which bounds |D z0|^2 as ||D|| <= 2 for unitary M, is a finite float."""

    alpha0: complex
    beta0: complex

    def __post_init__(self):
        for z in (self.alpha0, self.beta0):
            if not isinstance(z, numbers.Complex) or abs(z.real) + abs(z.imag) > sys.float_info.max:
                raise ConfigError(f"coherent amplitude {_shown(z)} is not a number in float range")
        bound = 4 * sum(z.real * z.real + z.imag * z.imag
                        for z in map(complex, (self.alpha0, self.beta0)))
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
    ascending.  Raises _finite_floats's ConfigError and NonFiniteParameter
    for t, then for tau; ConfigError when the columns differ in length; and
    UnphysicalFactor, naming the worst entry, when any f or g leaves its
    physical range by more than UNIT_BOUND_SLACK (NaN included).
    """

    t: np.ndarray
    tau: np.ndarray
    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        columns = {"t": _finite_floats(self.t, "t"), "tau": _finite_floats(self.tau, "tau"),
                   "f": np.asarray(self.f, dtype=complex), "g": np.asarray(self.g, dtype=float)}
        for name, column in columns.items():
            object.__setattr__(self, name, np.atleast_1d(column))
        shapes = [getattr(self, name).shape for name in columns]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1:
            raise ConfigError(f"t, tau, f and g must be 1-D and of one length, got shapes {shapes}")
        _check_unit_disk(self.f)
        bad = ~((self.g >= -UNIT_BOUND_SLACK) & (self.g <= 1 + UNIT_BOUND_SLACK))
        if bad.any():
            # farthest from [0, 1]; argmax picks a NaN entry first
            worst = self.g[bad][np.argmax(np.abs(self.g[bad] - 0.5))]
            raise UnphysicalFactor(f"g = {worst} outside [0, 1] beyond roundoff")

    def __len__(self) -> int:
        return self.t.size
