"""Simulator for second-order decoherence of a two-mode boson field.

A two-level system is read out by a two-oscillator detector; the detector
field picks up which-path information through a state-dependent exchange
coupling, and the visibility of the second-order interference fringe decays
accordingly.  The package evaluates that decay three independent ways
(closed-form 2x2 mode transforms, phase-space quadrature, dense sector
products) and ships a CLI around them.

The package namespace holds the error taxonomy, each method's entry point
and what the CLI and the quick start use; everything else is imported from
its module (soqd.model, soqd.propagator, soqd.correlation, soqd.quadrature,
soqd.oracle, soqd.cli).
"""

from .model import (
    CoherentState,
    ConfigError,
    CutoffTooSmall,
    DecoherenceNotReached,
    EigenFailure,
    FockState,
    ModelParams,
    NegativeTime,
    NonFiniteParameter,
    SectorTooLarge,
    SimulationError,
    TauUnresolved,
    ToleranceExceeded,
    UnphysicalFactor,
)
from .correlation import decoherence_time, factor_over_tau, g2_interacting
from .quadrature import decoherence_factor_fock_quadrature
from .oracle import decoherence_factor_oracle_coherent, decoherence_factor_oracle_fock
from .cli import (SweepConfig, apparatus_from_json, compare_methods, main,
                  model_params_from_json, read_points_csv, run_sweep)

__version__ = "0.1.0"
