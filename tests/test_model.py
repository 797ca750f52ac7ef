"""Parameter validation, config parsing, result bounds."""

import dataclasses
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from soqd import (
    CoherentState,
    ConfigError,
    FockState,
    ModelParams,
    NegativeTime,
    NonFiniteParameter,
    TauUnresolved,
    UnphysicalFactor,
    apparatus_from_json,
    decoherence_factor_fock_quadrature,
    decoherence_factor_oracle_coherent,
    decoherence_factor_oracle_fock,
    factor_over_tau,
    model_params_from_json,
)
from soqd.cli import FIGURE_PARAMS
from soqd.model import CorrelationPoint
from soqd.oracle import min_cutoff


@pytest.mark.parametrize("field", ["omega1", "omega2", "d_e", "d_g", "omega_e"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_rejects_non_finite(preset_params, field, bad):
    """ModelParams checks itself: no non-finite instance can exist."""
    with pytest.raises(NonFiniteParameter, match=field):
        ModelParams(**{**dataclasses.asdict(preset_params), field: bad})


def test_params_json_round_trip(preset_params):
    assert model_params_from_json(dataclasses.asdict(preset_params)) == preset_params


def test_params_json_rejects_unknown_keys(preset_params):
    obj = dataclasses.asdict(preset_params)
    obj["omega3"] = 1.0
    with pytest.raises(ConfigError, match="omega3"):
        model_params_from_json(obj)


def test_params_json_requires_all_keys():
    with pytest.raises(ConfigError, match="missing"):
        model_params_from_json({"omega1": 0.2})


def test_params_json_rejects_non_numbers(preset_params):
    obj = dataclasses.asdict(preset_params)
    obj["d_e"] = "0.8"
    with pytest.raises(ConfigError):
        model_params_from_json(obj)


@pytest.mark.parametrize("bad", [-1, 2.5, True])
def test_fock_state_rejects_bad_occupation(bad):
    with pytest.raises(ConfigError, match="non-negative integer"):
        FockState(bad)


def test_fock_round_trip():
    assert apparatus_from_json({"kind": "fock", "n": 17}) == FockState(17)


def test_coherent_round_trip_exact_amplitudes():
    state = apparatus_from_json(
        {"kind": "coherent", "alpha0": [0.25, -1.5], "beta0": [math.sqrt(10), 0.0]})
    assert state == CoherentState(0.25 - 1.5j, complex(math.sqrt(10)))


def test_coherent_shorthand_places_sqrt_n_in_mode_2():
    state = apparatus_from_json({"kind": "coherent", "n": 10})
    assert state == CoherentState(0j, complex(math.sqrt(10)))


def test_apparatus_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        apparatus_from_json({"kind": "fock", "n": 3, "m": 1})


def test_apparatus_rejects_bad_kind():
    with pytest.raises(ConfigError, match="kind"):
        apparatus_from_json({"kind": "thermal", "n": 3})


def test_apparatus_rejects_mixed_coherent_spelling():
    with pytest.raises(ConfigError, match="not both"):
        apparatus_from_json({"kind": "coherent", "n": 2, "beta0": [1, 0], "alpha0": [0, 0]})


def test_apparatus_rejects_fractional_fock():
    with pytest.raises(ConfigError):
        apparatus_from_json({"kind": "fock", "n": 2.5})


finite_amp = st.floats(min_value=-1e6, max_value=1e6,
                       allow_nan=False, allow_infinity=False)


@given(re_a=finite_amp, im_a=finite_amp, re_b=finite_amp, im_b=finite_amp)
def test_coherent_serialization_round_trips_bit_exactly(re_a, im_a, re_b, im_b):
    state = apparatus_from_json(
        {"kind": "coherent", "alpha0": [re_a, im_a], "beta0": [re_b, im_b]})
    parts = [state.alpha0.real, state.alpha0.imag, state.beta0.real, state.beta0.imag]
    assert [x.hex() for x in parts] == [x.hex() for x in (re_a, im_a, re_b, im_b)]


@given(n=st.integers(min_value=0, max_value=10**9))
def test_fock_serialization_round_trips_bit_exactly(n):
    assert apparatus_from_json({"kind": "fock", "n": n}) == FockState(n)


def test_correlation_point_accepts_physical_values():
    point = CorrelationPoint(t=0.0, tau=1.0, f=0.3 - 0.4j, g=0.75)
    assert len(point) == 1
    assert point.f.dtype == complex and point.f.shape == (1,)
    assert point.g.dtype == float and point.g.shape == (1,)


def test_correlation_point_holds_equal_length_columns():
    taus = np.linspace(0.0, 1.0, 5)
    points = CorrelationPoint(np.zeros(5), taus, np.full(5, 0.5j), np.full(5, 0.5))
    assert len(points) == 5
    with pytest.raises(ConfigError, match="one length"):
        CorrelationPoint(np.zeros(5), taus, np.full(4, 0.5j), np.full(5, 0.5))
    with pytest.raises(ConfigError, match="1-D"):
        CorrelationPoint(np.zeros((1, 5)), taus[None], np.full((1, 5), 0.5j),
                         np.full((1, 5), 0.5))


def test_correlation_point_names_the_worst_row():
    f = np.array([0.5, 1.2, 1.7j, 0.0])
    with pytest.raises(UnphysicalFactor, match=r"\|f\| = 1\.7 "):
        CorrelationPoint(np.zeros(4), np.arange(4.0), f, np.full(4, 0.5))
    g = np.array([0.5, -0.25, 1.5, 1.0])
    with pytest.raises(UnphysicalFactor, match=r"g = 1\.5 "):
        CorrelationPoint(np.zeros(4), np.arange(4.0), np.zeros(4), g)
    g[1] = math.nan
    with pytest.raises(UnphysicalFactor, match="g = nan"):
        CorrelationPoint(np.zeros(4), np.arange(4.0), np.zeros(4), g)


def test_correlation_point_names_the_first_non_finite_time():
    with pytest.raises(NonFiniteParameter, match=r"^t\[1\] = nan is not finite"):
        CorrelationPoint([0.0, math.nan, math.inf], np.arange(3.0), np.zeros(3),
                         np.full(3, 0.5))
    with pytest.raises(NonFiniteParameter, match=r"^tau\[2\] = -inf is not finite"):
        CorrelationPoint(np.zeros(3), [0.0, 1.0, -math.inf], np.zeros(3), np.full(3, 0.5))
    with pytest.raises(NonFiniteParameter, match=r"^t\[0\] = nan"):
        CorrelationPoint([math.nan], [math.inf], [0.5], [0.5])


def test_correlation_point_rejects_oversized_factor():
    with pytest.raises(UnphysicalFactor):
        CorrelationPoint(t=0.0, tau=1.0, f=1.5 + 0j, g=0.5)


@pytest.mark.parametrize("g", [-0.1, 1.1, math.nan])
def test_correlation_point_rejects_out_of_range_g(g):
    with pytest.raises(UnphysicalFactor):
        CorrelationPoint(t=0.0, tau=1.0, f=0j, g=g)


def test_correlation_point_check_survives_optimize():
    """``python -O`` strips asserts; the bound check must not be one."""
    script = (
        "from soqd.model import CorrelationPoint, UnphysicalFactor\n"
        "try:\n"
        "    CorrelationPoint(t=0.0, tau=1.0, f=1.5 + 0j, g=0.5)\n"
        "except UnphysicalFactor:\n"
        "    raise SystemExit(7)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 7, proc.stderr


# ---------------------------------------------------------------------------
# the time contract of the three factor methods
# ---------------------------------------------------------------------------

#: each factor method as (t, tau) -> one complex per grid node
METHODS = {
    "closed": lambda t, tau: factor_over_tau(FIGURE_PARAMS, FockState(3), t, tau),
    "quadrature": lambda t, tau: decoherence_factor_fock_quadrature(FIGURE_PARAMS, 3, t, tau),
    "oracle_fock": lambda t, tau: decoherence_factor_oracle_fock(FIGURE_PARAMS, 3, t, tau),
    "oracle_coherent": lambda t, tau: decoherence_factor_oracle_coherent(
        FIGURE_PARAMS, 1.0 + 0j, t, tau, min_cutoff(1.0)).value,
}


@pytest.mark.parametrize("method", METHODS)
def test_every_method_returns_a_1d_array(method):
    for tau, size in ((2.0, 1), ([2.0], 1), (np.linspace(0.0, 2.0, 5), 5), ([], 0)):
        f = METHODS[method](10.0, tau)
        assert f.shape == (size,) and f.dtype == complex, (tau, f)


@pytest.mark.parametrize("method", METHODS)
def test_every_method_refuses_a_tau_lost_to_rounding(method):
    """At t = 1e17 the doubles lie 16 apart, so t + 0.5 rounds to t: each
    method refuses at its own entry instead of returning F(t, t) = 1."""
    with pytest.raises(TauUnresolved, match=r"tau = 0\.5 is lost at t = 1e\+17"):
        METHODS[method](1e17, 0.5)
    with pytest.raises(TauUnresolved, match=r"tau = 0\.5 is lost at t = 1e\+17"):
        METHODS[method](1e17, [0.0, 0.5, 16.0])


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("t, tau", [(-1.0, [0.5]), (0.0, [0.5, -1.0]), (1e17, [0.5, -2e17])])
def test_every_method_refuses_a_negative_time_first(method, t, tau):
    """A negative t or t + tau is NegativeTime, also where another tau of
    the grid is lost to rounding (the last case)."""
    with pytest.raises(NegativeTime):
        METHODS[method](t, tau)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_method_refuses_a_non_finite_time(method, bad):
    """A NaN or infinite t or tau is NonFiniteParameter, naming the first
    bad entry, before any arithmetic could warn or return NaN."""
    cases = [((bad, [1.0]), rf"^t = {bad!r}"), ((1.0, bad), rf"^tau(\[0\])? = {bad!r}"),
             ((1.0, [0.5, bad, bad]), rf"^tau\[1\] = {bad!r}"),
             (([1.0, bad], [bad, 2.0]), rf"^t\[1\] = {bad!r}")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (t, tau), message in cases:
            with pytest.raises(NonFiniteParameter, match=message):
                METHODS[method](t, tau)


def test_every_method_refuses_times_that_make_no_1d_grid():
    """Two dimensions, or two 1-D lengths that do not broadcast, are a
    ConfigError, not numpy's bare ValueError."""
    for method in ("quadrature", "oracle_fock", "oracle_coherent"):
        with pytest.raises(ConfigError, match="scalars or 1-D"):
            METHODS[method](np.zeros((2, 1)), np.zeros(3))
        with pytest.raises(ConfigError, match=r"got shapes \(3,\) and \(2,\)"):
            METHODS[method](np.zeros(3), np.zeros(2))
    with pytest.raises(ConfigError, match="scalars or 1-D"):
        METHODS["closed"](0.0, np.zeros((2, 2)))


@pytest.mark.parametrize("t", [0.0, 10.0])
def test_a_length_one_quadrature_call_has_the_bits_of_its_grid_entry(t):
    """The quadrature's arithmetic is elementwise per (t, tau) node, also
    across its node blocks, so a scalar call is its grid entry bit for bit."""
    taus = np.linspace(0.0, 6.0, 301)
    grid = METHODS["quadrature"](t, taus)
    for i in (0, 1, 150, 255, 256, 300):
        single = METHODS["quadrature"](t, taus[i])
        assert single.view(np.uint64).tolist() == grid[i:i + 1].view(np.uint64).tolist(), i


#: the oracle at a large sector and as a mixture, with the largest sector dimension
ORACLES = {
    "fock160": (lambda t, tau: decoherence_factor_oracle_fock(FIGURE_PARAMS, 160, t, tau), 161),
    "coherent10": (lambda t, tau: decoherence_factor_oracle_coherent(
        FIGURE_PARAMS, complex(math.sqrt(10.0)), t, tau, min_cutoff(10.0)).value,
        min_cutoff(10.0) + 1),
}


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("t", [0.0, 10.0])
def test_a_length_one_oracle_call_matches_its_grid_entry(oracle, t):
    """The oracle's products go to BLAS, whose kernels promise no bits from
    one column count to another: a scalar call and its entry in a 301-tau
    grid differed by up to 6.7e-16 (fock160) and 2.2e-16 (coherent10)
    under the SkylakeX, Haswell, Zen, SandyBridge and Prescott OpenBLAS
    kernels.  The bound is the one of the oracle's _evolve test,
    1e-15 sqrt(sector dimension), at the largest sector."""
    method, dimension = ORACLES[oracle]
    taus = np.linspace(0.0, 6.0, 301)
    grid = method(t, taus)
    for i in (0, 1, 150, 255, 256, 300):
        single = method(t, taus[i])
        assert single.shape == (1,)
        assert abs(single[0] - grid[i]) <= 1e-15 * math.sqrt(dimension), i
