"""Parameter validation, apparatus serialization, result bounds."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from soqd import (
    CoherentState,
    ConfigError,
    FockState,
    ModelParams,
    NonFiniteParameter,
    UnphysicalFactor,
    apparatus_from_json,
    model_params_from_json,
)
from soqd.model import (
    CorrelationPoint,
    apparatus_to_json,
    model_params_to_json,
)


@pytest.mark.parametrize("field", ["omega1", "omega2", "d_e", "d_g", "omega_e"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_rejects_non_finite(preset_params, field, bad):
    """ModelParams checks itself: no non-finite instance can exist."""
    with pytest.raises(NonFiniteParameter, match=field):
        ModelParams(**{**model_params_to_json(preset_params), field: bad})


def test_params_json_round_trip(preset_params):
    assert model_params_from_json(model_params_to_json(preset_params)) == preset_params


def test_params_json_rejects_unknown_keys(preset_params):
    obj = model_params_to_json(preset_params)
    obj["omega3"] = 1.0
    with pytest.raises(ConfigError, match="omega3"):
        model_params_from_json(obj)


def test_params_json_requires_all_keys():
    with pytest.raises(ConfigError, match="missing"):
        model_params_from_json({"omega1": 0.2})


def test_params_json_rejects_non_numbers(preset_params):
    obj = model_params_to_json(preset_params)
    obj["d_e"] = "0.8"
    with pytest.raises(ConfigError):
        model_params_from_json(obj)


@pytest.mark.parametrize("bad", [-1, 2.5, True])
def test_fock_state_rejects_bad_occupation(bad):
    with pytest.raises(ConfigError, match="non-negative integer"):
        FockState(bad)


def test_fock_round_trip():
    state = FockState(17)
    assert apparatus_from_json(apparatus_to_json(state)) == state


def test_coherent_round_trip_exact_amplitudes():
    state = CoherentState(0.25 - 1.5j, complex(math.sqrt(10)))
    assert apparatus_from_json(apparatus_to_json(state)) == state


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
    state = CoherentState(complex(re_a, im_a), complex(re_b, im_b))
    back = apparatus_from_json(apparatus_to_json(state))
    assert back.alpha0 == state.alpha0 and back.beta0 == state.beta0


@given(n=st.integers(min_value=0, max_value=10**9))
def test_fock_serialization_round_trips_bit_exactly(n):
    assert apparatus_from_json(apparatus_to_json(FockState(n))) == FockState(n)


def test_correlation_point_accepts_physical_values():
    point = CorrelationPoint(t=0.0, tau=1.0, f=0.3 - 0.4j, g=0.75)
    assert len(point) == 1
    assert point.f.dtype == complex and point.f.shape == (1,)
    assert point.g.dtype == float and point.g.shape == (1,)


def test_correlation_point_holds_equal_length_columns():
    taus = np.linspace(0.0, 1.0, 5)
    points = CorrelationPoint(np.zeros(5), taus, np.full(5, 0.5j), np.full(5, 0.5))
    assert len(points) == 5
    with pytest.raises(ValueError, match="one length"):
        CorrelationPoint(np.zeros(5), taus, np.full(4, 0.5j), np.full(5, 0.5))
    with pytest.raises(ValueError, match="1-D"):
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
