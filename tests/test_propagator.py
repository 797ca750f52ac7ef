"""Schedule table and closed-form vs integrated mode transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soqd import ModelParams, NegativeTime
from soqd.propagator import _schedule_product, _schedule_rows, transform_over_tau

coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
span = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def _random_params(rng):
    w1, w2, de, dg = rng.uniform(-2, 2, size=4)
    return ModelParams(w1, w2, de, dg, omega_e=1.0)


def step_transform(a1, a2, b, d):
    """Closed-form transform of one (alpha1, alpha2, beta, duration) step."""
    return _schedule_product([(a1, a2, b, d)])


def step_transform_ode(a1, a2, b, d, dt=1e-3):
    """The same step integrated numerically: the independent cross-check.

    Classical fixed-step 4th-order Runge-Kutta applied to the matrix system
    i dM/dt = H M, M(0) = I.  For a constant linear right-hand side the four
    RK stages collapse exactly to the quartic Taylor map
    R = sum_{j<=4} (-i*h*H)^j / j!, so n identical steps compose to R**n;
    the matrix power is bit-for-bit the sequential iteration up to
    float associativity.
    """
    if d == 0:
        return np.eye(2, dtype=complex)
    n = max(1, math.ceil(d / dt))
    x = -1j * (d / n) * np.array([[a1, b], [b, a2]], dtype=complex)
    one_step = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for j in (1, 2, 3, 4):
        term = term @ x / j
        one_step = one_step + term
    return np.linalg.matrix_power(one_step, n)


def unitarity_defect(m):
    """Max-norm of M^dagger M - I over a stack of 2x2 transforms."""
    m = np.asarray(m)
    return float(np.max(np.abs(np.conj(np.swapaxes(m, -1, -2)) @ m - np.eye(2))))


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_schedule_couplings_and_durations(preset_params):
    rows = _schedule_rows(preset_params, t=10.0, t_prime=12.0)
    assert [b for _, _, b, _ in rows] == [1.0, -0.8, 0.8, -0.2, 0.2, -1.0]
    assert [d for _, _, _, d in rows] == [10.0, 10.0, 12.0, 12.0, 10.0, 10.0]
    assert all(a1 == math.copysign(0.2, b) for a1, _, b, _ in rows)


def test_schedule_zero_t_keeps_only_middle_steps(preset_params):
    rows = _schedule_rows(preset_params, t=0.0, t_prime=5.0)
    assert [d for _, _, _, d in rows] == [0.0, 0.0, 5.0, 5.0, 0.0, 0.0]


def test_schedule_rejects_negative_times(preset_params):
    """The schedule is only reached through t' = t + tau, which refuses
    a negative t or t'."""
    with pytest.raises(NegativeTime, match=r"got -1\.0"):
        transform_over_tau(preset_params, -1.0, [1.0])
    with pytest.raises(NegativeTime, match=r"got -2\.0"):
        transform_over_tau(preset_params, 0.0, [-2.0])


def test_step6_is_step1_negated(rng):
    for _ in range(25):
        params = _random_params(rng)
        t, tp = rng.uniform(0, 10, size=2)
        rows = _schedule_rows(params, t, tp)
        (a1, a2, b, d), (c1, c2, c, e) = rows[0], rows[5]
        assert (c1, c2, c) == (-a1, -a2, -b)
        assert e == d


def test_schedule_shares_couplings_pairwise(preset_params):
    betas = [b for _, _, b, _ in _schedule_rows(preset_params, 1.0, 2.0)]
    assert abs(betas[1]) == abs(betas[2]) == preset_params.d_e
    assert abs(betas[3]) == abs(betas[4]) == preset_params.d_g


# ---------------------------------------------------------------------------
# precession rate gamma = sqrt(((alpha2 - alpha1)/2)^2 + beta^2): half a
# precession period pi/gamma turns a step into -exp(-i(alpha1+alpha2)d/2) I
# ---------------------------------------------------------------------------

def _half_period_defect(a1, a2, b, rate):
    d = math.pi / rate
    want = -np.exp(-0.5j * (a1 + a2) * d) * np.eye(2)
    return float(np.max(np.abs(step_transform(a1, a2, b, d) - want)))


def test_gamma_mixed_detuning_and_coupling():
    assert _half_period_defect(0.2, 1.3, 1.0, math.sqrt(0.55**2 + 1.0)) <= 1e-15


def test_gamma_reduces_to_half_detuning_without_coupling():
    assert _half_period_defect(-1.0, 2.0, 0.0, 1.5) <= 1e-15


def test_gamma_reduces_to_coupling_on_resonance():
    assert _half_period_defect(0.7, 0.7, -0.4, 0.4) <= 1e-15


# ---------------------------------------------------------------------------
# single-step transform
# ---------------------------------------------------------------------------

def test_step_transform_zero_duration_is_identity():
    m = step_transform(0.3, -1.2, 0.9, 0.0)
    assert np.array_equal(m, np.eye(2, dtype=complex))


def test_step_transform_without_coupling_is_diagonal():
    m = step_transform(0.4, -0.9, 0.0, 2.5)
    assert m[0, 1] == 0 and m[1, 0] == 0
    assert m[0, 0] == pytest.approx(np.exp(-1j * 0.4 * 2.5), abs=1e-14)
    assert m[1, 1] == pytest.approx(np.exp(-1j * -0.9 * 2.5), abs=1e-14)


def test_step_transform_degenerate_rate_stays_finite():
    # alpha1 == alpha2 and beta == 0 makes the precession rate exactly zero
    m = step_transform(0.7, 0.7, 0.0, 3.0)
    assert np.all(np.isfinite(m.view(float)))
    assert m[0, 0] == pytest.approx(np.exp(-1j * 0.7 * 3.0), abs=1e-14)
    assert m[0, 1] == 0


def test_step_transform_continuous_as_coupling_vanishes():
    strong = step_transform(0.5, 0.5, 1e-12, 4.0)
    none = step_transform(0.5, 0.5, 0.0, 4.0)
    assert np.max(np.abs(strong - none)) < 1e-9


@settings(max_examples=200)
@given(a1=coeff, a2=coeff, b=coeff, d=span)
def test_step_transform_is_unitary(a1, a2, b, d):
    assert unitarity_defect(step_transform(a1, a2, b, d)) <= 1e-10


@settings(max_examples=100)
@given(a1=coeff, a2=coeff, b=coeff, d1=span, d2=span)
def test_step_transform_group_property(a1, a2, b, d1, d2):
    whole = step_transform(a1, a2, b, d1 + d2)
    halves = step_transform(a1, a2, b, d2) @ step_transform(a1, a2, b, d1)
    assert np.max(np.abs(whole - halves)) <= 1e-10


def test_inverse_pairing_of_outer_steps(rng):
    for _ in range(50):
        rows = _schedule_rows(_random_params(rng), *rng.uniform(0, 10, size=2))
        m1, m6 = step_transform(*rows[0]), step_transform(*rows[5])
        assert np.max(np.abs(m6 @ m1 - np.eye(2))) <= 1e-10


# ---------------------------------------------------------------------------
# integrated cross-check
# ---------------------------------------------------------------------------

def test_ode_zero_duration_is_identity():
    assert step_transform_ode(0.1, 0.2, 0.3, 0.0) == pytest.approx(np.eye(2))


def test_ode_matches_closed_form_on_preset(preset_params):
    for row in _schedule_rows(preset_params, 1.0, 10.0):
        delta = np.abs(step_transform_ode(*row) - step_transform(*row))
        assert np.max(delta) <= 1e-8


def test_ode_matches_closed_form_random(rng):
    for _ in range(50):
        a1, a2, b = rng.uniform(-2, 2, size=3)
        d = float(rng.uniform(0, 10))
        delta = np.abs(step_transform_ode(a1, a2, b, d) - step_transform(a1, a2, b, d))
        assert np.max(delta) <= 1e-8


def test_ode_converges_with_step_refinement():
    exact = step_transform(0.2, 1.3, 1.0, 3.0)
    err = [np.max(np.abs(step_transform_ode(0.2, 1.3, 1.0, 3.0, dt) - exact))
           for dt in (1e-1, 1e-2)]
    # classical 4th order: a 10x finer step should gain ~1e4
    assert err[1] < err[0] * 1e-3


# ---------------------------------------------------------------------------
# composition over a tau grid
# ---------------------------------------------------------------------------

def test_compose_trivial_schedule_is_identity(preset_params):
    m = transform_over_tau(preset_params, 0.0, [0.0])[0]
    assert m == pytest.approx(np.eye(2), abs=0)


def test_compose_identity_when_measurement_times_coincide(rng):
    for _ in range(50):
        params = _random_params(rng)
        m = transform_over_tau(params, float(rng.uniform(0, 10)), [0.0])[0]
        assert np.max(np.abs(m - np.eye(2))) <= 1e-9


def test_compose_identity_for_equal_couplings(rng):
    for _ in range(50):
        w1, w2, d = rng.uniform(-2, 2, size=3)
        params = ModelParams(w1, w2, d, d, omega_e=1.0)
        t, tp = rng.uniform(0, 10, size=2)
        m = transform_over_tau(params, t, [tp - t])[0]
        assert np.max(np.abs(m - np.eye(2))) <= 1e-9


def test_compose_is_unitary(rng):
    for _ in range(100):
        params = _random_params(rng)
        t, tp = rng.uniform(0, 10, size=2)
        assert unitarity_defect(transform_over_tau(params, t, [tp - t])) <= 1e-10


def test_compose_matches_oracle_pinned_m22(preset_params, derived_values):
    """The composed transform must reproduce the value pinned from the
    dense sector-1 oracle before the closed form existed."""
    ref = derived_values["m22_preset_t0_tp2"]
    m22 = transform_over_tau(preset_params, 0.0, [2.0])[0, 1, 1]
    assert abs(m22 - complex(ref["re"], ref["im"])) <= 1e-10


# ---------------------------------------------------------------------------
# amplitude action and the vectorized twin
# ---------------------------------------------------------------------------

def test_apply_to_coherent_preserves_total_intensity(preset_params, rng):
    """A coherent amplitude pair maps through the transform as the
    closed-form overlap maps it, and keeps its total intensity."""
    m = transform_over_tau(preset_params, 3.0, [4.0])[0]
    for _ in range(20):
        a, b = (complex(*rng.uniform(-2, 2, size=2)) for _ in range(2))
        a6, b6 = m @ np.array([a, b])
        assert abs(a6) ** 2 + abs(b6) ** 2 == pytest.approx(
            abs(a) ** 2 + abs(b) ** 2, abs=1e-10)


def test_transform_over_tau_matches_scalar_compose(preset_params):
    """Same elementwise arithmetic on both paths, so the same bits."""
    taus = np.linspace(0.0, 20.0, 41)
    stacked = transform_over_tau(preset_params, 10.0, taus)
    for tau, m in zip(taus, stacked):
        scalar = _schedule_product(_schedule_rows(preset_params, 10.0, 10.0 + tau))
        assert np.array_equal(m, scalar)


def test_transform_over_tau_rejects_grid_below_zero(preset_params):
    with pytest.raises(NegativeTime):
        transform_over_tau(preset_params, 1.0, np.array([-2.0, 0.0]))
