"""Phase-space quadrature: its own transform, whole grids, bounded memory."""

import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from soqd import (
    ConfigError,
    EigenFailure,
    FockState,
    NegativeTime,
    decoherence_factor_fock_quadrature,
    decoherence_factor_oracle_fock,
    factor_over_tau,
)
from soqd import propagator
from soqd import quadrature as quadrature_module
from soqd.cli import FIGURE_PARAMS as PRESET
from test_reproducibility import _reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_quadrature_does_not_share_the_schedule_table(monkeypatch):
    """A sign error in the closed form's step kernel (H_g's coupling
    flipped in its E_g = exp(+i*Hg*tau) - I call) moves the closed form
    away from the oracle, while the quadrature, which builds its own
    transform, still agrees with it."""
    real_step = propagator._step_minus_identity

    def flipped(alpha1, alpha2, beta, duration):
        if beta == PRESET.d_g:  # d_e, d_g and d_e + d_g differ at the preset
            beta = -beta
        return real_step(alpha1, alpha2, beta, duration)

    monkeypatch.setattr(propagator, "_step_minus_identity", flipped)
    taus = np.linspace(0.0, 10.0, 21)
    for t in (0.0, 10.0):
        oracle = decoherence_factor_oracle_fock(PRESET, 10, t, taus)
        closed = factor_over_tau(PRESET, FockState(10), t, taus)
        quad = decoherence_factor_fock_quadrature(PRESET, 10, t, taus)
        assert np.max(np.abs(closed - oracle)) > 1e-2, t
        assert np.max(np.abs(quad - oracle)) <= 1e-6, t


def test_quadrature_reads_each_node_image_of_its_own_transform(monkeypatch):
    """The H01 coupling of the quadrature's own transform with its sign
    flipped moves the quadrature away from the oracle, while the closed
    form still agrees with it: the kernel takes every node's image from
    that transform, not from an identity shared with the closed form."""
    real_systems = quadrature_module._single_quantum_eigensystems

    def flipped(params):
        h11, h10, _ = real_systems(params)
        h01 = np.linalg.eigh(np.array([[params.omega1, -params.d_g],
                                       [-params.d_g, params.omega2]]))
        return [h11, h10, h01]

    monkeypatch.setattr(quadrature_module, "_single_quantum_eigensystems", flipped)
    taus = np.linspace(0.0, 10.0, 21)
    for t in (0.0, 10.0):
        oracle = decoherence_factor_oracle_fock(PRESET, 10, t, taus)
        closed = factor_over_tau(PRESET, FockState(10), t, taus)
        quad = decoherence_factor_fock_quadrature(PRESET, 10, t, taus)
        assert np.max(np.abs(quad - oracle)) > 1e-2, t
        assert np.max(np.abs(closed - oracle)) <= 1e-6, t


def _gauss_laguerre_log_as_first_built(order):
    """The rule as first built: the nodes from a dense eigensolve of the
    Jacobi matrix, the log-weights from a renormalized three-term
    recurrence for L_{R+1}, all in float64."""
    k = np.arange(order, dtype=float)
    jacobi = np.diag(2.0 * k + 1.0) + np.diag(k[1:], 1) + np.diag(k[1:], -1)
    nodes = np.linalg.eigvalsh(jacobi)
    prev = np.ones_like(nodes)
    cur = 1.0 - nodes
    shift = np.zeros_like(nodes)
    for j in range(1, order + 1):
        prev, cur = cur, ((2.0 * j + 1.0 - nodes) * cur - j * prev) / (j + 1.0)
        big = np.abs(cur) > 1e100
        if big.any():
            factor = np.where(big, np.abs(cur), 1.0)
            cur /= factor
            prev /= factor
            shift += np.log(factor)
    log_tail = shift + np.log(np.abs(cur))
    return nodes, np.log(nodes) - 2.0 * (math.log(order + 1.0) + log_tail)


def _table_generator():
    """tools/gauss_laguerre_table.py, which needs mpmath."""
    pytest.importorskip("mpmath")
    path = os.path.join(ROOT, "tools", "gauss_laguerre_table.py")
    spec = importlib.util.spec_from_file_location("gauss_laguerre_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("order", [1, 8, 64, 72, 168, 264])
def test_gauss_laguerre_table_bit_equals_its_200_bit_generator(order):
    """The first, the last and seeded random nodes of the packaged table,
    and their log-weights, have the bits the generator computes."""
    generator = _table_generator()
    nodes, log_w = quadrature_module._gauss_laguerre_log(order)
    rng = np.random.default_rng(order)
    sample = np.unique(np.concatenate(
        [[0, order - 1], rng.choice(order, size=min(order, 6), replace=False)]))
    ref_nodes, ref_log_w = generator.rule(order, generator.start_nodes(order)[sample])
    assert nodes[sample].tobytes() == ref_nodes.tobytes()
    assert log_w[sample].tobytes() == ref_log_w.tobytes()


#: order -> (relative node bound, absolute log-weight bound) of the table
#: against the rule as first built.  The log-weight difference is largest
#: at the smallest node, where that construction's float64 node error is
#: amplified: measured 5.9e-12, 8.0e-12, 3.9e-11 and 5.2e-10 at orders 64,
#: 72, 168 and 264, the last two with the nodes off by 1.5e-13 and 2.9e-13
FIRST_BUILT_BOUNDS = {8: (1e-12, 5e-11), 64: (1e-12, 5e-11), 72: (1e-12, 5e-11),
                      168: (1e-12, 5e-11), 264: (1e-12, 1e-9)}


@pytest.mark.parametrize("order", sorted(FIRST_BUILT_BOUNDS))
def test_gauss_laguerre_table_is_near_the_rule_as_first_built(order):
    node_bound, log_w_bound = FIRST_BUILT_BOUNDS[order]
    nodes, log_w = quadrature_module._gauss_laguerre_log(order)
    ref_nodes, ref_log_w = _gauss_laguerre_log_as_first_built(order)
    assert np.max(np.abs(nodes - ref_nodes) / nodes) <= node_bound
    assert np.max(np.abs(log_w - ref_log_w)) <= log_w_bound


def test_gauss_laguerre_table_holds_every_order_the_quadrature_uses():
    """Orders 1 ... 264 are all present, each with positive, strictly
    increasing nodes whose weights integrate 1 and u to 1e-13, and 264 is
    the order at the occupation guard."""
    top = quadrature_module._TOP_ORDER
    assert top == 264
    assert quadrature_module._radial_order(quadrature_module.QUADRATURE_OCCUPATION_GUARD) == top
    assert os.path.getsize(quadrature_module._RULE_TABLE) == 8 * top * (top + 1)
    for order in range(1, top + 1):
        nodes, log_w = quadrature_module._gauss_laguerre_log(order)
        assert nodes.shape == log_w.shape == (order,)
        assert nodes[0] > 0 and np.all(np.diff(nodes) > 0), order
        weights = np.exp(log_w)
        assert abs(math.fsum(weights) - 1.0) <= 1e-13, order
        assert abs(math.fsum(weights * nodes) - 1.0) <= 1e-13, order


@pytest.mark.parametrize("order", [0, -1, 265])
def test_gauss_laguerre_table_refuses_an_order_it_lacks(order):
    with pytest.raises(ConfigError, match="no Gauss-Laguerre rule"):
        quadrature_module._gauss_laguerre_log(order)


def test_gauss_laguerre_table_cut_short_is_an_io_error(tmp_path, monkeypatch):
    short = tmp_path / "short.f64"
    with open(quadrature_module._RULE_TABLE, "rb") as fh:
        short.write_bytes(fh.read(8 * 200 * 201))  # orders 1 ... 200
    monkeypatch.setattr(quadrature_module, "_RULE_TABLE", str(short))
    quadrature_module._gauss_laguerre_log.cache_clear()
    try:
        assert quadrature_module._gauss_laguerre_log(200)[0].size == 200
        with pytest.raises(OSError, match="cut short"):
            quadrature_module._gauss_laguerre_log(201)
    finally:
        quadrature_module._gauss_laguerre_log.cache_clear()


def test_import_soqd_does_not_read_the_rule_table():
    """The table is opened on the first quadrature call, not by import."""
    src = os.path.join(ROOT, "src")
    code = ("import sys\n"
            "opened = []\n"
            "sys.addaudithook(lambda event, args: event == 'open' and opened.append(args[0]))\n"
            "import soqd\n"
            "from soqd import quadrature\n"
            "name = 'gauss_laguerre.f64'\n"
            "print(any(str(p).endswith(name) for p in opened))\n"
            "quadrature._gauss_laguerre_log(64)\n"
            "print(any(str(p).endswith(name) for p in opened))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


#: absolute bound on |F - F_ref| against the 200-bit reference; measured
#: worst 1.6e-13 (n = 256, tau = 0.05, where |F| is still of order one)
QUADRATURE_ABS_BOUND = 2e-13


def test_quadrature_matches_a_200_bit_reference():
    """The quadrature against a 200-bit mpmath.expm evaluation of the
    six-step schedule, F_ref = m22**n, over n from 0 up to the guard."""
    mp = pytest.importorskip("mpmath")
    taus = np.array([0.05, 0.3, 1.7, 4.137])
    with mp.workprec(200):
        for n in (0, 1, 10, 40, 160, 256):
            for t in (0.0, 10.0):
                values = decoherence_factor_fock_quadrature(PRESET, n, t, taus)
                for f, t_prime in zip(values.tolist(), (t + taus).tolist()):
                    f_ref, _ = _reference(mp, 2, n, t, t_prime)
                    error = float(abs(mp.mpc(f) - f_ref))
                    assert error <= QUADRATURE_ABS_BOUND, (n, t, t_prime, error)


def test_quadrature_orders_match_wider_rules(monkeypatch):
    """The rules the integrand needs (n + 8 radial, 8 angular nodes) give
    the values of the wider max(64, n + 8) x 64 rules, to 5e-14."""
    taus = np.array([0.05, 0.3, 1.7, 4.137])
    cells = [(n, t) for n in (0, 1, 10, 40, 160, 256) for t in (0.0, 10.0)]
    needed = [decoherence_factor_fock_quadrature(PRESET, n, t, taus) for n, t in cells]
    monkeypatch.setattr(quadrature_module, "_ANGULAR_ORDER", 64)
    monkeypatch.setattr(quadrature_module, "_radial_order", lambda n: max(64, n + 8))
    for (n, t), values in zip(cells, needed):
        wider = decoherence_factor_fock_quadrature(PRESET, n, t, taus)
        assert np.max(np.abs(values - wider)) <= 5e-14, (n, t)


def test_quadrature_array_matches_scalar_calls():
    """n = 100 evaluates 18 t' per block, so 40 t' cross two block
    boundaries; each entry matches its own scalar call."""
    nodes = quadrature_module._radial_order(100) * quadrature_module._ANGULAR_ORDER
    assert quadrature_module._NODE_BUDGET // nodes == 18
    taus = np.linspace(0.0, 4.0, 40)
    batch = decoherence_factor_fock_quadrature(PRESET, 100, 10.0, taus)
    assert batch.shape == taus.shape and batch.dtype == complex
    singles = [decoherence_factor_fock_quadrature(PRESET, 100, 10.0, tau)
               for tau in taus.tolist()]
    assert all(f.shape == (1,) and f.dtype == complex for f in singles)
    assert np.max(np.abs(batch - np.concatenate(singles))) <= 1e-15


def test_quadrature_memory_does_not_grow_with_the_grid():
    """3000 t' at n = 40: one unblocked (3000 x 48 x 8) complex temporary
    alone would take 18.4 MB."""
    taus = np.linspace(0.0, 10.0, 3000)
    tracemalloc.start()
    try:
        values = decoherence_factor_fock_quadrature(PRESET, 40, 0.0, taus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == taus.shape
    assert peak < 10e6


def test_quadrature_refuses_negative_times_and_wraps_eigen_failures(monkeypatch):
    with pytest.raises(NegativeTime):
        decoherence_factor_fock_quadrature(PRESET, 3, 1.0, np.array([1.0, -1.5]))
    with pytest.raises(NegativeTime):
        decoherence_factor_fock_quadrature(PRESET, 3, -1.0, 3.0)

    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", explode)
    with pytest.raises(EigenFailure):
        decoherence_factor_fock_quadrature(PRESET, 3, 0.0, 1.0)


@pytest.mark.parametrize("n", [True, 2.0, -1], ids=["bool", "float", "negative"])
def test_quadrature_refuses_what_fock_state_refuses(n):
    """A bool ran as n = 1 and a float raised TypeError."""
    with pytest.raises(ConfigError, match="non-negative integer"):
        decoherence_factor_fock_quadrature(PRESET, n, 0.0, 1.0)
