"""Config validation, sweep driver, serialization, preset panels, entry point."""

import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from soqd import (
    CoherentState,
    ConfigError,
    FockState,
    TauUnresolved,
    ToleranceExceeded,
    UnphysicalFactor,
    apparatus_from_json,
    compare_methods,
    factor_over_tau,
    main,
    read_points_csv,
    run_sweep,
)
from soqd import cli as cli_module
from soqd.cli import (
    _ROW_BLOCK,
    CSV_COLUMNS,
    CSV_HEADER,
    MAX_SWEEP_ROWS,
    _coherent_cutoff,
    load_sweep_config,
    reproduce_figure,
    sweep_config_from_json,
    sweep_config_to_json,
    write_points_csv,
    write_points_json,
    write_svg_plot,
)
from soqd.model import CorrelationPoint
from soqd.oracle import _poisson_tail_bound, min_cutoff


def make_config(**overrides):
    obj = {
        "omega1": 0.2, "omega2": 1.3, "d_e": 0.8, "d_g": 0.2, "omega_e": 1.0,
        "apparatus": {"kind": "fock", "n": 3},
        "t_values": [0.0, 2.0],
        "tau_min": 0.0, "tau_max": 4.0, "tau_steps": 9,
        "output_path": "out.csv",
    }
    obj.update(overrides)
    return obj


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_defaults():
    config = sweep_config_from_json(make_config())
    assert config.method == "closed"
    assert config.output_format == "csv"
    assert config.emit_plot is False
    assert config.state == FockState(3)
    assert config.t_values == (0.0, 2.0)


def test_config_round_trip():
    config = sweep_config_from_json(make_config(method="oracle", emit_plot=True))
    assert sweep_config_from_json(sweep_config_to_json(config)) == config


def test_config_accepts_coherent_shorthand():
    config = sweep_config_from_json(
        make_config(apparatus={"kind": "coherent", "n": 10}))
    assert config.state == CoherentState(0j, complex(math.sqrt(10)))


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config keys"):
        sweep_config_from_json(make_config(omega3=1.0))


def test_config_rejects_missing_key():
    obj = make_config()
    del obj["tau_steps"]
    with pytest.raises(ConfigError, match="missing config keys"):
        sweep_config_from_json(obj)


def test_config_rejects_bad_method():
    with pytest.raises(ConfigError, match="unknown method"):
        sweep_config_from_json(make_config(method="magic"))


def test_config_rejects_bad_format():
    with pytest.raises(ConfigError, match="output format"):
        sweep_config_from_json(make_config(output_format="xml"))


def test_config_rejects_reversed_window():
    with pytest.raises(ConfigError, match="tau_min"):
        sweep_config_from_json(make_config(tau_min=5.0, tau_max=1.0))


def test_config_rejects_bad_tau_steps():
    with pytest.raises(ConfigError):
        sweep_config_from_json(make_config(tau_steps=1))
    with pytest.raises(ConfigError):
        sweep_config_from_json(make_config(tau_steps=True))
    with pytest.raises(ConfigError):
        sweep_config_from_json(make_config(tau_steps=4.5))


def test_config_rejects_bad_t_values():
    for bad in ([], [-1.0], ["x"], 3.0):
        with pytest.raises(ConfigError):
            sweep_config_from_json(make_config(t_values=bad))


def test_config_rejects_negative_second_time():
    # t' = t + tau dips below zero for the smallest t
    with pytest.raises(ConfigError, match="t \\+ tau"):
        sweep_config_from_json(make_config(t_values=[0.5], tau_min=-1.0))


def test_config_rejects_nonfinite_parameter():
    with pytest.raises(ConfigError):
        sweep_config_from_json(make_config(omega1=float("inf")))
    with pytest.raises(ConfigError):
        sweep_config_from_json(make_config(omega1=True))


def test_config_rejects_bad_emit_plot():
    with pytest.raises(ConfigError, match="emit_plot"):
        sweep_config_from_json(make_config(emit_plot=1))


def test_config_rejects_empty_output_path():
    with pytest.raises(ConfigError, match="output_path"):
        sweep_config_from_json(make_config(output_path=""))


def test_config_guards_quadrature_method():
    with pytest.raises(ConfigError, match="needs a fock"):
        sweep_config_from_json(make_config(
            method="quadrature", apparatus={"kind": "coherent", "n": 4}))
    with pytest.raises(ConfigError, match="quadrature guard"):
        sweep_config_from_json(make_config(
            method="quadrature", apparatus={"kind": "fock", "n": 300}))


def test_config_guards_oracle_method():
    with pytest.raises(ConfigError, match="dense guard"):
        sweep_config_from_json(make_config(
            method="oracle", apparatus={"kind": "fock", "n": 600}))
    with pytest.raises(ConfigError, match="mode 1 empty"):
        sweep_config_from_json(make_config(
            method="oracle",
            apparatus={"kind": "coherent", "alpha0": [0.5, 0.0], "beta0": [1.0, 0.0]}))
    with pytest.raises(ConfigError, match="too large for the dense oracle"):
        sweep_config_from_json(make_config(
            method="oracle", apparatus={"kind": "coherent", "n": 400}))


def test_load_sweep_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_sweep_config(str(tmp_path / "nope.json"))


def test_load_sweep_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_sweep_config(str(path))


def _assert_minimal_and_certified(x, cutoff):
    """The certified tail is below double rounding (2^-53), one sector less's is not."""
    assert _poisson_tail_bound(x, cutoff) <= 2.0 ** -53 < \
        _poisson_tail_bound(x, cutoff - 1), (x, cutoff)


def test_coherent_cutoff_is_minimal_and_certified():
    """Small occupations get the certified cutoff, with no floor."""
    assert _coherent_cutoff(CoherentState(0j, 0.5 + 0j)) == 11
    assert _coherent_cutoff(CoherentState(0j, 3.0 + 0j)) == 43
    for x, cutoff in ((0.25, 11), (9.0, 43)):
        _assert_minimal_and_certified(x, cutoff)


def test_coherent_cutoff_of_the_shorthand_is_exact():
    """sqrt(k) squared back lands a few ULP above k for many k; the cutoff
    must be the one of the exact x = k, and minimal and certified."""
    for k in range(1, 301):
        state = apparatus_from_json({"kind": "coherent", "n": k})
        cutoff = _coherent_cutoff(state)
        assert cutoff == min_cutoff(float(k)), k
        _assert_minimal_and_certified(float(k), cutoff)


def test_config_refuses_a_sweep_too_large_to_hold(tmp_path, capsys):
    """10^9 tau steps would need hundreds of GB; refused before anything
    is allocated or written."""
    cfg = write_config(tmp_path, tau_steps=10**9)
    tracemalloc.start()
    try:
        rc = main(["sweep", "--config", cfg])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert f"exceeds the limit of {MAX_SWEEP_ROWS}" in capsys.readouterr().err
    assert peak < 1e6
    assert not (tmp_path / "out.csv").exists()
    # the limit is on len(t_values) * tau_steps, inclusive
    sweep_config_from_json(make_config(t_values=[0.0, 1.0], tau_steps=MAX_SWEEP_ROWS // 2))
    with pytest.raises(ConfigError, match="exceeds the limit"):
        sweep_config_from_json(make_config(t_values=[0.0, 1.0],
                                           tau_steps=MAX_SWEEP_ROWS // 2 + 1))


# ---------------------------------------------------------------------------
# sweep driver and serialization
# ---------------------------------------------------------------------------

def test_run_sweep_rows_are_t_major(tmp_path):
    config = sweep_config_from_json(
        make_config(output_path=str(tmp_path / "o.csv")))
    points = run_sweep(config)
    assert len(points) == 18
    for name in ("t", "tau", "f", "g"):
        assert getattr(points, name).shape == (18,), name
    assert np.array_equal(points.t, [0.0] * 9 + [2.0] * 9)
    taus = np.linspace(0.0, 4.0, 9)
    assert np.array_equal(points.tau, np.concatenate([taus, taus]))


def test_csv_round_trip_is_bit_exact(tmp_path):
    path = str(tmp_path / "o.csv")
    config = sweep_config_from_json(make_config(output_path=path))
    points, back = run_sweep(config), read_points_csv(path)
    assert len(back) == len(points)
    for name in ("t", "tau", "f", "g"):
        assert np.array_equal(getattr(back, name), getattr(points, name)), name


def test_csv_header_is_stable(tmp_path):
    assert CSV_HEADER == "t,tau,re_F,im_F,abs_F,G"
    path = str(tmp_path / "o.csv")
    run_sweep(sweep_config_from_json(make_config(output_path=path)))
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().rstrip("\n") == CSV_HEADER


def test_read_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "o.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad header"):
        read_points_csv(str(path))


GOOD_ROW = "0,0.5,0.25,-0.5,0.55901699437494745,0.75"


def write_csv_rows(tmp_path, *rows):
    path = tmp_path / "o.csv"
    path.write_text("\n".join((CSV_HEADER,) + rows) + "\n", encoding="utf-8")
    return str(path)


def test_read_csv_rejects_a_short_row(tmp_path):
    path = write_csv_rows(tmp_path, GOOD_ROW, "0,0.75,0.25,-0.5,0.75")
    with pytest.raises(ConfigError, match="malformed row"):
        read_points_csv(path)
    path = write_csv_rows(tmp_path, "0,0.75,0.25,-0.5,0.75")
    with pytest.raises(ConfigError, match="rows have 5 cells"):
        read_points_csv(path)


def test_read_csv_rejects_a_file_without_rows(tmp_path):
    with pytest.raises(ConfigError, match="has no rows"):
        read_points_csv(write_csv_rows(tmp_path))


def test_read_csv_rejects_a_non_numeric_cell(tmp_path):
    path = write_csv_rows(tmp_path, GOOD_ROW, "0,0.75,0.25,x,0.5,0.75")
    with pytest.raises(ConfigError, match="malformed row"):
        read_points_csv(path)


def test_read_csv_rejects_an_unphysical_row(tmp_path):
    for bad in ("0,0.75,1.5,0,1.5,0.75", "0,0.75,0.25,-0.5,0.55,1.5",
                "0,0.75,nan,0,nan,0.5"):
        with pytest.raises(UnphysicalFactor):
            read_points_csv(write_csv_rows(tmp_path, GOOD_ROW, bad))


# per-row reference writers: each row is formatted on its own, from Python
# floats, as the writers did before they formatted blocks of rows

def reference_rows(points):
    f = points.f
    return zip(points.t.tolist(), points.tau.tolist(), f.real.tolist(),
               f.imag.tolist(), np.hypot(f.real, f.imag).tolist(), points.g.tolist())


def reference_csv(points):
    row = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"
    return CSV_HEADER + "\n" + "".join(row % cells for cells in reference_rows(points))


def reference_json(points):
    rows = [dict(zip(CSV_COLUMNS, cells)) for cells in reference_rows(points)]
    return json.dumps({"points": rows}, indent=1) + "\n"


def reference_svg(points, title):
    width, height = 800, 500
    left, right, top, bottom = 70, 20, 40, 55
    inner_w = width - left - right
    inner_h = height - top - bottom
    # one series per distinct t, signed zeros apart: ascending, 0 before -0
    t_values = sorted({(t, math.copysign(1.0, t)) for t in points.t.tolist()},
                      key=lambda key: (key[0], -key[1]))
    tau_lo, tau_hi = float(points.tau.min()), float(points.tau.max())
    span = tau_hi - tau_lo or 1.0

    def px(tau):
        return left + (tau - tau_lo) / span * inner_w

    def py(g):
        return top + (1.0 - np.minimum(np.maximum(g, 0.0), 1.0)) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="24" font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + inner_h}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{left}" y1="{top + inner_h}" x2="{left + inner_w}" '
        f'y2="{top + inner_h}" stroke="black" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = py(frac)
        parts.append(f'<line x1="{left - 4}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.2f}" font-family="sans-serif" '
                     f'font-size="12" text-anchor="end">{frac:g}</text>')
    for tau in np.linspace(tau_lo, tau_hi, 6):
        x = px(tau)
        parts.append(f'<line x1="{x:.2f}" y1="{top + inner_h}" x2="{x:.2f}" '
                     f'y2="{top + inner_h + 4}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{top + inner_h + 18}" font-family="sans-serif" '
                     f'font-size="12" text-anchor="middle">{tau:.4g}</text>')
    parts.append(f'<text x="{left + inner_w / 2:.0f}" y="{height - 12}" '
                 'font-family="sans-serif" font-size="14" '
                 'text-anchor="middle">&#964; = t&#8242; &#8722; t</text>')
    parts.append(f'<text x="20" y="{top + inner_h / 2:.0f}" font-family="sans-serif" '
                 'font-size="14" text-anchor="middle">G</text>')
    for i, (t, sign) in enumerate(t_values):
        color = cli_module._PALETTE[i % len(cli_module._PALETTE)]
        series = (points.t == t) & (np.signbit(points.t) == (sign < 0))
        tau, g = points.tau[series], points.g[series]
        order = np.lexsort((g, tau))
        xy = zip(px(tau[order]).tolist(), py(g[order]).tolist())
        coords = " ".join(["%.2f,%.2f" % cell for cell in xy])
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     'stroke-width="1.3"/>')
        if len(t_values) > 1:
            parts.append(f'<text x="{left + inner_w - 6}" y="{top + 16 + 16 * i}" '
                         f'font-family="sans-serif" font-size="12" text-anchor="end" '
                         f'fill="{color}">t = {t:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def edge_points(rows):
    """Columns that stress the text conversions: t in {0, -0, 1e-300},
    tau with signed zeros, values near 1e-300 and subnormals, F with
    subnormal and signed-zero parts, and G repeating a few values."""
    i = np.arange(rows)
    t = np.array([0.0, -0.0, 1e-300])[i % 3]
    tau = np.linspace(0.0, 3.0, rows)
    tau[i % 4 == 1] = -0.0
    tau[i % 5 == 2] = 5e-324
    tau[i % 7 == 3] = 1e-300
    f = np.exp(-0.01 * i) * np.exp(1j * 0.3 * i)
    f.real[i % 6 == 4] = -0.0
    f.imag[i % 8 == 5] = 2.5e-310
    g = np.array([0.5, 1.0, 0.0, -0.0, 1e-300, 0.25 + 1e-17])[i % 6]
    return CorrelationPoint(t, tau, f, g)


@pytest.mark.parametrize("rows", [1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1,
                                  2 * _ROW_BLOCK + 3])
def test_block_writers_match_the_per_row_reference(tmp_path, rows):
    points = edge_points(rows)
    writers = {"o.csv": (write_points_csv, reference_csv),
               "o.json": (write_points_json, reference_json)}
    for name, (write, reference) in writers.items():
        write(str(tmp_path / name), points)
        assert (tmp_path / name).read_text(encoding="utf-8") == reference(points), name
    write_svg_plot(str(tmp_path / "o.svg"), points, title="edge")
    assert (tmp_path / "o.svg").read_text(encoding="utf-8") == reference_svg(points, "edge")


def test_signed_zero_times_keep_their_sign(tmp_path):
    """t = -0.0 is its own value: it is written as -0, not merged into 0."""
    config = sweep_config_from_json(make_config(
        t_values=[0.0, -0.0], tau_min=-0.0, output_path=str(tmp_path / "o.csv"),
        emit_plot=True))
    points = run_sweep(config)
    text = (tmp_path / "o.csv").read_text(encoding="utf-8")
    assert text == reference_csv(points)
    assert text.splitlines()[10].startswith("-0,0,")
    assert (tmp_path / "o.svg").read_text(encoding="utf-8") == reference_svg(
        points, cli_module._plot_title(config))
    json_path = str(tmp_path / "o.json")
    write_points_json(json_path, points)
    assert '"t": -0.0' in (tmp_path / "o.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("t_values, lines, legends", [
    ([0.0, -0.0], 2, ["t = 0", "t = -0"]),
    ([0.0, 0.0], 1, []),
])
def test_svg_series_are_keyed_on_the_bits_of_t(tmp_path, t_values, lines, legends):
    """-0.0 is its own series with its own legend, as it is its own CSV
    text; equal t values share one polyline."""
    config = sweep_config_from_json(make_config(
        t_values=t_values, output_path=str(tmp_path / "o.csv"), emit_plot=True))
    run_sweep(config)
    svg = (tmp_path / "o.svg").read_text(encoding="utf-8")
    assert svg.count("<polyline ") == lines
    assert re.findall(r">(t = [^<]*)</text>", svg) == legends


#: bytes per row a 10^5-row sweep may hold at its peak (tracemalloc); the
#: per-row writers peaked at 244, the block writers at about 155
SWEEP_PEAK_BYTES_PER_ROW = 170


@pytest.mark.parametrize("output_format, emit_plot", [("csv", True), ("json", False)])
def test_sweep_memory_stays_bounded_per_row(tmp_path, output_format, emit_plot):
    config = sweep_config_from_json(make_config(
        apparatus={"kind": "fock", "n": 10_000}, t_values=[0.0, 10.0], tau_max=0.5,
        tau_steps=50_000, output_format=output_format, emit_plot=emit_plot,
        output_path=str(tmp_path / f"o.{output_format}")))
    tracemalloc.start()
    try:
        points = run_sweep(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / len(points) <= SWEEP_PEAK_BYTES_PER_ROW


def test_json_output(tmp_path):
    path = str(tmp_path / "o.json")
    config = sweep_config_from_json(
        make_config(output_path=path, output_format="json"))
    points = run_sweep(config)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    assert set(data) == {"points"}
    assert len(data["points"]) == 18
    rows = data["points"]
    assert all(set(row) == {"t", "tau", "re_F", "im_F", "abs_F", "G"} for row in rows)
    want = {"t": points.t, "tau": points.tau, "re_F": points.f.real,
            "im_F": points.f.imag, "abs_F": [abs(complex(f)) for f in points.f],
            "G": points.g}
    for key, column in want.items():
        assert np.array_equal([row[key] for row in rows], column), key
    # streamed, but the bytes of one json.dump of the whole document
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == reference_json(points)


def test_sweep_emits_svg_plot(tmp_path):
    path = str(tmp_path / "o.csv")
    config = sweep_config_from_json(
        make_config(output_path=path, emit_plot=True))
    run_sweep(config)
    svg = (tmp_path / "o.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert "&#964;" in svg  # tau axis label
    assert "t = 0" in svg and "t = 2" in svg  # one legend entry per t


def test_equal_couplings_sweep_is_pure_fringe(tmp_path):
    config = sweep_config_from_json(make_config(
        d_e=0.5, d_g=0.5, apparatus={"kind": "coherent", "n": 4},
        t_values=[1.0], output_path=str(tmp_path / "o.csv")))
    points = run_sweep(config)
    assert np.max(np.abs(np.abs(points.f) - 1)) <= 1e-9
    assert np.max(np.abs(points.g - (0.5 + 0.5 * np.cos(points.tau)))) <= 1e-9


def test_sweep_methods_agree(tmp_path):
    points = {}
    for method in ("closed", "quadrature", "oracle"):
        config = sweep_config_from_json(make_config(
            method=method, t_values=[1.0], tau_max=3.0, tau_steps=7,
            output_path=str(tmp_path / f"{method}.csv")))
        points[method] = run_sweep(config)
    for method in ("quadrature", "oracle"):
        assert np.array_equal(points[method].t, points["closed"].t)
        assert np.array_equal(points[method].tau, points["closed"].tau)
        assert np.max(np.abs(points[method].f - points["closed"].f)) <= 1e-9


def test_coherent_oracle_sweep_matches_closed_form(tmp_path):
    points = {}
    for method in ("closed", "oracle"):
        config = sweep_config_from_json(make_config(
            method=method, apparatus={"kind": "coherent", "n": 2}, t_values=[0.0, 1.5],
            tau_max=3.0, tau_steps=7, output_path=str(tmp_path / f"{method}.csv")))
        points[method] = run_sweep(config)
    assert len(points["oracle"]) == 14
    assert np.array_equal(points["oracle"].t, points["closed"].t)
    assert np.array_equal(points["oracle"].tau, points["closed"].tau)
    assert np.max(np.abs(points["oracle"].f - points["closed"].f)) <= 1e-9


# ---------------------------------------------------------------------------
# preset panels
# ---------------------------------------------------------------------------

def test_reproduce_figure_matches_golden_bytes(tmp_path, golden_dir):
    paths = reproduce_figure(2, "a", str(tmp_path))
    with open(paths["csv"], "rb") as fh:
        fresh = fh.read()
    with open(f"{golden_dir}/figures/fig2a.csv", "rb") as fh:
        pinned = fh.read()
    assert fresh == pinned
    assert fresh.decode("utf-8").count("\n") == 601  # header + 600 rows


def test_reproduce_figure_rejects_bad_ids(tmp_path):
    with pytest.raises(ConfigError, match="figure id"):
        reproduce_figure(3, "a", str(tmp_path))
    with pytest.raises(ConfigError, match="panel"):
        reproduce_figure(1, "g", str(tmp_path))


# ---------------------------------------------------------------------------
# method comparison
# ---------------------------------------------------------------------------

def test_compare_methods_report(preset_params):
    grid = np.linspace(0.0, 5.0, 6)
    report = compare_methods(preset_params, 2, 0.0, grid)
    assert np.array_equal(report.tau, grid)
    columns = (report.f_closed, report.f_quadrature, report.f_oracle)
    assert all(c.shape == (6,) and c.dtype == complex for c in columns)
    assert report.max_delta == max(report.delta.tolist())
    assert report.max_delta <= 1e-9
    for i, (fc, fq, fo) in enumerate(zip(*(c.tolist() for c in columns))):
        # each row's delta has the bits of abs() on Python complexes
        assert report.delta[i] == max(abs(fc - fq), abs(fc - fo), abs(fq - fo))
        # the closed column comes from one grid call, bit for bit a length-1 call
        assert fc == factor_over_tau(preset_params, FockState(2), 0.0, [grid[i]])[0]


def test_compare_methods_raises_on_tight_tolerance(preset_params):
    with pytest.raises(ToleranceExceeded) as excinfo:
        compare_methods(preset_params, 2, 0.0, np.linspace(0.0, 5.0, 6),
                        tolerance=1e-30)
    assert excinfo.value.report is not None
    assert len(excinfo.value.report.tau) == 6


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def write_config(tmp_path, **overrides):
    obj = make_config(output_path=str(tmp_path / "out.csv"), **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_main_sweep_ok(tmp_path, capsys):
    assert main(["sweep", "--config", write_config(tmp_path)]) == 0
    assert "wrote 18 rows" in capsys.readouterr().out
    assert (tmp_path / "out.csv").exists()


def test_main_missing_config_exits_2(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2", encoding="utf-8")
    assert main(["sweep", "--config", str(path)]) == 2


def test_main_unwritable_output_exits_4(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    obj = make_config(output_path=str(tmp_path / "missing_dir" / "out.csv"))
    cfg.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_main_sweep_refuses_tau_lost_to_rounding(tmp_path, capsys):
    rc = main(["sweep", "--config", write_config(tmp_path, t_values=[1e17])])
    assert rc == 2
    assert "tau = 0.5 is lost at t = 1e+17" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_main_compare_ok(capsys):
    rc = main(["compare", "--n", "2", "--t", "0", "--tau-max", "2", "--steps", "5"])
    assert rc == 0
    assert "max pairwise |delta|" in capsys.readouterr().out


def test_main_compare_bad_args_exits_2(capsys):
    rc = main(["compare", "--n", "2", "--t", "0", "--tau-max", "2", "--steps", "1"])
    assert rc == 2


def test_main_compare_refuses_negative_time(capsys):
    rc = main(["compare", "--n", "2", "--t", "-1", "--tau-max", "2", "--steps", "5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "measurement times must be >= 0, got -1.0" in captured.err
    assert "Traceback" not in captured.err


def test_main_compare_disagreement_exits_3(monkeypatch, capsys):
    def forced_failure(*args, **kwargs):
        raise ToleranceExceeded("forced", None)

    monkeypatch.setattr("soqd.cli.compare_methods", forced_failure)
    rc = main(["compare", "--n", "2", "--t", "0", "--tau-max", "2", "--steps", "5"])
    assert rc == 3
    assert "FAIL" in capsys.readouterr().err


def test_main_figure_ok(tmp_path, capsys):
    rc = main(["figure", "--id", "1", "--panel", "a", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "fig1a.csv").exists()
    assert (tmp_path / "fig1a.svg").exists()


def test_main_rejects_unknown_panel(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["figure", "--id", "1", "--panel", "z", "--out", str(tmp_path)])
    assert excinfo.value.code == 2


#: the dense oracle runs LAPACK eigh and BLAS zgemm, which promise no bits:
#: under other kernels its re/im move by a few ULP.  1e-14 sits near their
#: rounding and is still 1e5 times tighter than the cross-method gate.
ORACLE_ABS_TOL = 1e-14


def test_main_golden_regen_reproduces_pinned_values(tmp_path, derived_values):
    """Keys, provenance strings, the tail bound and the closed-form decay
    times come back exactly; the oracle's re/im within ORACLE_ABS_TOL."""
    out = tmp_path / "golden"
    assert main(["golden", "--regen", "--out", str(out)]) == 0
    with open(out / "derived_values.json", encoding="utf-8") as fh:
        fresh = json.load(fh)
    assert fresh.keys() == derived_values.keys()
    for key, pinned in derived_values.items():
        assert fresh[key].keys() == pinned.keys(), key
        for field, want in pinned.items():
            if field in ("re", "im"):
                assert abs(fresh[key][field] - want) <= ORACLE_ABS_TOL, (key, field)
            else:
                assert fresh[key][field] == want, (key, field)
    panels = sorted(p.name for p in (out / "figures").glob("*.csv"))
    assert len(panels) == 12 and panels[0] == "fig1a.csv"


def test_main_maps_unphysical_point_to_exit_3(tmp_path):
    """Under ``python -O`` too, a correlation outside [0, 1] is a typed
    error with exit code 3, not a traceback and not a silent row."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from soqd import cli\n"
        "cli.g2_interacting = lambda f, *args: np.full(f.shape, 1.5)\n"
        "sys.exit(cli.main(['sweep', '--config', sys.argv[1]]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script, write_config(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert "unphysical result: g = 1.5" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_module_entry_point_subprocess(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "soqd", "sweep", "--config", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").exists()
