"""Config validation, sweep driver, serialization, preset panels, entry point."""

import colorsys
import html
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soqd import (
    CoherentState,
    ConfigError,
    FockState,
    ModelParams,
    NonFiniteParameter,
    SweepConfig,
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
from soqd import _g17
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
    """Every field of a SweepConfig comes from its JSON form, bit for bit."""
    config = sweep_config_from_json(make_config(
        method="oracle", output_format="json", emit_plot=True, t_values=[0, 2.5],
        tau_min=-0.0, tau_steps=7))
    assert config == SweepConfig(
        params=ModelParams(omega1=0.2, omega2=1.3, d_e=0.8, d_g=0.2, omega_e=1.0),
        state=FockState(3), t_values=(0.0, 2.5), tau_min=-0.0, tau_max=4.0, tau_steps=7,
        method="oracle", output_path="out.csv", output_format="json", emit_plot=True)
    assert all(type(t) is float for t in config.t_values)
    assert math.copysign(1.0, config.tau_min) == -1.0


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


def test_read_csv_rejects_a_non_finite_time(tmp_path):
    """t and tau must be finite: the first bad entry is named."""
    for bad, name in (("nan,0.5,0.25,-0.5,0.55901699437494745,0.75", r"t\[1\] = nan"),
                      ("0,inf,0.25,-0.5,0.55901699437494745,0.75", r"tau\[1\] = inf"),
                      ("0,-inf,0.25,-0.5,0.55901699437494745,0.75", r"tau\[1\] = -inf")):
        with pytest.raises(NonFiniteParameter, match=name):
            read_points_csv(write_csv_rows(tmp_path, GOOD_ROW, bad))


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_read_csv_reads_a_plain_file_under_a_compressed_name(tmp_path, suffix):
    """A plain CSV named like a compressed file reads as under its own
    name, and its refusals keep their types."""
    path = tmp_path / "o.csv"
    run_sweep(sweep_config_from_json(make_config(output_path=str(path))))
    renamed = tmp_path / ("o.csv" + suffix)
    renamed.write_bytes(path.read_bytes())
    points, back = read_points_csv(str(path)), read_points_csv(str(renamed))
    for name in ("t", "tau", "f", "g"):
        assert np.array_equal(getattr(back, name), getattr(points, name)), name
    renamed.write_text("\n".join((CSV_HEADER, GOOD_ROW, "0,0.75,0.25,x,0.5,0.75")) + "\n",
                       encoding="utf-8")
    with pytest.raises(ConfigError, match="malformed row"):
        read_points_csv(str(renamed))


def test_read_csv_refuses_a_late_row_that_is_not_utf8(tmp_path):
    """A byte that is not UTF-8 past the header's first read (5000 rows,
    about 210 kB) is a malformed row."""
    path = tmp_path / "o.csv"
    body = "\n".join((CSV_HEADER,) + (GOOD_ROW,) * 5000) + "\n"
    path.write_bytes(body.encode() + b"0,0.5,\xff\n")
    with pytest.raises(ConfigError, match="malformed row"):
        read_points_csv(str(path))


def test_read_csv_refuses_an_early_byte_that_is_not_utf8(tmp_path):
    """A byte that is not UTF-8 within the first read, in a row or in the
    header, is a ConfigError too, through a path or a handle."""
    for name in ("o.csv", "o.csv.gz"):
        path = tmp_path / name
        path.write_bytes(f"{CSV_HEADER}\n{GOOD_ROW}\n".encode() + b"0,0.5,\xff\n")
        with pytest.raises(ConfigError, match="malformed row: 'utf-8' codec"):
            read_points_csv(str(path))
        path.write_bytes(CSV_HEADER.encode() + b"\xff\n" + f"{GOOD_ROW}\n".encode())
        with pytest.raises(ConfigError, match="bad header"):
            read_points_csv(str(path))


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


def reference_color(i):
    """The palette for the first five series, then hues a golden angle
    apart at lightness 0.4 and saturation 0.75."""
    if i < len(cli_module._PALETTE):
        return cli_module._PALETTE[i]
    rgb = colorsys.hls_to_rgb(i * (math.sqrt(5) - 1) / 2 % 1.0, 0.4, 0.75)
    return "#%02x%02x%02x" % tuple(round(255 * c) for c in rgb)


def reference_m4(x, g):
    """The rows a series is drawn through, ascending: in each pixel column
    floor(x), the first and the last row and the first rows of least and
    of greatest g."""
    columns = {}
    for i, v in enumerate(g):
        rows = columns.setdefault(math.floor(x[i]), [i, i, i, i])
        rows[1] = i
        if v < g[rows[2]]:
            rows[2] = i
        if v > g[rows[3]]:
            rows[3] = i
    return sorted({i for rows in columns.values() for i in rows})


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
        f'<text x="{left}" y="24" font-family="sans-serif" font-size="15">'
        f'{html.escape(title, quote=False)}</text>',
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
    # legends in columns of 25 from the right, closed up to fit the plot
    columns = math.ceil(len(t_values) / 25)
    column_width = min(90, (inner_w - 90) // max(1, columns - 1))
    for i, (t, sign) in enumerate(t_values):
        color = reference_color(i)
        series = (points.t == t) & (np.signbit(points.t) == (sign < 0))
        tau, g = points.tau[series], points.g[series]
        order = np.lexsort((g, tau))
        x, y = px(tau[order]).tolist(), py(g[order]).tolist()
        coords = " ".join(["%.2f,%.2f" % (x[k], y[k])
                           for k in reference_m4(x, g[order].tolist())])
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     'stroke-width="1.3"/>')
        if len(t_values) > 1:
            x = left + inner_w - 6 - column_width * (i // 25)
            parts.append(f'<text x="{x}" y="{top + 16 + 16 * (i % 25)}" '
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


def runs(values, lengths):
    """values[i] repeated lengths[i] times, one after another."""
    return np.repeat(np.asarray(values), lengths)


#: every fixed form, X = -4..16, with 1, 5 and 17 digits and both signs,
#: then scientific notation with two- and three-digit exponents
FORMS = [s * 10.0 ** x for x in range(-4, 17) for s in (1.0, -3.0625, 1.2345678901234567)] + [
    2.5e17, -1e-5, 1.5e-99, -3.25e100, 5e-324, 2.2250738585072014e-308]


def run_points(case):
    """The records whose CSV must equal the per-row reference, by case."""
    b = _ROW_BLOCK
    if case == "runs across blocks":
        lengths = [b - 1, 3, b + 7, 1, 2 * b]
        return CorrelationPoint(
            runs([0.0, 10.0, 0.0, 2.5, 7.0], lengths),
            np.linspace(0.0, 1.0, sum(lengths)),
            runs([0.5 + 0.25j, 0.5 + 0.25j, -0.125j, 0.5, 1e-30 - 1e-31j], lengths),
            runs([0.5, 1.0, 0.5, 0.0, 0.5], lengths))
    if case == "signed zeros and subnormals":
        lengths = [5, 3, b + 1, 2, 4, 7]
        return CorrelationPoint(
            runs([0.0, -0.0, 0.0, -0.0, 5e-324, 1e-310], lengths),
            runs([-0.0, 0.0, 5e-324, 2.5e-310, 2.5e-310, 0.0], lengths),
            runs([-0.0, complex(0.0, -0.0), 5e-324, -4e-320j, -0.0, 1e-310], lengths),
            runs([0.0, -0.0, 5e-324, 1e-310, 0.0, -0.0], lengths))
    if case == "every form, alone and in runs":
        forms = np.array(FORMS)
        t = np.concatenate([forms, runs(forms, 3), forms[::-1]])
        small = forms[np.abs(forms) < 1]
        f = np.resize(np.concatenate([small, runs(small, 4)]), t.size)
        return CorrelationPoint(t, t[::-1], f - 0.5j * f, np.abs(np.resize(small, t.size)))
    rows = {"constant columns": 2 * b + 3, "one row": 1, "no rows": 0}[case]
    return CorrelationPoint(np.full(rows, 10.0), np.full(rows, 2.5),
                            np.full(rows, 0.5 - 0.25j), np.full(rows, 0.5))


@pytest.mark.parametrize("case", ["runs across blocks", "signed zeros and subnormals",
                                  "every form, alone and in runs", "constant columns",
                                  "one row", "no rows"])
def test_csv_runs_match_the_per_row_reference(tmp_path, case):
    points = run_points(case)
    write_points_csv(str(tmp_path / "o.csv"), points)
    assert (tmp_path / "o.csv").read_text(encoding="utf-8") == reference_csv(points)


def test_csv_formats_each_run_of_t_once_per_block(tmp_path, monkeypatch):
    """A 2-t sweep of 3 blocks sends t to the kernel once per block and
    once more where t changes: 4 cells, not 6000."""
    sent = []
    cells = _g17.cells
    monkeypatch.setattr(_g17, "cells", lambda values: sent.append(values) or cells(values))
    # t in {3, 7} is the only column that can hold 3 or 7: |F|, G <= 1 < tau_max
    run_sweep(sweep_config_from_json(make_config(
        t_values=[3.0, 7.0], tau_max=1.0, tau_steps=3000, output_path=str(tmp_path / "o.csv"))))
    assert [((values == 3.0).sum(), (values == 7.0).sum()) for values in sent] == [
        (1, 0), (1, 1), (0, 1)]


def test_svg_refuses_a_record_without_rows(tmp_path):
    empty = np.array([])
    with pytest.raises(ConfigError, match="no rows to plot"):
        write_svg_plot(str(tmp_path / "o.svg"), CorrelationPoint(empty, empty, empty, empty))
    assert not (tmp_path / "o.svg").exists()


def test_svg_refuses_a_tau_span_beyond_float_range(tmp_path):
    """tau from -1e308 to 1e308 has no finite span to scale by."""
    points = CorrelationPoint([0.0, 0.0], [-1e308, 1e308], [1.0 + 0j, 1.0 + 0j], [1.0, 1.0])
    with pytest.raises(ConfigError, match="spans more than a float holds"):
        write_svg_plot(str(tmp_path / "o.svg"), points)
    assert not (tmp_path / "o.svg").exists()


def printf_corpus(rng):
    """Chunks of at most 2e5 float64 values that stress '%.17g'."""
    # random finite bit patterns
    bits = rng.integers(-2 ** 63, 2 ** 63, 150_000, dtype=np.int64, endpoint=False)
    values = bits.view(np.float64)
    yield values[np.isfinite(values)]
    # +-2 ulps of every power of ten, 1e-323..1e308: s at 1e16 or 1e17,
    # the exponent's bracket and the carry of 99...9.5 into a new exponent
    powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
    near = [powers]
    for direction in (0.0, np.inf):
        step = powers
        for _ in range(2):
            step = np.nextafter(step, direction)
            near.append(step)
    near = np.concatenate(near)
    # s = |v| * 10^(16 - X) on a half-integer: M * 2^-k with M odd and
    # M * 5^k of 18 digits, the last a 5; '%.17g' rounds them half-even
    ties = [2.0 ** -25, 0.0010004043579101562]
    for k in range(2, 26):
        low, high = -(-10 ** 17 // 5 ** k), min((10 ** 18 - 1) // 5 ** k, 2 ** 53 - 1)
        odd = rng.integers(low // 2, (high - 1) // 2, 500, endpoint=True) * 2 + 1
        ties += [m * 2.0 ** -k for m in odd[(odd >= low) & (odd <= high)].tolist()]
    # s within the kernel's error (2^-47) of a half-integer but not on it:
    # v = M 2^-(d + k) gives s = M 5^k / 2^d = n + 1/2 + o / 2^d, and
    # v = M 2^e gives s = M 2^(e - j) / 5^j = n + 1/2 + o / (2 5^j)
    for k in range(23, 46):
        five = 5 ** k
        for d in range(five.bit_length() - 5, five.bit_length() + 1):
            for o in (1, -1, 3, -3):
                r = ((1 << (d - 1)) + o) * pow(five, -1, 1 << d) % (1 << d)
                ties += [m * 2.0 ** -(d + k) for m in range(r, 1 << 53, 1 << d)
                         if m >= 1 << 52 and 10 ** 16 << d <= m * five < 10 ** 17 << d]
    for j in (21, 22):
        five = 5 ** j
        for e in range(j, j + 80):
            for o in (-1, 1):
                r = (five + o) // 2 * pow(2 ** (e - j), -1, five) % five
                ties += [float(m << e) for m in range(r, 1 << 53, five) if m >= 1 << 52
                         and 10 ** 16 * five <= m << (e - j) < 10 ** 17 * five]
    ties = np.array(ties)
    ties = np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)])
    subnormals = rng.integers(0, 2 ** 52, 20_000, dtype=np.int64).view(np.float64)
    integers = (rng.integers(0, 2 ** 63, 30_000, dtype=np.int64)
                >> rng.integers(0, 63, 30_000)).astype(np.float64)
    special = np.array([0.0, 5e-324, 2.0 ** -1022, 2.0 ** 63, 1.7976931348623157e308,
                        np.inf, np.nan])
    rest = np.concatenate([near, ties, subnormals, integers, special])
    yield np.concatenate([rest, -rest])


def test_csv_cells_are_printf_17g_of_every_value(tmp_path):
    """The CSV writer's text of every finite float64 is '%.17g' % v, byte
    for byte, written through t and tau; inf and nan, which
    CorrelationPoint refuses there, go to the kernel itself."""
    path = tmp_path / "o.csv"
    for values in printf_corpus(np.random.default_rng(1990)):
        finite = np.isfinite(values)
        cells = [cell.tobytes().replace(b"\0", b"").decode()
                 for cell in _g17.cells(values[~finite])]
        assert cells == ["%.17g" % v for v in values[~finite].tolist()]
        values = values[finite]
        values = values[:values.size // 2 * 2]
        rows = values.size // 2
        write_points_csv(str(path), CorrelationPoint(
            values[0::2], values[1::2], np.full(rows, 0.5 + 0.25j), np.full(rows, 0.5)))
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        got = [cell for line in lines for cell in line.split(",", 2)[:2]]
        want = ["%.17g" % v for v in values.tolist()]
        wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        assert len(got) == len(want) and not wrong, wrong[:5]


def polylines(svg):
    """The points of each polyline of an SVG text, as lists of (x, y) text."""
    return [[tuple(point.split(",")) for point in line.split(" ")]
            for line in re.findall(r'<polyline points="([^"]*)"', svg)]


def test_svg_of_a_bulk_sweep_matches_the_m4_reference(tmp_path):
    """Two 5x10^4-point series, as a sweep_bulk job draws them, including
    G on and past the clip at 0 and 1, in a file under 100 kB."""
    taus = np.linspace(0.0, 0.5, 50_000)
    t = np.repeat([0.0, 10.0], taus.size)
    tau = np.tile(taus, 2)
    g = 0.5 + 0.5 * np.cos(40.0 * tau + t) * np.exp(-3.0 * tau)
    g[::101], g[1::103], g[2::107], g[3::109] = 0.0, 1.0, -1e-10, 1.0 + 1e-10
    points = CorrelationPoint(t, tau, np.full(t.size, 0.5 + 0j), g)
    write_svg_plot(str(tmp_path / "o.svg"), points, title="bulk")
    svg = (tmp_path / "o.svg").read_text(encoding="utf-8")
    assert svg == reference_svg(points, "bulk")
    assert len(svg.encode()) < 100_000
    # 711 pixel columns, floor(x) = 70 to 780, at most 4 points each
    lines = polylines(svg)
    assert len(lines) == 2 and all(len(line) <= 4 * 711 for line in lines)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 5000), distinct=st.integers(1, 5000),
       span=st.sampled_from([1e-3, 1.0, 7.0, 1e4]), seed=st.integers(0, 2 ** 32 - 1))
def test_svg_draws_each_pixel_column_through_its_m4_rows(tmp_path_factory, rows, distinct,
                                                          span, seed):
    """A random series, with tau repeated (``distinct`` values at most),
    -0.0 beside 0.0, and G on and past the clip at 0 and 1: its line is
    drawn through a subsequence of its rows in order, which holds each
    pixel column's first and last row and its first rows of least and
    greatest G, and at most 4 rows of any column."""
    rng = np.random.default_rng(seed)
    tau = rng.choice(rng.uniform(0.0, span, distinct), rows)
    tau[rng.random(rows) < 0.05] = 0.0
    tau[rng.random(rows) < 0.05] = -0.0
    g = rng.choice([rng.uniform(0.0, 1.0), -1e-9, 0.0, -0.0, 1.0, 1.0 + 1e-9, 5e-324], rows)
    g = np.where(rng.random(rows) < 0.5, rng.uniform(-1e-9, 1.0 + 1e-9, rows), g)
    points = CorrelationPoint(np.full(rows, 2.0), tau, np.full(rows, 0.5 + 0j), g)
    path = tmp_path_factory.mktemp("m4") / "o.svg"
    write_svg_plot(str(path), points)
    # the series in the writer's order, placed as the writer places it
    order = np.lexsort((g, tau))
    tau, g = tau[order], g[order]
    x = 70.0 + (tau - tau.min()) / ((tau.max() - tau.min()) or 1.0) * 710.0
    y = 40.0 + (1.0 - np.clip(g, 0.0, 1.0)) * 405.0
    drawn = cli_module._m4(x, g)
    [line] = polylines(path.read_text(encoding="utf-8"))
    assert line == [("%.2f" % x[k], "%.2f" % y[k]) for k in drawn.tolist()]
    assert np.all(np.diff(drawn) > 0) and 0 <= drawn[0] and drawn[-1] < rows
    column = np.floor(x)
    for c in set(column.tolist()):
        members = np.flatnonzero(column == c)
        kept = set(np.intersect1d(drawn, members).tolist())
        assert {members[0], members[-1], members[np.argmin(g[members])],
                members[np.argmax(g[members])]} <= kept
        assert len(kept) <= 4


def test_svg_title_is_escaped(tmp_path):
    """&, < and > in a title are written as entities: the file parses as
    XML and its title reads back as given."""
    title = "G < 1 & t > 0"
    points = CorrelationPoint([0.0, 0.0], [0.0, 1.0], [1.0 + 0j, 0.5 + 0j], [1.0, 0.5])
    write_svg_plot(str(tmp_path / "o.svg"), points, title=title)
    assert (tmp_path / "o.svg").read_text(encoding="utf-8") == reference_svg(points, title)
    root = ElementTree.parse(tmp_path / "o.svg").getroot()
    assert root.find("{http://www.w3.org/2000/svg}text").text == title


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
])
def test_svg_series_are_keyed_on_the_bits_of_t(tmp_path, t_values, lines, legends):
    """-0.0 is its own series with its own legend, as it is its own CSV
    text."""
    config = sweep_config_from_json(make_config(
        t_values=t_values, output_path=str(tmp_path / "o.csv"), emit_plot=True))
    run_sweep(config)
    svg = (tmp_path / "o.svg").read_text(encoding="utf-8")
    assert svg.count("<polyline ") == lines
    assert re.findall(r">(t = [^<]*)</text>", svg) == legends


def test_svg_legends_of_many_series_stay_on_the_canvas(tmp_path):
    """40 series: every legend is drawn inside the 800x500 canvas, in
    columns of 25 below the plot's top, and every line has its own
    colour, the palette's five first."""
    taus = np.linspace(0.0, 1.0, 3)
    t = np.repeat(np.arange(40.0), taus.size)
    points = CorrelationPoint(t, np.tile(taus, 40), np.full(t.size, 0.5 + 0j),
                              np.full(t.size, 0.5))
    write_svg_plot(str(tmp_path / "o.svg"), points)
    svg = (tmp_path / "o.svg").read_text(encoding="utf-8")
    legends = re.findall(r'<text x="([^"]*)" y="([^"]*)"[^>]*>t = ([^<]*)</text>', svg)
    assert [label for _, _, label in legends] == [f"{k}" for k in range(40)]
    xs = [int(x) for x, _, _ in legends]
    ys = [int(y) for _, y, _ in legends]
    assert all(70 < x <= 800 for x in xs) and all(40 < y <= 500 for y in ys)
    assert len(set(zip(xs, ys))) == 40
    strokes = re.findall(r'<polyline [^>]*stroke="([^"]*)"', svg)
    assert len(strokes) == len(set(strokes)) == 40
    assert tuple(strokes[:5]) == cli_module._PALETTE
    assert svg == reference_svg(points, "")


def test_config_refuses_repeated_t_values(tmp_path, capsys):
    """A repeated t would compute and write the same tau block twice;
    t values are compared by their bits, so 0.0 and -0.0 stay apart."""
    for t_values in ([0.0, 0.0], [1.0, 2.0, 1.0]):
        with pytest.raises(ConfigError, match="must not repeat"):
            sweep_config_from_json(make_config(t_values=t_values))
    sweep_config_from_json(make_config(t_values=[0.0, -0.0]))
    assert main(["sweep", "--config", write_config(tmp_path, t_values=[0.0, 0.0])]) == 2
    assert "'t_values' must not repeat" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


#: bytes per row a 10^5-row sweep may hold at its peak (tracemalloc); the
#: per-row writers peaked at 244, the block writers at about 155, the CSV
#: kernel at about 110, and its fixed-slot cells at about 71; JSON rows
#: built from per-distinct-value text peaked at about 188 with one t, and
#: from one row template per block at about 72
SWEEP_PEAK_BYTES_PER_ROW = 170


@pytest.mark.parametrize("output_format, emit_plot, t_values", [
    ("csv", True, [0.0, 10.0]), ("json", False, [0.0, 10.0]), ("json", False, [10.0]),
], ids=["csv-True", "json-False", "json-False-one-t"])
def test_sweep_memory_stays_bounded_per_row(tmp_path, output_format, emit_plot, t_values):
    """10^5 rows, as two series of 5*10^4 tau or one of 10^5."""
    config = sweep_config_from_json(make_config(
        apparatus={"kind": "fock", "n": 10_000}, t_values=t_values, tau_max=0.5,
        tau_steps=100_000 // len(t_values), output_format=output_format, emit_plot=emit_plot,
        output_path=str(tmp_path / f"o.{output_format}")))
    tracemalloc.start()
    try:
        points = run_sweep(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / len(points) <= SWEEP_PEAK_BYTES_PER_ROW


def test_plotted_sweep_memory_per_row(tmp_path):
    """One series of 10^5 rows, CSV + SVG: the CSV write peaks at about 74
    bytes per row (tracemalloc) and the SVG write at about 74.5; with the
    sorted t bits held through the series loop the SVG write peaked at
    about 82.5."""
    config = sweep_config_from_json(make_config(
        apparatus={"kind": "fock", "n": 10_000}, t_values=[10.0], tau_max=0.5,
        tau_steps=100_000, emit_plot=True, output_path=str(tmp_path / "o.csv")))
    tracemalloc.start()
    try:
        points = run_sweep(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "o.svg").stat().st_size > 0
    assert peak / len(points) <= 80


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


def test_compare_methods_treats_a_nan_delta_as_beyond_tolerance(preset_params, monkeypatch):
    oracle = cli_module.decoherence_factor_oracle_fock

    def oracle_with_a_nan(*args):
        f = oracle(*args)
        f[2] = complex(math.nan, 0.0)
        return f

    monkeypatch.setattr("soqd.cli.decoherence_factor_oracle_fock", oracle_with_a_nan)
    with pytest.raises(ToleranceExceeded) as excinfo:
        compare_methods(preset_params, 2, 0.0, np.linspace(0.0, 5.0, 6))
    assert math.isnan(excinfo.value.report.max_delta)


def test_compare_methods_on_an_empty_grid(preset_params):
    """An empty tau grid gives empty columns and max_delta = 0, not the
    ValueError of a max over no entries."""
    report = compare_methods(preset_params, 2, 0.0, [])
    assert report.max_delta == 0.0
    for column in (report.tau, report.f_closed, report.f_quadrature, report.f_oracle,
                   report.delta):
        assert column.shape == (0,)
    assert report.f_oracle.dtype == report.f_quadrature.dtype == complex


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


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_main_sweep_refuses_a_plot_over_its_data(tmp_path, capsys, output_format):
    """emit_plot writes the plot beside the data as <stem>.svg: data named
    .svg would be overwritten by its own plot, so the sweep is refused
    before anything is written."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(make_config(
        output_path=str(tmp_path / "out.svg"), output_format=output_format,
        emit_plot=True)), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: ") and "out.svg" in err
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]
    sweep_config_from_json(make_config(output_path="out.svg"))


def test_main_compare_ok(capsys):
    rc = main(["compare", "--n", "2", "--t", "0", "--tau-max", "2", "--steps", "5"])
    assert rc == 0
    assert "max pairwise |delta|" in capsys.readouterr().out


def test_main_compare_bad_args_exits_2(capsys):
    rc = main(["compare", "--n", "2", "--t", "0", "--tau-max", "2", "--steps", "1"])
    assert rc == 2


def test_main_compare_refuses_negative_time(capsys):
    """A value that starts with '-' is a value, given apart or after '='."""
    for t in (["--t", "-1"], ["--t=-1"]):
        rc = main(["compare", "--n", "2", *t, "--tau-max", "2", "--steps", "5"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "measurement times must be >= 0, got -1.0" in captured.err
        assert "Traceback" not in captured.err


def test_main_compare_refuses_tau_lost_to_rounding(capsys):
    """At t = 1e17, t + 0.5 rounds to t: the oracle, the first method
    compare calls, refuses the grid before anything is printed."""
    rc = main(["compare", "--n", "4", "--t", "1e17", "--tau-max", "1", "--steps", "3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tau = 0.5 is lost at t = 1e+17" in captured.err
    assert "Traceback" not in captured.err


def test_main_compare_refuses_negative_occupation(capsys):
    rc = main(["compare", "--n", "-1", "--t", "0", "--tau-max", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "compare needs --n >= 0" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("t, tau_max", [("nan", "1"), ("inf", "1"), ("0", "inf"),
                                        ("0", "nan")])
def test_main_compare_refuses_non_finite_times(capsys, t, tau_max):
    rc = main(["compare", "--n", "2", "--t", t, "--tau-max", tau_max, "--steps", "3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: compare needs" in captured.err and "finite" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("steps", [10 ** 13, MAX_SWEEP_ROWS + 1])
def test_main_compare_refuses_more_steps_than_a_sweep_has_rows(capsys, steps):
    """--steps is capped as a sweep's rows are, before the tau grid is
    allocated: 10^13 steps asked numpy for 72.8 TiB."""
    rc = main(["compare", "--n", "2", "--t", "0", "--tau-max", "1", "--steps", str(steps)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: compare needs")
    assert f"--steps <= {MAX_SWEEP_ROWS}" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_main_compare_accepts_steps_up_to_the_cap(monkeypatch, capsys):
    grids = []

    def forced_failure(params, n, t, tau_grid):
        grids.append(tau_grid.size)
        raise ToleranceExceeded("forced", None)

    monkeypatch.setattr("soqd.cli.compare_methods", forced_failure)
    argv = ["compare", "--n", "2", "--t", "0", "--tau-max", "1", "--steps", str(MAX_SWEEP_ROWS)]
    assert main(argv) == 3
    assert grids == [MAX_SWEEP_ROWS]
    assert "config error" not in capsys.readouterr().err


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


def test_main_rejects_unknown_panel(tmp_path, capsys):
    assert main(["figure", "--id", "1", "--panel", "z", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: figure: --panel takes a|b|c|d|e|f, got 'z'\n"
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "unknown command 'bogus'"),
    (["--n", "2", "compare"], "unknown command '--n'"),
    # an abbreviation is an unknown option
    (["compare", "--n", "2", "--t", "0", "--tau", "1"], "compare: unknown option '--tau'"),
    (["sweep", "config.json"], "sweep: unknown option 'config.json'"),
    (["golden", "--regen=yes"], "golden: unknown option '--regen=yes'"),
    (["compare", "--n", "2", "--t", "0", "--tau-max"], "compare: --tau-max needs a value"),
    (["compare", "--n", "2", "--t", "0"], "compare: missing --tau-max"),
    (["figure", "--out", "figs"], "figure: missing --id, --panel"),
    (["golden", "--out", "golden"], "golden: missing --regen"),
    (["compare", "--n", "x", "--t", "0", "--tau-max", "1"], "compare: --n takes int, got 'x'"),
    (["compare", "--n=2", "--t", "0", "--tau-max", "1", "--steps=2.5"],
     "compare: --steps takes int, got '2.5'"),
    (["compare", "--n", "2", "--t", "zero", "--tau-max", "1"], "compare: --t takes float"),
    (["figure", "--id", "3", "--panel", "a", "--out", "figs"], "figure: --id takes 1|2, got '3'"),
])
def test_main_refuses_a_usage_error_with_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not os.listdir(tmp_path)


def test_main_reads_name_equals_value_and_keeps_a_repeated_option_last(capsys):
    assert main(["compare", "--n", "10", "--t", "0", "--tau-max", "2", "--steps", "5"]) == 0
    spaced = capsys.readouterr().out
    assert main(["compare", "--n=10", "--t=0", "--tau-max=2", "--steps", "9", "--steps=5"]) == 0
    assert capsys.readouterr().out == spaced
    assert len(spaced.splitlines()) == 7


@pytest.mark.parametrize("argv, commands", [
    ([], 4), (["-h"], 4), (["--help"], 4), (["compare", "-h"], 1),
    (["golden", "--help"], 1), (["compare", "--n", "2", "--help"], 1)])
def test_main_help_prints_the_usage_and_exits_0(monkeypatch, capsys, argv, commands):
    monkeypatch.setattr(sys, "argv", ["soqd", *argv])
    assert main() == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0].startswith("usage") and "--name=value" in lines[0]
    synopses = [line.strip() for line in lines if line.startswith("  soqd ")]
    assert len(synopses) == commands == len(lines[1:]) // 2
    if commands == 4:
        assert synopses == ["soqd sweep --config str",
                            "soqd figure --id 1|2 --panel a|b|c|d|e|f --out str",
                            "soqd compare --n int --t float --tau-max float [--steps=21]",
                            f"soqd golden --regen [--out={os.path.join('tests', 'golden')}]"]
    else:
        assert synopses[0].startswith(f"soqd {argv[0]} ")


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


def test_main_golden_regen_keeps_pinned_oracle_values_within_tolerance(tmp_path):
    """A pinned oracle re or im 5e-15 from the fresh value, within
    ORACLE_ABS_TOL, keeps its pinned bits; one 1e-12 away is rewritten."""
    out = tmp_path / "golden"
    path = out / "derived_values.json"
    assert main(["golden", "--regen", "--out", str(out)]) == 0
    fresh = json.loads(path.read_text(encoding="utf-8"))
    offsets = {("m22_preset_t0_tp2", "re"): 5e-15, ("m22_preset_t0_tp2", "im"): -1e-12,
               ("fock10_f_preset_t0_tp2", "re"): 1e-12, ("fock10_f_preset_t0_tp2", "im"): -5e-15,
               ("coherent_sqrt10_f_preset_t0_tp2", "re"): -5e-15,
               ("coherent_sqrt10_f_preset_t0_tp2", "im"): 5e-15}
    seeded = json.loads(path.read_text(encoding="utf-8"))
    for (key, part), offset in offsets.items():
        seeded[key][part] += offset
    path.write_text(json.dumps(seeded), encoding="utf-8")
    assert main(["golden", "--regen", "--out", str(out)]) == 0
    got = json.loads(path.read_text(encoding="utf-8"))
    for (key, part), offset in offsets.items():
        want = seeded if abs(offset) <= ORACLE_ABS_TOL else fresh
        assert got[key][part] == want[key][part], (key, part)
        assert seeded[key][part] != fresh[key][part]
    assert got["coherent_tau_decay_t0"] == fresh["coherent_tau_decay_t0"]


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


def test_module_entry_point_subprocess(tmp_path, capsys):
    """``python -m soqd`` and the console script run cli._console: the
    whole stdout of main, and its exit codes 0, 2 and 4."""
    pyproject = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "pyproject.toml")
    with open(pyproject, encoding="utf-8") as fh:
        assert '\nsoqd = "soqd.cli:_console"\n' in fh.read()

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "soqd", *argv], capture_output=True)

    cfg = write_config(tmp_path)
    proc = run("sweep", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").exists()
    compare = ["compare", "--n", "4", "--t", "0", "--tau-max", "1", "--steps", "3"]
    assert main(compare) == 0
    proc = run(*compare)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out.encode()
    proc = run("compare", "--n", "4")
    assert (proc.returncode, proc.stdout) == (2, b"")
    obj = make_config(output_path=str(tmp_path / "missing_dir" / "out.csv"))
    (tmp_path / "unwritable.json").write_text(json.dumps(obj), encoding="utf-8")
    proc = run("sweep", "--config", str(tmp_path / "unwritable.json"))
    assert proc.returncode == 4 and b"i/o error" in proc.stderr


def run_script(script, *args):
    """``python -c script *args`` with this soqd first on the path."""
    src = os.path.dirname(os.path.dirname(cli_module.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_figure_loads_no_numpy_ma(tmp_path):
    """No figure run pulls in numpy.ma."""
    script = ("import sys, soqd\n"
              "soqd.main(['figure', '--id', '2', '--panel', 'e', '--out', sys.argv[1]])\n"
              "print('numpy.ma' in sys.modules)\n")
    assert run_script(script, str(tmp_path)) == "False"


def test_compare_loads_no_argparse_gettext_or_locale():
    """Neither import soqd nor a compare run loads argparse, or the gettext
    and locale that argparse pulls in."""
    script = ("import sys, soqd\n"
              "rc = soqd.main(['compare', '--n', '4', '--t', '0', '--tau-max', '1',"
              " '--steps', '3'])\n"
              "print(rc, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n")
    assert run_script(script) == "0 []"
