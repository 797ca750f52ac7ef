"""Command-line driver: sweeps, preset figures, method comparison, goldens.

Subcommands
    sweep    run a (t, tau) sweep described by a JSON config file
    figure   reproduce one preset panel (CSV + SVG) into a directory
    compare  cross-check closed form vs quadrature vs dense oracle
    golden   regenerate the pinned golden files (oracle-derived)

Exit codes: 0 success, 2 config/usage error (also a grid on which t + tau
loses tau to rounding, TauUnresolved), 3 tolerance failure or unphysical
result (UnphysicalFactor), 4 I/O failure.
"""

import argparse
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .correlation import (
    _complex,
    decoherence_time,
    factor_over_tau,
    g2_interacting,
)
from .model import (
    ApparatusState,
    CoherentState,
    ConfigError,
    CorrelationPoint,
    FockState,
    ModelParams,
    SimulationError,
    ToleranceExceeded,
    UnphysicalFactor,
    _t_prime,
    apparatus_from_json,
    apparatus_to_json,
    model_params_from_json,
    model_params_to_json,
)
from .oracle import (
    SECTOR_GUARD,
    decoherence_factor_oracle_coherent,
    decoherence_factor_oracle_fock,
    min_cutoff,
)
from .quadrature import QUADRATURE_OCCUPATION_GUARD, decoherence_factor_fock_quadrature

__all__ = [
    "SweepConfig",
    "load_sweep_config",
    "sweep_config_from_json",
    "run_sweep",
    "write_points_csv",
    "read_points_csv",
    "FIGURE_PARAMS",
    "PANEL_SETTINGS",
    "FIGURE_TAU_MAX",
    "FIGURE_TAU_STEPS",
    "reproduce_figure",
    "MethodComparison",
    "compare_methods",
    "regenerate_golden",
    "main",
]

#: one column per field of a sweep row, in CSV order; JSON rows use the same keys
CSV_COLUMNS = ("t", "tau", "re_F", "im_F", "abs_F", "G")
CSV_HEADER = ",".join(CSV_COLUMNS)
#: names np.loadtxt decompresses when it is given the path
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
#: JSON columns that repeat values (t per block, tau in every t block, G on
#: the decayed plateau): converted once per distinct value, then placed as text
_TEXT_COLUMNS = ("t", "tau", "G")
#: one JSON row object as json.dump(..., indent=1) lays it out in the list
_JSON_ROW = "\n  {\n" + ",\n".join(
    f'   "{key}": {"%s" if key in _TEXT_COLUMNS else "%r"}' for key in CSV_COLUMNS) + "\n  }"
#: rows per block of a CSV, JSON or SVG write: one kernel call or one % call each
_ROW_BLOCK = 2 ** 11

#: parameters behind every preset panel
FIGURE_PARAMS = ModelParams(omega1=0.2, omega2=1.3, d_e=0.8, d_g=0.2, omega_e=1.0)

#: panel letter -> (mean occupation, first measurement time)
PANEL_SETTINGS = {
    "a": (10, 0.0),
    "b": (10, 10.0),
    "c": (100, 0.0),
    "d": (100, 10.0),
    "e": (10_000, 0.0),
    "f": (10_000, 10.0),
}

#: tau window per occupation: larger N decoheres faster, so zoom in
FIGURE_TAU_MAX = {10: 20.0, 100: 5.0, 10_000: 0.5}
FIGURE_TAU_STEPS = 600

#: largest len(t_values) * tau_steps a sweep accepts.  A sweep peaks at
#: about 155 bytes per row with JSON output and 110 with CSV or CSV + SVG
#: (tracemalloc, 10^5-row sweeps), so the largest one stays near 0.3 GB
MAX_SWEEP_ROWS = 2_000_000


# ---------------------------------------------------------------------------
# sweep config
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    params: ModelParams
    state: ApparatusState
    t_values: tuple
    tau_min: float
    tau_max: float
    tau_steps: int
    method: str = "closed"
    output_path: str = "sweep.csv"
    output_format: str = "csv"
    emit_plot: bool = False


_TOP_KEYS = {
    "omega1", "omega2", "d_e", "d_g", "omega_e", "apparatus", "t_values",
    "tau_min", "tau_max", "tau_steps", "method", "output_path",
    "output_format", "emit_plot",
}


def _real_number(obj, key):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{key!r} must be a finite real number")
    return float(v)


def sweep_config_from_json(obj: dict) -> SweepConfig:
    """Validate a config dict and build a SweepConfig from it."""
    if not isinstance(obj, dict):
        raise ConfigError("sweep config must be a JSON object")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    required = ("omega1", "omega2", "d_e", "d_g", "omega_e", "apparatus",
                "t_values", "tau_min", "tau_max", "tau_steps", "output_path")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")

    params = model_params_from_json(
        {k: obj[k] for k in ("omega1", "omega2", "d_e", "d_g", "omega_e")})
    state = apparatus_from_json(obj["apparatus"])

    raw_ts = obj["t_values"]
    if not isinstance(raw_ts, list) or not raw_ts:
        raise ConfigError("'t_values' must be a non-empty list")
    t_values = []
    for v in raw_ts:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ConfigError("'t_values' entries must be finite real numbers")
        if v < 0:
            raise ConfigError("'t_values' entries must be >= 0")
        t_values.append(float(v))

    tau_min = _real_number(obj, "tau_min")
    tau_max = _real_number(obj, "tau_max")
    tau_steps = obj["tau_steps"]
    if isinstance(tau_steps, bool) or not isinstance(tau_steps, int):
        raise ConfigError("'tau_steps' must be an integer")
    method = obj.get("method", "closed")
    output_format = obj.get("output_format", "csv")
    emit_plot = obj.get("emit_plot", False)
    if not isinstance(emit_plot, bool):
        raise ConfigError("'emit_plot' must be a boolean")
    output_path = obj["output_path"]
    if not isinstance(output_path, str) or not output_path:
        raise ConfigError("'output_path' must be a non-empty string")

    config = SweepConfig(params=params, state=state, t_values=tuple(t_values),
                         tau_min=tau_min, tau_max=tau_max, tau_steps=tau_steps,
                         method=method, output_path=output_path,
                         output_format=output_format, emit_plot=emit_plot)
    _validate_sweep_config(config)
    return config


def _coherent_cutoff(state: CoherentState) -> int:
    return min_cutoff(abs(state.beta0) ** 2)


def _validate_sweep_config(config: SweepConfig) -> None:
    if config.tau_min >= config.tau_max:
        raise ConfigError("'tau_min' must be strictly below 'tau_max'")
    if config.tau_steps < 2:
        raise ConfigError("'tau_steps' must be >= 2")
    rows = len(config.t_values) * config.tau_steps
    if rows > MAX_SWEEP_ROWS:
        raise ConfigError(f"sweep of {rows} rows exceeds the limit of {MAX_SWEEP_ROWS} "
                          "(len(t_values) * tau_steps); split it into smaller sweeps")
    if min(config.t_values) + config.tau_min < 0:
        raise ConfigError("t + tau must stay >= 0 over the grid")
    if len({t.hex() for t in config.t_values}) < len(config.t_values):
        raise ConfigError("'t_values' must not repeat a value (0.0 and -0.0 differ)")
    if config.method not in ("closed", "quadrature", "oracle"):
        raise ConfigError(f"unknown method {config.method!r}")
    if config.output_format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {config.output_format!r}")
    if config.method == "quadrature":
        if not isinstance(config.state, FockState):
            raise ConfigError("method 'quadrature' needs a fock apparatus")
        if config.state.n > QUADRATURE_OCCUPATION_GUARD:
            raise ConfigError(
                f"fock n = {config.state.n} exceeds the quadrature guard "
                f"{QUADRATURE_OCCUPATION_GUARD}")
    if config.method == "oracle":
        if isinstance(config.state, FockState):
            if config.state.n > SECTOR_GUARD:
                raise ConfigError(
                    f"fock n = {config.state.n} exceeds the dense guard {SECTOR_GUARD}")
        else:
            if config.state.alpha0 != 0:
                raise ConfigError("method 'oracle' needs mode 1 empty (alpha0 = 0)")
            if _coherent_cutoff(config.state) > SECTOR_GUARD:
                raise ConfigError(
                    "coherent occupation too large for the dense oracle "
                    f"(needs cutoff {_coherent_cutoff(config.state)} > {SECTOR_GUARD})")


def load_sweep_config(path: str) -> SweepConfig:
    """Read and validate a JSON sweep config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return sweep_config_from_json(obj)


def sweep_config_to_json(config: SweepConfig) -> dict:
    out = model_params_to_json(config.params)
    out.update({
        "apparatus": apparatus_to_json(config.state),
        "t_values": list(config.t_values),
        "tau_min": config.tau_min,
        "tau_max": config.tau_max,
        "tau_steps": config.tau_steps,
        "method": config.method,
        "output_path": config.output_path,
        "output_format": config.output_format,
        "emit_plot": config.emit_plot,
    })
    return out


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

def _factor_series(config: SweepConfig, taus: np.ndarray, t: np.ndarray,
                   t_prime: np.ndarray) -> np.ndarray:
    """F over the (t, tau) grid flattened t-major: ``taus`` is one t block,
    ``t`` and ``t_prime`` = t + tau are the flat grid."""
    params, state = config.params, config.state
    if config.method == "closed":
        return np.concatenate([factor_over_tau(params, state, t0, taus)
                               for t0 in config.t_values])
    # one quadrature or oracle call for the whole grid
    if config.method == "quadrature":
        return decoherence_factor_fock_quadrature(params, state.n, t, t_prime)
    if isinstance(state, FockState):
        return decoherence_factor_oracle_fock(params, state.n, t, t_prime)
    return decoherence_factor_oracle_coherent(
        params, state.beta0, t, t_prime, _coherent_cutoff(state)).value


def run_sweep(config: SweepConfig) -> CorrelationPoint:
    """Evaluate the sweep, write its output file(s) and return its columns.

    Rows come out t-major with tau ascending, one per grid node, so
    reruns of the same config are byte-identical.
    """
    taus = np.linspace(config.tau_min, config.tau_max, config.tau_steps)
    t = np.repeat(config.t_values, taus.size)
    tau = np.tile(taus, len(config.t_values))
    t_prime = _t_prime(t, tau)
    f = _factor_series(config, taus, t, t_prime)
    points = CorrelationPoint(t, tau, f, g2_interacting(f, t, t_prime, config.params.omega_e))

    if config.output_format == "csv":
        write_points_csv(config.output_path, points)
    else:
        write_points_json(config.output_path, points)
    if config.emit_plot:
        write_svg_plot(_plot_path(config.output_path), points,
                       title=_plot_title(config))
    return points


def _plot_path(output_path: str) -> str:
    stem, _ = os.path.splitext(output_path)
    return stem + ".svg"


def _plot_title(config: SweepConfig) -> str:
    if isinstance(config.state, FockState):
        prep = f"number state n={config.state.n}"
    else:
        prep = f"coherent |beta0|^2={abs(config.state.beta0) ** 2:g}"
    return f"{prep}, method={config.method}"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _text_column(column: np.ndarray) -> np.ndarray:
    """``repr`` of every entry as an object array of str, one conversion
    per distinct value.  Values are told apart by their bits, so -0.0
    keeps its own text."""
    bits, where = np.unique(column.view(np.uint64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[where]


def _json_rows(columns) -> Iterator[str]:
    """The rows of a JSON sweep file, _ROW_BLOCK at a time: row i is
    _JSON_ROW of the i-th entry of every column, and a block is one % over
    a flat tuple.  Concatenated, the pieces are ",".join of the rows."""
    size = len(columns[0])
    for lo in range(0, size, _ROW_BLOCK):
        cells = np.empty((min(_ROW_BLOCK, size - lo), len(columns)), dtype=object)
        for j, column in enumerate(columns):
            cells[:, j] = column[lo:lo + _ROW_BLOCK]
        if lo:
            yield ","
        yield ",".join([_JSON_ROW] * len(cells)) % tuple(cells.ravel().tolist())


def _columns(points: CorrelationPoint, rows: slice = slice(None)) -> list:
    """The CSV_COLUMNS of ``rows``, in order; abs_F is hypot of F's parts."""
    re_f, im_f = points.f.real[rows], points.f.imag[rows]
    return [points.t[rows], points.tau[rows], re_f, im_f, np.hypot(re_f, im_f),
            points.g[rows]]


#: the byte after each cell of a CSV row
_CSV_SEPARATORS = np.frombuffer(b",,,,,\n", np.uint8)


def write_points_csv(path: str, points: CorrelationPoint) -> None:
    """CSV whose every cell is ``'%.17g' % v``: parsing recovers every bit.

    Rows are formatted _ROW_BLOCK at a time by one ``_g17.cells`` call."""
    from . import _g17  # here, so that import soqd does not compile the kernel

    with open(path, "wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        for lo in range(0, len(points), _ROW_BLOCK):
            block = np.stack(_columns(points, slice(lo, lo + _ROW_BLOCK)), axis=1)
            cells = _g17.cells(block.ravel()).reshape(block.shape + (_g17.CELL,))
            cells[:, :, -1] = _CSV_SEPARATORS
            fh.write(cells.tobytes().translate(None, b"\0"))


def read_points_csv(path: str) -> CorrelationPoint:
    """Parse a sweep CSV back into validated columns.

    Raises ConfigError for a bad header, no rows, a short or long row or
    a non-numeric cell; NonFiniteParameter for a non-finite t or tau, and
    UnphysicalFactor for a row outside the physical bounds
    (CorrelationPoint's checks).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if fh.readline().rstrip("\r\n") != CSV_HEADER:
            raise ConfigError(f"{path!r} is not a sweep CSV (bad header)")
        if not fh.readline().strip():
            raise ConfigError(f"{path!r} has no rows")
        fh.seek(0)
        # numpy parses a str path in chunks but iterates a handle line by
        # line.  A name numpy would decompress by its suffix is read
        # through the handle; the path is made absolute so that numpy
        # never takes it for a URL
        name = os.path.abspath(path)
        source = fh if name.endswith(_COMPRESSED_SUFFIXES) else name
        try:
            cols = np.loadtxt(source, delimiter=",", comments=None, ndmin=2, skiprows=1,
                              encoding="utf-8")
        except ValueError as exc:
            raise ConfigError(f"{path!r}: malformed row: {exc}") from exc
    if cols.shape[1] != len(CSV_COLUMNS):
        raise ConfigError(f"{path!r}: rows have {cols.shape[1]} cells, "
                          f"expected {len(CSV_COLUMNS)}")
    t, tau, re_f, im_f, _abs_f, g = cols.T
    return CorrelationPoint(t, tau, _complex(re_f, im_f), g)


def write_points_json(path: str, points: CorrelationPoint) -> None:
    """{"points": [row, ...]} with the keys of CSV_COLUMNS, streamed in
    blocks of rows.

    The bytes are those of json.dump(..., indent=1) plus a newline: a
    float cell is written as its repr, as json does for finite values
    (sweep grids are finite, and CorrelationPoint refuses non-finite f
    and g).
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n "points": [')
        # t, tau and G are converted once per distinct value, re_F, im_F
        # and abs_F reach the rows as floats
        fh.writelines(_json_rows([
            _text_column(column) if key in _TEXT_COLUMNS else column
            for key, column in zip(CSV_COLUMNS, _columns(points))]))
        fh.write("\n ]\n}\n" if len(points) else "]\n}\n")


# ---------------------------------------------------------------------------
# SVG output (self-contained, no plotting dependency)
# ---------------------------------------------------------------------------

_PALETTE = ("#1f6feb", "#d73a49", "#2da44e", "#8250df", "#bf8700")

#: legend lines per column, one every 16 px down the plot's height; later
#: series start a new column to the left
_LEGEND_ROWS = 25
_LEGEND_COLUMN_WIDTH = 90


def _series_color(i: int) -> str:
    """The palette for the first series, then hues a golden angle apart."""
    if i < len(_PALETTE):
        return _PALETTE[i]
    import colorsys  # only plots of more than five series need it

    rgb = colorsys.hls_to_rgb(i * 0.6180339887498949 % 1.0, 0.4, 0.75)
    return "#" + "".join(f"{round(255 * c):02x}" for c in rgb)


def write_svg_plot(path: str, points: CorrelationPoint, title: str = "") -> None:
    """Fixed 800x500 polyline plot of G against tau, one line per t,
    written as its points are formatted."""
    width, height = 800, 500
    left, right, top, bottom = 70, 20, 40, 55
    inner_w = width - left - right
    inner_h = height - top - bottom

    # one sort puts each series' points together, by tau then G.  Series
    # are keyed on the bits of t, as _text_column keys its text, so
    # t = -0.0 gets its own line and legend (np.unique would find them
    # too, but imports numpy.ma); drawn in ascending t, 0.0 before -0.0
    t_bits = points.t.view(np.uint64)
    order = np.lexsort((points.g, points.tau, t_bits))
    bits = t_bits[order]
    bounds = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1], [True]))).tolist()
    keys = bits[bounds[:-1]].view(np.float64).tolist()
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
    ]
    # axes
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + inner_h}" '
                 'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{left}" y1="{top + inner_h}" x2="{left + inner_w}" '
                 f'y2="{top + inner_h}" stroke="black" stroke-width="1"/>')
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

    # legend columns close up if there are too many to fit side by side
    columns = -(-len(keys) // _LEGEND_ROWS)
    column_width = min(_LEGEND_COLUMN_WIDTH,
                       (inner_w - _LEGEND_COLUMN_WIDTH) // max(1, columns - 1))

    from . import _fixed2  # here, so that import soqd does not compile the kernel

    with open(path, "wb") as fh:
        fh.write("".join(part + "\n" for part in parts).encode())
        for i, j in enumerate(np.argsort(keys, kind="stable").tolist()):
            color = _series_color(i)
            start, stop = bounds[j], bounds[j + 1]
            fh.write(b'<polyline points="')
            for lo in range(start, stop, _ROW_BLOCK):
                rows = order[lo:min(lo + _ROW_BLOCK, stop)]
                if lo > start:
                    fh.write(b" ")
                fh.write(_fixed2.points(px(points.tau[rows]), py(points.g[rows])))
            fh.write(f'" fill="none" stroke="{color}" stroke-width="1.3"/>\n'.encode())
            if len(keys) > 1:
                column, row = divmod(i, _LEGEND_ROWS)
                fh.write(f'<text x="{left + inner_w - 6 - column_width * column}" '
                         f'y="{top + 16 + 16 * row}" '
                         f'font-family="sans-serif" font-size="12" text-anchor="end" '
                         f'fill="{color}">t = {keys[j]:g}</text>\n'.encode())
        fh.write(b"</svg>\n")


# ---------------------------------------------------------------------------
# preset figures
# ---------------------------------------------------------------------------

def _panel_config(figure: int, panel: str, out_dir: str) -> SweepConfig:
    n, t = PANEL_SETTINGS[panel]
    if figure == 1:
        state: ApparatusState = CoherentState(0j, complex(math.sqrt(n)))
    else:
        state = FockState(n)
    base = os.path.join(out_dir, f"fig{figure}{panel}")
    return SweepConfig(
        params=FIGURE_PARAMS, state=state, t_values=(float(t),),
        tau_min=0.0, tau_max=FIGURE_TAU_MAX[n], tau_steps=FIGURE_TAU_STEPS,
        method="closed", output_path=base + ".csv", output_format="csv",
        emit_plot=True)


def reproduce_figure(figure: int, panel: str, out_dir: str) -> dict:
    """Write one preset panel (CSV + SVG); returns the file paths."""
    if figure not in (1, 2):
        raise ConfigError(f"figure id must be 1 or 2, got {figure}")
    if panel not in PANEL_SETTINGS:
        raise ConfigError(f"panel must be one of a..f, got {panel!r}")
    os.makedirs(out_dir, exist_ok=True)
    config = _panel_config(figure, panel, out_dir)
    run_sweep(config)
    return {"csv": config.output_path, "svg": _plot_path(config.output_path)}


# ---------------------------------------------------------------------------
# method comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MethodComparison:
    """The three factor columns on a tau grid, one entry per tau, with
    each row's largest pairwise |delta| and the largest over the grid."""

    tau: np.ndarray
    f_closed: np.ndarray
    f_quadrature: np.ndarray
    f_oracle: np.ndarray
    delta: np.ndarray
    max_delta: float


def compare_methods(params: ModelParams, n: int, t: float, tau_grid,
                    tolerance: float = 1e-6) -> MethodComparison:
    """Evaluate all three factor paths on a tau grid and cross-diff them.

    Raises ToleranceExceeded (report attached) if any pairwise deviation
    beats ``tolerance`` or is NaN.
    """
    taus = np.asarray(tau_grid, dtype=float)
    t_prime = _t_prime(t, taus)
    oracle = decoherence_factor_oracle_fock(params, n, t, t_prime)
    closed = factor_over_tau(params, FockState(n), t, taus)
    quadrature = decoherence_factor_fock_quadrature(params, n, t, t_prime)
    # every pairwise |difference|, as hypot of the parts: the bits of abs()
    f = np.stack([closed, quadrature, oracle])
    d = f[[0, 0, 1]] - f[[1, 2, 2]]
    delta = np.max(np.hypot(d.real, d.imag), axis=0)
    report = MethodComparison(taus, closed, quadrature, oracle, delta, float(np.max(delta)))
    if not report.max_delta <= tolerance:
        raise ToleranceExceeded(
            f"methods disagree: max |delta| = {report.max_delta:.3e}, "
            f"beyond the tolerance {tolerance:g}", report)
    return report


def _print_comparison(report: MethodComparison) -> None:
    print(f"{'tau':>10}  {'closed':>25}  {'quadrature':>25}  "
          f"{'oracle':>25}  {'max|delta|':>11}")
    columns = (report.tau, report.f_closed, report.f_quadrature, report.f_oracle,
               report.delta)
    for tau, fc, fq, fo, delta in zip(*(column.tolist() for column in columns)):
        print(f"{tau:10.5f}  {fc.real:+.9f}{fc.imag:+.9f}j  "
              f"{fq.real:+.9f}{fq.imag:+.9f}j  "
              f"{fo.real:+.9f}{fo.imag:+.9f}j  "
              f"{delta:11.3e}")
    print(f"max pairwise |delta| = {report.max_delta:.3e}")


# ---------------------------------------------------------------------------
# golden files
# ---------------------------------------------------------------------------

def regenerate_golden(out_dir: str) -> dict:
    """Regenerate every pinned golden file under ``out_dir``.

    Figure CSVs come from the production sweep path (they pin byte-level
    determinism); the derived scalar values are pinned from the dense
    oracle, except the large-occupation decay times which only the closed
    form can reach.
    """
    fig_dir = os.path.join(out_dir, "figures")
    os.makedirs(fig_dir, exist_ok=True)
    written = []
    for figure in (1, 2):
        for panel in PANEL_SETTINGS:
            paths = reproduce_figure(figure, panel, fig_dir)
            written.append(paths["csv"])

    p = FIGURE_PARAMS
    m22_ref = decoherence_factor_oracle_fock(p, 1, 0.0, 2.0)
    fock10_ref = decoherence_factor_oracle_fock(p, 10, 0.0, 2.0)
    coherent_ref = decoherence_factor_oracle_coherent(
        p, complex(math.sqrt(10)), 0.0, 2.0, cutoff=120)
    tau_decay = {
        str(n): decoherence_time(p, CoherentState(0j, complex(math.sqrt(n))), 0.0)
        for n in (10, 100, 10_000)
    }
    derived = {
        "m22_preset_t0_tp2": {
            "pinned_by": "dense oracle, sector 1",
            "re": m22_ref.real, "im": m22_ref.imag,
        },
        "fock10_f_preset_t0_tp2": {
            "pinned_by": "dense oracle, sector 10",
            "re": fock10_ref.real, "im": fock10_ref.imag,
        },
        "coherent_sqrt10_f_preset_t0_tp2": {
            "pinned_by": "dense oracle, Poisson mixture, cutoff 120",
            "re": coherent_ref.value.real, "im": coherent_ref.value.imag,
            "tail_bound": coherent_ref.tail_bound,
        },
        "coherent_tau_decay_t0": {
            "pinned_by": "closed-form threshold search (1/e)",
            "values": tau_decay,
        },
    }
    derived_path = os.path.join(out_dir, "derived_values.json")
    with open(derived_path, "w", encoding="utf-8") as fh:
        json.dump(derived, fh, indent=1, sort_keys=True)
        fh.write("\n")
    written.append(derived_path)
    return {"files": written}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soqd",
        description="Second-order decoherence sweeps for a two-mode boson "
                    "field probed by a two-oscillator detector.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a sweep from a JSON config")
    p_sweep.add_argument("--config", required=True, help="path to config JSON")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="reproduce a preset panel")
    p_fig.add_argument("--id", type=int, choices=(1, 2), required=True,
                       help="preset figure id")
    p_fig.add_argument("--panel", choices=sorted(PANEL_SETTINGS), required=True)
    p_fig.add_argument("--out", required=True, help="output directory")
    p_fig.set_defaults(func=_cmd_figure)

    p_cmp = sub.add_parser("compare", help="cross-check the three factor paths")
    p_cmp.add_argument("--n", type=int, required=True, help="fock occupation")
    p_cmp.add_argument("--t", type=float, required=True, help="first time")
    p_cmp.add_argument("--tau-max", type=float, required=True)
    p_cmp.add_argument("--steps", type=int, default=21)
    p_cmp.set_defaults(func=_cmd_compare)

    p_gold = sub.add_parser("golden", help="regenerate pinned golden files")
    p_gold.add_argument("--regen", action="store_true", required=True,
                        help="confirm regeneration (destructive)")
    p_gold.add_argument("--out", default=os.path.join("tests", "golden"),
                        help="golden directory (default: tests/golden)")
    p_gold.set_defaults(func=_cmd_golden)
    return parser


def _cmd_sweep(args) -> int:
    config = load_sweep_config(args.config)
    points = run_sweep(config)
    print(f"wrote {len(points)} rows to {config.output_path}")
    if config.emit_plot:
        print(f"wrote plot to {_plot_path(config.output_path)}")
    return 0


def _cmd_figure(args) -> int:
    paths = reproduce_figure(args.id, args.panel, args.out)
    print(f"wrote {paths['csv']} and {paths['svg']}")
    return 0


def _cmd_compare(args) -> int:
    if args.n < 0 or args.steps < 2 or not 0 < args.tau_max < math.inf:
        raise ConfigError("compare needs --n >= 0, --steps >= 2 and a finite --tau-max > 0")
    if not math.isfinite(args.t):
        raise ConfigError(f"compare needs a finite --t, got {args.t}")
    tau_grid = np.linspace(0.0, args.tau_max, args.steps)
    try:
        report = compare_methods(FIGURE_PARAMS, args.n, args.t, tau_grid)
    except ToleranceExceeded as exc:
        if exc.report is not None:
            _print_comparison(exc.report)
        print(f"FAIL: {exc}", file=sys.stderr)
        return 3
    _print_comparison(report)
    return 0


def _cmd_golden(args) -> int:
    result = regenerate_golden(args.out)
    for path in result["files"]:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UnphysicalFactor as exc:
        print(f"unphysical result: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
