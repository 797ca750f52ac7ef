"""Command-line driver: sweeps, preset figures, method comparison, goldens.

Subcommands and options are one table, _COMMANDS, that ``soqd --help``
prints; options take exact names, as ``--name value`` or ``--name=value``.

Exit codes: 0 success, 2 config/usage error (also a grid on which t + tau
loses tau to rounding, TauUnresolved), 3 tolerance failure or unphysical
result (UnphysicalFactor), 4 I/O failure.
"""

import gc
import json
import math
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace

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
    apparatus_from_json,
    model_params_from_json,
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
#: one JSON row object as json.dump(..., indent=1) lays it out in the list
_JSON_ROW = "\n  {\n" + ",\n".join(f'   "{key}": %r' for key in CSV_COLUMNS) + "\n  }"
#: rows per block of a CSV or JSON write: one kernel call, or one write of
#: joined JSON rows, per block
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
#: 68-75 bytes per row with CSV or JSON output, with or without SVG
#: (tracemalloc, 10^5-row sweeps of two t and of one), so the largest one
#: stays under 0.2 GB
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
    if config.emit_plot and _plot_path(config.output_path) == config.output_path:
        raise ConfigError(f"'output_path' {config.output_path!r} is where 'emit_plot' "
                          "writes the plot; give the data another name")
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


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

def run_sweep(config: SweepConfig) -> CorrelationPoint:
    """Evaluate the sweep, write its output file(s) and return its columns.

    Rows come out t-major with tau ascending, one per grid node, so
    reruns of the same config are byte-identical.
    """
    taus = np.linspace(config.tau_min, config.tau_max, config.tau_steps)
    t = np.repeat(config.t_values, taus.size)
    tau = np.tile(taus, len(config.t_values))
    params, state = config.params, config.state
    # the closed form takes one t per call, the other methods the whole grid
    if config.method == "closed":
        f = np.concatenate([factor_over_tau(params, state, t0, taus) for t0 in config.t_values])
    elif config.method == "quadrature":
        f = decoherence_factor_fock_quadrature(params, state.n, t, tau)
    elif isinstance(state, FockState):
        f = decoherence_factor_oracle_fock(params, state.n, t, tau)
    else:
        f = decoherence_factor_oracle_coherent(params, state.beta0, t, tau,
                                               _coherent_cutoff(state)).value
    points = CorrelationPoint(t, tau, f, g2_interacting(f, t, tau, params.omega_e))

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

def _columns(points: CorrelationPoint, rows: slice = slice(None)) -> list:
    """The CSV_COLUMNS of ``rows``, in order; abs_F is hypot of F's parts."""
    re_f, im_f = points.f.real[rows], points.f.imag[rows]
    return [points.t[rows], points.tau[rows], re_f, im_f, np.hypot(re_f, im_f),
            points.g[rows]]


#: the byte after each cell of a CSV row
_CSV_SEPARATORS = np.frombuffer(b",,,,,\n", np.uint8)


def write_points_csv(path: str, points: CorrelationPoint) -> None:
    """CSV whose every cell is ``'%.17g' % v``: parsing recovers every bit.

    Rows go _ROW_BLOCK at a time through one ``_g17.cells`` call on the
    first cell of each run of equal bits in a column, which the run repeats."""
    from . import _g17  # here, so that import soqd does not compile the kernel

    with open(path, "wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        for lo in range(0, len(points), _ROW_BLOCK):
            block = np.stack(_columns(points, slice(lo, lo + _ROW_BLOCK)))
            bits = block.view(np.uint64)
            head = np.ones(block.shape, bool)
            np.not_equal(bits[:, 1:], bits[:, :-1], out=head[:, 1:])
            # heads are counted column after column, and every column's
            # first row is one: the count at a cell numbers its run's head
            run = np.cumsum(head).reshape(block.shape).T - 1
            cells = _g17.cells(block[head]).take(run, axis=0)
            cells[:, :, -1] = _CSV_SEPARATORS
            fh.write(cells.tobytes().translate(None, b"\0"))


def read_points_csv(path: str) -> CorrelationPoint:
    """Parse a sweep CSV back into validated columns.

    Raises ConfigError for a bad header, no rows, a short or long row or
    a cell that is not a number in UTF-8; NonFiniteParameter for a non-finite t or tau, and
    UnphysicalFactor for a row outside the physical bounds
    (CorrelationPoint's checks).
    """
    with open(path, "rb") as fh:
        if fh.readline().rstrip(b"\r\n") != CSV_HEADER.encode():
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
    """{"points": [row, ...]} with the keys of CSV_COLUMNS, written
    _ROW_BLOCK rows at a time.

    The bytes are those of json.dump(..., indent=1) plus a newline: a
    cell is the repr of its float, as json writes a finite value (sweep
    grids are finite, and CorrelationPoint refuses non-finite f and g).
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n "points": [')
        for lo in range(0, len(points), _ROW_BLOCK):
            rows = zip(*[c.tolist() for c in _columns(points, slice(lo, lo + _ROW_BLOCK))])
            fh.write(("," if lo else "") + ",".join([_JSON_ROW % row for row in rows]))
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


def _m4(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The indices, ascending, of the rows of one series that its line is
    drawn through: in each pixel column floor(x), the first and the last
    row and the first rows of least and of greatest g.  x ascends.  This
    is M4 aggregation (Jugel et al., PVLDB 7(10), 2014): the line keeps
    each column's extent in g and the rows that join it to its neighbours,
    and a series with at most four rows per column keeps them all."""
    # the first row at or past the left edge of each column after the first
    edges = np.searchsorted(x, np.arange(math.floor(x[0]) + 1.0, x[-1] + 1.0)).tolist()
    kept = []
    for lo, hi in zip([0] + edges, edges + [x.size]):
        if lo < hi:
            column = g[lo:hi]
            kept += sorted({lo, hi - 1, lo + int(column.argmin()), lo + int(column.argmax())})
    return np.array(kept)


def write_svg_plot(path: str, points: CorrelationPoint, title: str = "") -> None:
    """Fixed 800x500 polyline plot of G against tau, one line per t, each
    line drawn through the rows _m4 keeps of it.  Raises ConfigError for a
    record without rows or whose tau span overflows, before the file is
    opened."""
    if not len(points):
        raise ConfigError(f"{path!r}: no rows to plot")
    escaped = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    width, height = 800, 500
    left, right, top, bottom = 70, 20, 40, 55
    inner_w = width - left - right
    inner_h = height - top - bottom

    # one sort puts each series' points together, by tau then G.  Series
    # are keyed on the bits of t, as the CSV writer tells its runs apart,
    # so t = -0.0 gets its own line and legend (np.unique would find them
    # too, but imports numpy.ma); drawn in ascending t, 0.0 before -0.0
    t_bits = points.t.view(np.uint64)
    order = np.lexsort((points.g, points.tau, t_bits))
    bits = t_bits[order]
    bounds = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1], [True]))).tolist()
    keys = bits[bounds[:-1]].view(np.float64).tolist()
    del bits  # 8 bytes a row, not needed by the series loop
    tau_lo, tau_hi = float(points.tau.min()), float(points.tau.max())
    span = tau_hi - tau_lo or 1.0
    if span == math.inf:
        raise ConfigError(f"{path!r}: tau from {tau_lo} to {tau_hi} spans more than a float holds")

    def px(tau):
        return left + (tau - tau_lo) / span * inner_w

    def py(g):
        return top + (1.0 - np.minimum(np.maximum(g, 0.0), 1.0)) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="24" font-family="sans-serif" font-size="15">{escaped}</text>',
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

    with open(path, "wb") as fh:
        fh.write("".join(part + "\n" for part in parts).encode())
        for i, j in enumerate(np.argsort(keys, kind="stable").tolist()):
            color = _series_color(i)
            rows = order[bounds[j]:bounds[j + 1]]
            x, g = px(points.tau[rows]), points.g[rows]
            drawn = _m4(x, g)
            coords = " ".join(["%.2f,%.2f" % p
                               for p in zip(x[drawn].tolist(), py(g[drawn]).tolist())])
            fh.write(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     'stroke-width="1.3"/>\n'.encode())
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
    oracle = decoherence_factor_oracle_fock(params, n, t, taus)
    closed = factor_over_tau(params, FockState(n), t, taus)
    quadrature = decoherence_factor_fock_quadrature(params, n, t, taus)
    # every pairwise |difference|, as hypot of the parts: the bits of abs()
    f = np.stack([closed, quadrature, oracle])
    d = f[[0, 0, 1]] - f[[1, 2, 2]]
    delta = np.max(np.hypot(d.real, d.imag), axis=0)
    report = MethodComparison(taus, closed, quadrature, oracle, delta,
                              float(np.max(delta, initial=0.0)))
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

#: the dense oracle's re/im move by a few ULP under other LAPACK and BLAS
#: kernels; a regenerated value this close to the pinned one keeps its pin
_ORACLE_PIN_TOL = 1e-14


def _pinned_parts(path: str) -> dict:
    """{(key, "re" or "im"): float} already pinned at ``path``; {} without a readable file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return {(key, part): value for key, entry in json.load(fh).items()
                    for part, value in entry.items()
                    if part in ("re", "im") and isinstance(value, float)}
    except (FileNotFoundError, ValueError, AttributeError):
        return {}


def regenerate_golden(out_dir: str) -> dict:
    """Regenerate every pinned golden file under ``out_dir``.

    Figure CSVs come from the production sweep path (they pin byte-level
    determinism); the derived scalar values are pinned from the dense
    oracle, except the large-occupation decay times which only the closed
    form can reach.  An oracle re or im within _ORACLE_PIN_TOL of the
    value already pinned in ``out_dir`` keeps the pinned value, so that a
    regeneration on another host does not rewrite its last digits.
    """
    fig_dir = os.path.join(out_dir, "figures")
    os.makedirs(fig_dir, exist_ok=True)
    written = []
    for figure in (1, 2):
        for panel in PANEL_SETTINGS:
            paths = reproduce_figure(figure, panel, fig_dir)
            written.append(paths["csv"])

    p = FIGURE_PARAMS
    m22_ref = decoherence_factor_oracle_fock(p, 1, 0.0, 2.0)[0]
    fock10_ref = decoherence_factor_oracle_fock(p, 10, 0.0, 2.0)[0]
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
            "re": coherent_ref.value[0].real, "im": coherent_ref.value[0].imag,
            "tail_bound": coherent_ref.tail_bound,
        },
        "coherent_tau_decay_t0": {
            "pinned_by": "closed-form threshold search (1/e)",
            "values": tau_decay,
        },
    }
    derived_path = os.path.join(out_dir, "derived_values.json")
    for (key, part), old in _pinned_parts(derived_path).items():
        if abs(derived.get(key, {}).get(part, math.inf) - old) <= _ORACLE_PIN_TOL:
            derived[key][part] = old
    with open(derived_path, "w", encoding="utf-8") as fh:
        json.dump(derived, fh, indent=1, sort_keys=True)
        fh.write("\n")
    written.append(derived_path)
    return {"files": written}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

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
    if args.n < 0 or not 2 <= args.steps <= MAX_SWEEP_ROWS or not 0 < args.tau_max < math.inf:
        raise ConfigError(f"compare needs --n >= 0, 2 <= --steps <= {MAX_SWEEP_ROWS} "
                          "and a finite --tau-max > 0")
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


#: command -> (handler, summary, {option: (converter, default, choices)}); a
#: default of ... marks a required option, and converter bool a flag
_COMMANDS = {
    "sweep": (_cmd_sweep, "run a sweep from a JSON config", {"--config": (str, ..., ())}),
    "figure": (_cmd_figure, "reproduce a preset panel (CSV + SVG) into a directory",
               {"--id": (int, ..., (1, 2)), "--panel": (str, ..., tuple(sorted(PANEL_SETTINGS))),
                "--out": (str, ..., ())}),
    "compare": (_cmd_compare, "cross-check closed form vs quadrature vs dense oracle",
                {"--n": (int, ..., ()), "--t": (float, ..., ()), "--tau-max": (float, ..., ()),
                 "--steps": (int, 21, ())}),
    "golden": (_cmd_golden, "regenerate the pinned golden files (destructive)",
               {"--regen": (bool, ..., ()), "--out": (str, os.path.join("tests", "golden"), ())}),
}


def _print_usage(commands) -> int:
    print("usage (options by exact name, as --name value or --name=value):")
    for command, (_, summary, options) in commands.items():
        words = [f"[{name}={default}]" if default is not ... else name if convert is bool
                 else f"{name} {'|'.join(map(str, choices)) or convert.__name__}"
                 for name, (convert, default, choices) in options.items()]
        print(f"  soqd {command} {' '.join(words)}\n      {summary}")
    return 0


def _parse(argv: list):
    """(handler, args) of ``argv`` read against _COMMANDS, (_print_usage, table) for help.
    A value starting with '-' is a value; a repeated option keeps its last."""
    if not argv or argv[0] in ("-h", "--help"):
        return _print_usage, _COMMANDS
    command, rest = argv[0], iter(argv[1:])
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}, expected one of {', '.join(_COMMANDS)}")
    handler, _, options = _COMMANDS[command]
    values = {name: default for name, (_, default, _) in options.items()}
    for arg in rest:
        if arg in ("-h", "--help"):
            return _print_usage, {command: _COMMANDS[command]}
        name, eq, value = arg.partition("=")
        if name not in options or eq and options[name][0] is bool:
            raise ConfigError(f"{command}: unknown option {arg!r}")
        convert, _, choices = options[name]
        if convert is bool:
            values[name] = True
            continue
        value = value if eq else next(rest, None)
        if value is None:
            raise ConfigError(f"{command}: {name} needs a value")
        try:
            values[name] = convert(value)
        except ValueError:
            values[name] = None
        if values[name] is None or choices and values[name] not in choices:
            kind = "|".join(map(str, choices)) or convert.__name__
            raise ConfigError(f"{command}: {name} takes {kind}, got {value!r}")
    missing = [name for name, value in values.items() if value is ...]
    if missing:
        raise ConfigError(f"{command}: missing {', '.join(missing)}")
    return handler, SimpleNamespace(**{name[2:].replace("-", "_"): value
                                       for name, value in values.items()})


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        return handler(args)
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


def _console() -> int:
    """``main`` for the console script and ``python -m soqd``.

    Flushes stdout, so a reader has the whole output before the
    interpreter tears down, then moves every object into the collector's
    permanent generation, so the collections of that teardown skip them.
    """
    code = main()
    sys.stdout.flush()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(_console())
