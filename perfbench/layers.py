"""Per-layer metrics of a traced run, computed from aggregated spans.

Each metric names the layer (module) first.  Rates divide total (or self)
time by the calls or by the work the tracer counted at the same boundary.
A rate for a function the workload never calls comes from the coverage
calls each traced child makes after its job (``child._coverage``); call
counts, ``*.self_frac`` and ``cli.panels_byte_exact`` count the job only.
``calls`` and ``self_s`` are per traced pass.
"""

from statistics import median

from tracer import MODULES

#: (name, unit, better)
PER_LAYER = (
    [(f"{m}.import_s", "s", "lower") for m in MODULES]
    + [
        ("propagator.transform_over_tau.ns_per_point", "ns/point", "lower"),
        ("propagator.transform_over_tau.calls", "count", "lower"),
        ("propagator.compose.us_per_call", "us/call", "lower"),
        ("propagator.compose.calls", "count", "lower"),
        ("correlation.factor_over_tau.self_ns_per_point", "ns/point", "lower"),
        ("correlation.g2_interacting.ns_per_call", "ns/call", "lower"),
        ("correlation.quadrature.ms_per_call", "ms/call", "lower"),
        ("correlation.decoherence_time.ms_per_call", "ms/call", "lower"),
        ("correlation.decoherence_time.points_per_search", "points/search", "lower"),
        ("model.correlation_point.ns_per_row", "ns/row", "lower"),
        ("oracle.fock.ms_per_call", "ms/call", "lower"),
        ("oracle.coherent.ms_per_call", "ms/call", "lower"),
        ("oracle.sector_propagator.self_s", "s", "lower"),
        ("oracle.sector_propagator.calls_per_factor", "calls/factor", "lower"),
        ("cli.run_sweep.self_ns_per_row", "ns/row", "lower"),
        ("cli.write_points_csv.ns_per_row", "ns/row", "lower"),
        ("cli.write_svg_plot.ns_per_row", "ns/row", "lower"),
        ("cli.read_points_csv.ns_per_row", "ns/row", "lower"),
        ("cli.compare_methods.self_ms_per_call", "ms/call", "lower"),
        ("cli.panels_byte_exact", "count", "higher"),
    ]
    + [(f"{m}.self_frac", "frac", "lower") for m in MODULES]
    + [
        ("trace.setup_frac", "frac", "lower"),
        ("trace.uncovered_frac", "frac", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
)


def _ratio(num, den, scale=1.0) -> float:
    return num / den * scale if den else 0.0


def compute(totals: dict, coverage: dict, trace: dict) -> dict:
    """Metric name -> value.

    ``totals`` and ``coverage`` map span name to [calls, total_ns, self_ns,
    work] for the jobs' and the coverage calls' spans.  ``trace`` holds:
    ``passes`` (traced pass count), ``wall_s``, ``setup_s`` and
    ``covered_s`` (summed over traced jobs, coverage calls excluded),
    ``imports`` (module -> list of cumulative import seconds),
    ``traced_walls`` and ``plain_walls`` (pass wall times) and ``byte_exact``.
    """
    def source(name):
        return totals if totals.get(name, [0])[0] else coverage

    def get(name):
        return source(name).get(name, [0, 0, 0, 0])

    def per_work(name, col):
        acc = get(name)
        return _ratio(acc[col], acc[3])

    def per_call(name, col, scale):
        acc = get(name)
        return _ratio(acc[col], acc[0], scale)

    def job_calls(name):
        return _ratio(totals.get(name, [0])[0], passes)

    passes = trace["passes"]
    wall = trace["wall_s"]
    fock = "oracle.decoherence_factor_oracle_fock"
    out = {f"{m}.import_s": median(trace["imports"][m]) if trace["imports"][m] else 0.0
           for m in MODULES}
    out.update({
        "propagator.transform_over_tau.ns_per_point":
            per_work("propagator.transform_over_tau", 1),
        "propagator.transform_over_tau.calls": job_calls("propagator.transform_over_tau"),
        "propagator.compose.us_per_call": per_call("propagator.compose", 1, 1e-3),
        "propagator.compose.calls": job_calls("propagator.compose"),
        "correlation.factor_over_tau.self_ns_per_point":
            per_work("correlation.factor_over_tau", 2),
        "correlation.g2_interacting.ns_per_call":
            per_call("correlation.g2_interacting", 1, 1.0),
        "correlation.quadrature.ms_per_call":
            per_call("correlation.decoherence_factor_fock_quadrature", 1, 1e-6),
        "correlation.decoherence_time.ms_per_call":
            per_call("correlation.decoherence_time", 1, 1e-6),
        "correlation.decoherence_time.points_per_search":
            per_call("correlation.decoherence_time", 3, 1.0),
        "model.correlation_point.ns_per_row":
            per_call("model.CorrelationPoint", 1, 1.0),
        "oracle.fock.ms_per_call": per_call(fock, 1, 1e-6),
        "oracle.coherent.ms_per_call":
            per_call("oracle.decoherence_factor_oracle_coherent", 1, 1e-6),
        "oracle.sector_propagator.self_s":
            _ratio(get("oracle.sector_propagator")[2], passes, 1e-9),
        "oracle.sector_propagator.calls_per_factor":
            _ratio(source(fock).get("oracle.sector_propagator", [0])[0],
                   source(fock).get(fock, [0])[0]),
        "cli.run_sweep.self_ns_per_row": per_work("cli.run_sweep", 2),
        "cli.write_points_csv.ns_per_row": per_work("cli.write_points_csv", 1),
        "cli.write_svg_plot.ns_per_row": per_work("cli.write_svg_plot", 1),
        "cli.read_points_csv.ns_per_row": per_work("cli.read_points_csv", 1),
        "cli.compare_methods.self_ms_per_call":
            per_call("cli.compare_methods", 2, 1e-6),
        "cli.panels_byte_exact": float(trace["byte_exact"]),
    })
    for m in MODULES:
        self_ns = sum(acc[2] for name, acc in totals.items()
                      if name.startswith(m + "."))
        out[f"{m}.self_frac"] = _ratio(self_ns * 1e-9, wall)
    out["trace.setup_frac"] = _ratio(trace["setup_s"], wall)
    out["trace.uncovered_frac"] = _ratio(wall - trace["covered_s"], wall)
    plain = median(trace["plain_walls"])
    out["trace.overhead_frac"] = _ratio(median(trace["traced_walls"]) - plain, plain)
    return out
