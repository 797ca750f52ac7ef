"""Smoke run of the stage-timing script bench/run.py: one tiny run of each stage,
the whole soqd compare command and the decay searches included."""

import importlib.util
import json
import os

from soqd import quadrature

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  os.path.join(ROOT, "bench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_smoke_run_times_every_stage(tmp_path, capsys):
    bench = load_bench()
    out = tmp_path / "bench.json"
    assert bench.main(["--runs", "1", "--steps", "100", "--calls", "1",
                       "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert json.loads(capsys.readouterr().out) == report
    assert {"python", "numpy", "blas", "simd", "cpu", "nproc"} <= set(report["host"])
    assert set(report["columns"]["change"]) == set(bench.CONFIGS)
    metrics = [f"{stage}_ns_per_row" for stage in bench.STAGES] + ["import_ms", "peak_rss_mib"]
    for entry in report["columns"]["change"].values():
        assert entry["rows"] == 200
        for metric in metrics:
            q1, q3 = entry[metric]["iqr"]
            assert 0 < q1 <= entry[metric]["median"] <= q3
        assert entry["json_ns_per_row"]["median"] > 0
        assert entry["numpy_ma_loaded"] is False
        assert entry["svg_ms"]["median"] > 0 and entry["svg_bytes"] > 0
    crosscheck = report["crosscheck"]["change"]
    assert set(crosscheck["cells"]) == {f"n{n}-t{t:g}" for n, t in bench.CROSSCHECK_CELLS}
    for n, t in bench.CROSSCHECK_CELLS:
        entry = crosscheck["cells"][f"n{n}-t{t:g}"]
        assert entry["quadrature_nodes"] == (
            bench.CROSSCHECK_TAUS * quadrature._radial_order(n) * quadrature._ANGULAR_ORDER)
        for metric in [f"{name}_{kind}" for name in bench.METHODS
                       for kind in ("first_ms", "ms_per_call", "min_ms")] + [
                "quadrature_ns_per_node"]:
            assert entry[metric]["median"] > 0
        # the steady-state minimum is at most the steady-state median
        for name in bench.METHODS:
            assert entry[f"{name}_min_ms"]["median"] <= entry[f"{name}_ms_per_call"]["median"]
        # the whole command, spawn to exit, holds its post-import part
        wall, post = entry["command_wall_ms"]["median"], entry["command_post_import_ms"]["median"]
        assert 0 < post < wall
    assert crosscheck["import_ms"]["median"] > 0 and crosscheck["peak_rss_mib"]["median"] > 0
    # the rule's first call per order: n = 10, 40 and 160 take 18, 48 and 168 nodes
    assert set(crosscheck["quadrature_rule_ms"]) == {"18", "48", "168"}
    assert all(q["median"] > 0 for q in crosscheck["quadrature_rule_ms"].values())
    assert 0 < crosscheck["command_post_import_ms_total"]["median"] < (
        crosscheck["command_wall_ms_total"]["median"])
    # the crosscheck oracle sweep: one stacked eigh per sector per call
    oracle = report["oracle"]["change"]
    assert oracle["sectors"] == 46 and oracle["eigh_per_call"] == 46
    for metric in ("first_ms", "ms_per_call", "min_ms"):
        assert oracle[metric]["median"] > 0
    assert oracle["min_ms"]["median"] <= oracle["ms_per_call"]["median"]
    # the decay_search searches: 12 reached, 2 equal-coupling windows that
    # never decay and cost one grid
    decay = report["decay"]["change"]
    assert len(decay["cells"]) == len(bench.DECAY_CELLS) + len(bench.DECAY_NEVER) == 14
    for name, entry in decay["cells"].items():
        assert entry["reached"] is not name.endswith("-never")
        assert entry["points_per_search"] > 0 and entry["ms_per_search"]["median"] > 0
    assert 0 < decay["points_per_search_never"] <= 512
    for group in ("reached", "never"):
        assert decay[f"ms_per_search_{group}"]["median"] > 0
