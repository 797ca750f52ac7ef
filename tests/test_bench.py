"""Smoke run of the stage-timing script bench/run.py: one tiny run of each stage."""

import importlib.util
import json
import os

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
        assert entry["numpy_ma_loaded"] is False
    crosscheck = report["crosscheck"]["change"]
    assert set(crosscheck["cells"]) == {f"n{n}-t{t:g}" for n, t in bench.CROSSCHECK_CELLS}
    for entry in crosscheck["cells"].values():
        assert entry["quadrature_nodes"] >= bench.CROSSCHECK_TAUS * 64 * 64
        for metric in [f"{name}_ms_per_call" for name in bench.METHODS] + [
                "quadrature_ns_per_node"]:
            assert entry[metric]["median"] > 0
    assert crosscheck["import_ms"]["median"] > 0 and crosscheck["peak_rss_mib"]["median"] > 0
