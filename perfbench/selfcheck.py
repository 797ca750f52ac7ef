"""Self-check of the benchmark itself; exits non-zero on any failure.

    python3 perfbench/selfcheck.py

From the checkout root, for every workload ``run.py`` knows (those listed
in ``BENCHMARK.json`` and the extra ones in ``workloads.py``):
  * a tiny run with ``--trace 0`` and with ``--trace 1`` passes its checks
    and emits exactly the metrics ``BENCHMARK.json`` names, with their units;
  * a tiny run with ``--corrupt`` (outputs damaged before checking) reports
    failed ops and ``correct: false``.
Then the benchmark is run in a directory holding only ``BENCHMARK.json``
and the benchmark files, where it must exit non-zero without a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

from workloads import WORKLOADS

WORK = os.path.join(".perfbench", "selfcheck")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(bench: dict, workload: str, trace: int, *extra, cwd="."):
    argv = bench["command"] + ["--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result, proc.stderr


def _metric_problems(result, expected: list) -> list:
    problems = []
    if result is None or set(result) != RESULT_KEYS:
        return [f"last line is not a result object: {result}"]
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"clean run not correct: {result['failed']}/{result['attempted']}")
    want = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metrics missing {sorted(set(want) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if name in want and entry.get("unit") != want[name]:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {want[name]!r}")
    return problems


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = [f"{w['name']}: not a workload of run.py" for w in bench["workloads"]
                if w["name"] not in WORKLOADS]
    for name in WORKLOADS:
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result, err = _run(bench, name, trace, "--size", "tiny")
            problems = _metric_problems(result, expected) if code == 0 else [
                f"exit code {code}: {err.strip()[-300:]}"]
            if trace == 0 and not problems:
                zero = [m for m, e in result["metrics"].items() if e["value"] <= 0]
                if zero:
                    problems.append(f"end-to-end metrics not positive: {zero}")
            failures += [f"{name} trace={trace}: {p}" for p in problems]
            print(f"{name} trace={trace}: {'ok' if not problems else 'FAIL'}")
        code, result, err = _run(bench, name, 0, "--size", "tiny", "--corrupt")
        caught = (code == 0 and result is not None and result["failed"] > 0
                  and not result["correct"])
        if not caught:
            failures.append(f"{name}: corrupted output not caught ({code}, {result})")
        print(f"{name} corrupt: {'caught' if caught else 'FAIL'}")

    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = _run(bench, bench["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(WORK)
    bare_ok = code != 0 and result is None
    if not bare_ok:
        failures.append(f"bare directory: exit code {code}, result {result}")
    print(f"bare directory: {'refused' if bare_ok else 'FAIL'}")

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
