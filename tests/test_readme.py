"""README's library quick start runs as written, so the docs cannot keep
naming a function the package no longer has."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _quick_start() -> str:
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "quick_start"}
    exec(compile(_quick_start(), "README quick start", "exec"), namespace)
    assert len(namespace["points"]) == 202
    assert (tmp_path / "sweep.csv").is_file()
