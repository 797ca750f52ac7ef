"""In-memory span recorder that wraps soqd's public functions from outside.

``install`` replaces every public function of soqd.model, soqd.propagator,
soqd.correlation, soqd.oracle and soqd.cli with a timing wrapper, under
every name it is looked up by: ``soqd.cli.factor_over_tau`` and
``soqd.correlation.factor_over_tau`` are both patched, so a call through
either records a span.  ``CorrelationPoint`` construction is wrapped at
its ``__init__``.  Nothing under the package changes on disk.

A span is (id, parent id, name, start ns, end ns, self ns, work): self is
the duration minus the time covered by direct child spans, and work is a
size counted at the boundary (tau points, rows) for the functions in
``WORK``, else 0.  Spans live in ``array`` columns, about 56 bytes each,
and are written once by ``dump``; ``load`` and ``aggregate`` read them back.
"""

import importlib
import inspect
import json
import os
from array import array
from time import perf_counter_ns

MODULES = ("model", "propagator", "correlation", "oracle", "cli")
COLUMNS = ("sid", "parent", "name", "start", "end", "self", "work")


def _taus_size(arg):
    def size(bound, result):
        return int(getattr(bound.arguments[arg], "size", 1))
    return size


def _len_arg(arg):
    def size(bound, result):
        return len(bound.arguments[arg])
    return size


def _len_result(bound, result):
    return len(result) if result is not None else 0


#: size counted for a span, by wrapped name
WORK = {
    "propagator.transform_over_tau": _taus_size("taus"),
    "correlation.factor_over_tau": _taus_size("taus"),
    "cli.run_sweep": _len_result,
    "cli.write_points_csv": _len_arg("points"),
    "cli.write_svg_plot": _len_arg("points"),
    "cli.read_points_csv": _len_result,
}


class Tracer:
    """Span columns plus the stack of open spans of the one thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self.cols = {c: array("q") for c in COLUMNS}
        self._stack = []  # [sid, child_ns] per open span
        self.next_sid = 1

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        work_of = WORK.get(name)
        sig = inspect.signature(fn) if work_of else None
        stack = self._stack
        c = self.cols
        sid_a, par_a, name_a = c["sid"].append, c["parent"].append, c["name"].append
        start_a, end_a, self_a, work_a = (c["start"].append, c["end"].append,
                                          c["self"].append, c["work"].append)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.next_sid
            tracer.next_sid = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            result = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                work = work_of(sig.bind(*args, **kwargs), result) if work_of else 0
                sid_a(sid)
                par_a(parent)
                name_a(name_id)
                start_a(t0)
                end_a(t1)
                self_a(dur - frame[1])
                work_a(work)

        return traced

    def install(self, pkg) -> None:
        """Patch every public function of the five modules, everywhere."""
        mods = [importlib.import_module(f"{pkg.__name__}.{m}") for m in MODULES]
        namespaces = [pkg] + mods
        for short, mod in zip(MODULES, mods):
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self.wrap(obj, f"{short}.{attr}")
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, key, wrapper)
        point = mods[0].CorrelationPoint
        point.__init__ = self.wrap(point.__init__, "model.CorrelationPoint")

    def dump(self, directory: str) -> None:
        """Write the spans as ``spans.bin`` (int64 columns) + ``spans.json``."""
        with open(os.path.join(directory, "spans.bin"), "wb") as fh:
            for col in COLUMNS:
                self.cols[col].tofile(fh)
        meta = {"run_id": self.run_id, "names": self.names,
                "count": len(self.cols["sid"]), "columns": list(COLUMNS)}
        with open(os.path.join(directory, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def load(directory: str):
    """Read back ``dump`` output: (meta, {column: array})."""
    with open(os.path.join(directory, "spans.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["count"]
    cols = {}
    with open(os.path.join(directory, "spans.bin"), "rb") as fh:
        for col in meta["columns"]:
            a = array("q")
            a.fromfile(fh, n)
            cols[col] = a
    return meta, cols


def aggregate(meta, cols, split: int, totals: dict, extra: dict) -> int:
    """Add one job's spans into ``totals`` (id < ``split``) or ``extra``.

    Both map span name to [calls, total_ns, self_ns, work].  The work of a
    decoherence_time span is the number of tau points of the
    factor_over_tau spans under it.  Returns the summed duration of the
    top-level spans below ``split``.
    """
    names = meta["names"]
    search = names.index("correlation.decoherence_time")
    factor = names.index("correlation.factor_over_tau")
    name_of, parent_of = {}, {}
    if search in cols["name"]:
        name_of = dict(zip(cols["sid"], cols["name"]))
        parent_of = dict(zip(cols["sid"], cols["parent"]))
    covered = 0
    for sid, parent, nid, t0, t1, self_ns, work in zip(
            cols["sid"], cols["parent"], cols["name"], cols["start"], cols["end"],
            cols["self"], cols["work"]):
        into = totals if sid < split else extra
        acc = into.setdefault(names[nid], [0, 0, 0, 0])
        acc[0] += 1
        acc[1] += t1 - t0
        acc[2] += self_ns
        acc[3] += work
        if parent == 0 and sid < split:
            covered += t1 - t0
        if nid == factor and name_of:
            up = parent
            while up and name_of[up] != search:
                up = parent_of[up]
            if up:
                into.setdefault(names[search], [0, 0, 0, 0])[3] += work
    return covered
