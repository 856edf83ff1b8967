"""Layer tracing from outside the program.

`Tracer.install` replaces the public callables of each `galinv` module
with timing wrappers: module functions (also where `classify`, `checks`,
`cli` and the package re-export them under their own names) and the
methods of the classes each module defines.  A wrapper keeps a stack of
open calls, so each call's self time is its duration minus the time of
the traced calls it made.  Spans (label, start, end, parent) are kept in
memory for the coarse layers; the arithmetic kernels (`gaussrat`,
`multipoly`) are counted and timed in aggregate only, since they run
millions of times.  Everything is written out once, at the end.

Run as a script, it traces one command-line invocation:

    python3 perfbench/tracer.py OUT.jsonl -- classify2 "2i*Dt + Lap" --n 3

appends that process's aggregates as one JSON line to OUT.jsonl and
exits with the command's status.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

MODULES = (
    "gaussrat", "multipoly", "matrices", "waves", "lpdo", "actions",
    "checks", "classify", "oracle", "opparse", "cli",
)
# Private callables that mark a classifier stage or a witness search.
PRIVATE = {"classify._mu_rewrite", "checks._rotation_witness", "checks._boost_witness"}
DUNDERS = {
    "__init__": "new", "__post_init__": "new", "__add__": "add", "__radd__": "add",
    "__sub__": "sub", "__rsub__": "sub", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div", "__pow__": "pow", "__neg__": "neg",
}
KERNELS = ("gaussrat.", "multipoly.")
SPAN_LIMIT = 200_000
# (ancestor, label) pairs whose calls are also counted within that ancestor.
WATCH = {
    "multipoly.substitute": ("checks.check_rotation_invariance", "checks._rotation_witness"),
    "multipoly.evaluate": ("checks._boost_witness",),
}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []
        self.active: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.edges: dict[str, float] = defaultdict(float)
        self.scoped: dict[str, int] = defaultdict(int)
        self.probes: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []
        self.dropped = 0
        self.op = -1

    # ------------------------------------------------------------------

    def wrap(self, label: str, fn):
        tracer = self
        clock = time.perf_counter
        stack, active, calls = self.stack, self.active, self.calls
        incl, self_time, edges = self.incl, self.self_time, self.edges
        spans = self.spans
        keep_span = not label.startswith(KERNELS)
        watch = WATCH.get(label, ())
        counts_terms = label in ("multipoly.make", "multipoly.MultiPoly.new")
        probe = PROBES.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(tracer, args)
            parent = stack[-1] if stack else None
            span = -1
            if keep_span:
                if len(spans) < SPAN_LIMIT:
                    span = len(spans)
                    spans.append([label, 0.0, 0.0, _open_span(stack), tracer.op])
                else:
                    tracer.dropped += 1
            frame = [label, 0.0, span]
            stack.append(frame)
            active[label] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[label] -= 1
                duration = end - start
                calls[label] += 1
                self_time[label] += duration - frame[1]
                if not active[label]:
                    incl[label] += duration
                if parent is not None:
                    parent[1] += duration
                    edges[parent[0] + ">" + label] += duration
                if span >= 0:
                    spans[span][1] = start
                    spans[span][2] = end
                for ancestor in watch:
                    if active[ancestor]:
                        tracer.scoped[ancestor + ">" + label] += 1
            if counts_terms:
                size = len((args[0] if result is None else result).terms)
                tracer.probes["multipoly.terms_out"] += size
                if size > tracer.probes["multipoly.max_terms"]:
                    tracer.probes["multipoly.max_terms"] = size
            return result

        return traced

    def run_op(self, index: int, fn):
        """One timed operation of the workload, as the root span of its calls."""
        self.op = index
        return self.wrap("op", fn)()

    def install(self, package) -> None:
        """Wrap every public callable of the package's modules in place."""
        originals: dict[int, object] = {}
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if not name.startswith("_") or f"{short}.{name}" in PRIVATE:
                        wrapped = self.wrap(f"{short}.{name}", obj)
                        originals[id(obj)] = wrapped
                        setattr(module, name, wrapped)
                elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                      and not name.startswith("_")):
                    self._wrap_class(short, obj)
        # Names imported into other namespaces still point at the originals.
        for module in modules + [package]:
            for name, obj in list(vars(module).items()):
                if id(obj) in originals and inspect.isfunction(obj):
                    setattr(module, name, originals[id(obj)])

    def _wrap_class(self, short: str, cls) -> None:
        members = vars(cls)
        for name, raw in list(members.items()):
            if name == "__init__" and "__post_init__" in members:
                continue  # a dataclass __init__ calls __post_init__, counted once
            if name in DUNDERS:
                method = DUNDERS[name]
            elif name.startswith("__") or (name.startswith("_") and name != "_make"):
                continue
            else:
                method = name.lstrip("_")
            if method == "new":
                method = f"{cls.__name__}.new"
            label = f"{short}.{method}"
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self.wrap(label, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(label, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self.wrap(label, raw))

    # ------------------------------------------------------------------

    def aggregates(self) -> dict:
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self": dict(self.self_time),
            "edges": dict(self.edges),
            "scoped": dict(self.scoped),
            "probes": dict(self.probes),
        }

    def dump(self, path: Path) -> None:
        record = self.aggregates()
        record["spans"] = self.spans
        record["spans_dropped"] = self.dropped
        with open(path, "w") as fh:
            json.dump(record, fh)


def _open_span(stack: list[list]) -> int:
    for frame in reversed(stack):
        if frame[2] >= 0:
            return frame[2]
    return -1


def _probe_residue(tracer: Tracer, args) -> None:
    tracer.probes["checks.boost.residue_terms"] += len(args[2].terms)


def _probe_rotation_witness(tracer: Tracer, args) -> None:
    if args[1][0] == "reflection":
        tracer.probes["checks.rotation.reflection_witnesses"] += 1


PROBES = {
    "checks._boost_witness": _probe_residue,
    "checks._rotation_witness": _probe_rotation_witness,
}


def merge(records: list[dict]) -> dict:
    """Sum per-process aggregates; max_terms takes the largest."""
    out: dict = {key: defaultdict(float) for key in ("calls", "incl", "self", "edges", "scoped", "probes")}
    for record in records:
        for key in out:
            for name, value in record[key].items():
                if name == "multipoly.max_terms":
                    out[key][name] = max(out[key][name], value)
                else:
                    out[key][name] += value
    return out


def _main(argv: list[str]) -> int:
    out_path, sep, args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.jsonl -- galinv-arguments")
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    import galinv
    import galinv.cli

    imported = time.perf_counter()
    tracer = Tracer()
    tracer.install(galinv)
    status = 1
    begin = time.perf_counter()
    try:
        status = galinv.cli.main(args)
    finally:
        done = time.perf_counter()
        sys.stdout.flush()
        record = tracer.aggregates()
        record["spans"] = tracer.spans
        record["import_ms"] = (imported - start) * 1000
        record["install_ms"] = (begin - imported) * 1000
        record["main_ms"] = (done - begin) * 1000
        with open(out_path, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
