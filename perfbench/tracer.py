"""Span tracing of postlie's layers, for the benchmark's traced run.

``Tracer.install`` wraps each function named in ``LAYERS`` and rebinds every
reference to it in the loaded ``postlie`` modules (and the class attribute
for methods), so calls made inside the library are caught as well as the
benchmark's own. Each call records a span: id, parent id, name, start, end
and the op it belongs to. Spans stay in memory until ``write`` saves them. Work done outside any op
(the set-up) carries the op id ``SETUP_OP``.

Self time is a span's duration minus the time covered by its child spans.
Calls are single-threaded, so children never overlap and that cover is the
sum of the children's durations.
"""

from __future__ import annotations

import fractions
import functools
import itertools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# layer -> {reported name: attribute path inside the module}
LAYERS = {
    "exactla": {
        "matmul": "Matrix.__mul__", "inverse": "Matrix.inverse", "det": "Matrix.det",
        "power": "Matrix.power", "subspace": "Subspace.from_vectors",
        "kernel": "kernel", "intersect": "intersect", "contains": "contains",
    },
    "liealg": {name: name for name in (
        "bracket", "jacobi_failure", "killing_form", "fingerprint", "derived_series",
        "lower_central_series", "center", "is_ideal", "change_basis")},
    "rbops": {name: name for name in (
        "first_rb_failure", "split_operator", "triangular_split")},
    "pastruct": {name: name for name in (
        "derived_bracket", "is_lie_homomorphism", "bracket_tower", "kernel_ideal_checks",
        "derived_dim_inequality", "triple_decomposition", "inner_pa_from_rb",
        "first_pa_failure")},
    "classify": {name: name for name in (
        "is_lie_isomorphism", "fingerprint_equal", "classify3")},
    "catalog": {name: name for name in ("verify_witness", "witnesses")},
    "cli": {name: name for name in (
        "main", "parse_algebra", "parse_operator", "emit_algebra", "emit_operator")},
}

# Functions whose repeated calls with equal arguments are wasted work.
USEFUL_RATIO = ("pastruct.derived_bracket", "pastruct.is_lie_homomorphism")

SETUP_OP = -1


def self_times(spans) -> tuple[Counter, dict]:
    """Calls and summed self time (ns) per span name."""
    covered = defaultdict(int)
    for sid, parent, name, start, end, op in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls, own = Counter(), defaultdict(int)
    for sid, parent, name, start, end, op in spans:
        calls[name] += 1
        own[name] += end - start - covered[sid]
    return calls, own


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = SETUP_OP
        self.fraction_new = 0
        self.arguments: dict[str, list] = {name: [] for name in USEFUL_RATIO}
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._restore: list[tuple] = []

    def wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        keys = self.arguments.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None and self.op != SETUP_OP:
                keys.append((args, tuple(sorted(kwargs.items()))))
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.op))
        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS in the loaded postlie modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "postlie" or key.startswith("postlie.")]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"postlie.{layer}"]
            for short, path in functions.items():
                name = f"{layer}.{short}"
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(home, cls_name)
                    raw = vars(cls)[attr]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self.wrap(name, raw.__func__))
                    else:
                        new = self.wrap(name, raw)
                    self._rebind(cls, attr, new)
                    continue
                original = getattr(home, path)
                wrapped = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, attr, wrapped)

    def _rebind(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    @contextmanager
    def counting_fractions(self):
        """Count calls of Fraction.__new__, the constructor every Fraction
        result goes through, including those of Fraction arithmetic."""
        cls = fractions.Fraction
        original = vars(cls)["__new__"]
        construct = original.__func__
        count = itertools.count()

        def counted_new(*args, **kwargs):
            next(count)
            return construct(*args, **kwargs)

        cls.__new__ = staticmethod(counted_new)
        try:
            yield
        finally:
            cls.__new__ = original
            self.fraction_new += next(count)

    def run(self, op_id, fn):
        """Call fn as op ``op_id``, under a root span of its own."""
        self.op = op_id
        try:
            return self.wrap("bench.op" if op_id != SETUP_OP else "bench.setup", fn)()
        finally:
            self.op = SETUP_OP

    def counts(self) -> dict:
        """Every exact count of the trace, for the repeatability check.

        ``calls`` and ``distinct`` count the ops only; ``setup_calls`` the set-up.
        """
        calls, _ = self_times([s for s in self.spans if s[-1] != SETUP_OP])
        setup_calls, _ = self_times([s for s in self.spans if s[-1] == SETUP_OP])
        distinct = {name: len(set(keys)) for name, keys in self.arguments.items()}
        return {"calls": dict(calls), "setup_calls": dict(setup_calls),
                "fraction_new": self.fraction_new, "distinct": distinct}

    def write(self, path, label) -> None:
        """Append the spans as tab-separated lines, labelled with the pass."""
        with open(path, "a", encoding="ascii") as fh:
            for sid, parent, name, start, end, op in self.spans:
                fh.write(f"{label}\t{op}\t{sid}\t{parent}\t{name}\t{start}\t{end}\n")
