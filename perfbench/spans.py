"""Spans around the public functions of each extremal_lab module.

The wrappers are installed from here, not from the program: each public
function is replaced, in every loaded extremal_lab module, at the name its
callers look up (`critical.isolate_real_roots`, `cli.fraction_to_decimal`,
`exactpoly.fraction_to_decimal`, ... all become one wrapper).  A function
the program no longer has is skipped, so the traced run survives refactors.

A span is [name, start, end, parent index, op id]; one traced process is
one op.  Spans and counters stay in memory and are written once, when the
process ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: (module, function) pairs that get a span
TARGETS = (
    ("exactpoly", "isolate_real_roots"),
    ("exactpoly", "count_real_roots"),
    ("exactpoly", "sturm_chain"),
    ("exactpoly", "fraction_to_decimal"),
    ("critical", "page_class"),
    ("critical", "two_point_class"),
    ("critical", "scan_three_point"),
    ("_kernels", "scan_eval"),
    ("energy", "verify_identity"),
    ("energy", "solve_unknown_coefficient"),
    ("energy", "energy_composed"),
    ("delpezzo", "kahler_violation"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_energy"),
    ("cli", "cmd_critical"),
    ("cli", "cmd_scan3"),
)


def span_name(module: str, function: str) -> str:
    """Metric prefix of a span: the module name without a leading underscore."""
    return f"{module.lstrip('_')}.{function}"


def combine(key: str, old, value):
    """Counters ending in _max keep the maximum; all others add up."""
    if old is None:
        return value
    return max(old, value) if key.endswith("_max") else old + value


def _rational_bits(x) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _count_isolate(rec, args, kwargs, result):
    poly = args[0] if args else kwargs["p"]
    rec.add("exactpoly.isolate_real_roots.degree_max",
            max((sum(e) for e in poly.terms), default=0))
    bits = [_rational_bits(x) for br in result for x in (br.low, br.high)]
    rec.add("exactpoly.isolate_real_roots.endpoint_bits_sum", sum(bits))
    rec.add("exactpoly.isolate_real_roots.endpoint_bits_max", max(bits, default=0))


def _count_sturm(rec, args, kwargs, result):
    rec.add("exactpoly.sturm_chain.length_max", len(result))


def _count_scan(rec, args, kwargs, result):
    rec.add("critical.scan_three_point.interior_zero_candidates",
            len(result.interior_zeros))


def _count_kernel(rec, args, kwargs, result):
    values = result[0]
    rec.add("kernels.scan_eval.cells", int(values.size))
    tables = args[2] if len(args) > 2 else kwargs["tables"]
    rec.add("kernels.scan_eval.terms_max", sum(len(table[0]) for table in tables))


ANNOTATORS = {
    "exactpoly.isolate_real_roots": _count_isolate,
    "exactpoly.sturm_chain": _count_sturm,
    "critical.scan_three_point": _count_scan,
    "kernels.scan_eval": _count_kernel,
}


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def add(self, key: str, value: int) -> None:
        self.counters[key] = combine(key, self.counters.get(key), value)

    def wrap(self, name: str, fn):
        annotate = ANNOTATORS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                try:
                    annotate(self, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    pass  # a changed signature loses a counter, never the op
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target the program has, at every name that holds it."""
        for module_name, function in TARGETS:
            try:
                module = importlib.import_module(f"extremal_lab.{module_name}")
            except ImportError:
                continue
            original = getattr(module, function, None)
            if not callable(original):
                continue
            wrapper = self.wrap(span_name(module_name, function), original)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "extremal_lab"
                                          or name.startswith("extremal_lab.")):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its direct
    children cover (overlapping children counted once, clipped to the parent)."""
    children = defaultdict(list)
    for index, (_, start, end, parent, *_) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, *_) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children[index]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def aggregate(traces) -> tuple[dict[str, float], dict[str, int], dict[str, int]]:
    """Sum self time and calls per span name over many ops' traces, and
    combine their counters."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counters: dict[str, int] = {}
    for trace in traces:
        spans = trace["spans"]
        for (name, *_), own in zip(spans, self_times(spans)):
            self_s[name] += own
            calls[name] += 1
        for key, value in trace["counters"].items():
            counters[key] = combine(key, counters.get(key), value)
    return dict(self_s), dict(calls), counters
