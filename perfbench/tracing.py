"""Spans around the program's public functions, for the per-layer run.

`Tracer.install` replaces each function named in WRAPPED with a wrapper
that records a span (name, token, parent span, start, end) in memory and
calls the original.  A function a later version no longer has is skipped,
and its layer then reports zero calls.  `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from time import perf_counter_ns

# (module of the package, attribute, span name).  The attack module's own
# names are wrapped because that is where recover_preimages looks them up;
# lattice2d.coefficient_box is wrapped too because rect_search calls it.
WRAPPED = (
    ("protocol", "gen_params", "protocol.gen_params"),
    ("protocol", "exchange", "protocol.exchange"),
    ("attack", "recover_preimages", "attack.recover_preimages"),
    ("attack", "recover_shared_key", "attack.recover_shared_key"),
    ("attack", "solution_basis", "lattice2d.solution_basis"),
    ("attack", "gauss_reduce", "lattice2d.gauss_reduce"),
    ("attack", "rect_search", "lattice2d.rect_search"),
    ("attack", "coefficient_box", "lattice2d.coefficient_box"),
    ("lattice2d", "coefficient_box", "lattice2d.coefficient_box"),
)

NAME, TOKEN, PARENT, START, END = range(5)


class Tracer:
    """Span recorder; ``token`` is set by the caller before each attack so
    that the spans of one token share it."""

    def __init__(self):
        self.spans: list[list] = []
        self.token = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, pkg) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = getattr(pkg, module_name, None)
            original = getattr(module, attr, None)
            if original is not None:
                setattr(module, attr, self._wrap(original, span_name))
                self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, self.token, stack[-1] if stack else None, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter_ns()
                stack.pop()

        return traced

    def layers(self):
        """Per-span-name tables: {name: {token: (total_ns, self_ns, calls)}}
        and {name: [duration_ns of each call]}.

        A span's self time is its duration minus its child spans' durations.
        """
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child_ns[span[PARENT]] += span[END] - span[START]
        per_token: dict[str, dict] = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
        per_call: dict[str, list[int]] = defaultdict(list)
        for span, children in zip(self.spans, child_ns):
            duration = span[END] - span[START]
            row = per_token[span[NAME]][span[TOKEN]]
            row[0] += duration
            row[1] += duration - children
            row[2] += 1
            per_call[span[NAME]].append(duration)
        return per_token, per_call


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0
