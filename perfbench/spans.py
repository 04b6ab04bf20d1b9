"""In-memory spans recorded around calls into the library's modules.

The tracer wraps public functions where each module looks them up (so a
call from ``cli.solve_dispatch`` to ``classify`` goes through the wrapper
bound in ``lexmatch.cli``), only while a traced operation runs and only in
this process.  Nothing in ``src/lexmatch`` is edited.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, name bound in that module, span name).  A module appears once per
# name it imports or defines and calls.
TARGETS = (
    ("serialize", "load_instance", "serialize.load"),
    ("cli", "load_instance", "serialize.load"),
    ("cli", "solve_dispatch", "cli.dispatch"),
    ("cli", "classify", "model.classify"),
    ("cli", "is_stable", "model.is_stable"),
    ("cli", "leximin_tuple", "model.leximin_tuple"),
    ("cli", "fast", "fast.solve"),
    ("cli", "fast_gen", "fastgen.solve"),
    ("cli", "fast_const", "const2.solve"),
    ("cli", "oracle_leximin", "oracle.solve"),
    ("fast", "classify", "model.classify"),
    ("fast", "cap_fast", "fast.solve"),
    ("fastgen", "classify", "model.classify"),
    ("fastgen", "leximin_tuple", "model.leximin_tuple"),
    ("fastgen", "cap_fast_gen", "fastgen.solve"),
    ("const2", "classify", "model.classify"),
    ("const2", "is_stable", "model.is_stable"),
    ("const2", "leximin_tuple", "model.leximin_tuple"),
    ("oracle", "classify", "model.classify"),
    ("oracle", "is_stable", "model.is_stable"),
    ("oracle", "leximin_tuple", "model.leximin_tuple"),
)


class Tracer:
    """Spans of the traced operations: (op, id, parent, name, start_ns,
    end_ns), appended when a span closes.  ``parent`` is -1 for an
    operation's root span."""

    def __init__(self, lexmatch_modules: dict):
        self._modules = lexmatch_modules
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._op = None

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((self._op, span_id, parent, name, start, end))

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Trace one operation: install the wrappers, open the root span,
        and restore the original functions afterwards."""
        originals = []
        for module_name, attr, span_name in TARGETS:
            module = self._modules[module_name]
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)
            self._op = None

    def write(self, path) -> None:
        fields = ("op", "id", "parent", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def layer_totals(spans) -> dict:
    """Per operation and span name: (self time in ns, call count).  Self time
    is a span's duration minus the time its direct children cover; spans of
    one thread nest, so the children never overlap."""
    child_ns = defaultdict(int)
    for op, _, parent, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    for op, span_id, _, name, start, end in spans:
        entry = totals[op][name]
        entry[0] += end - start - child_ns[span_id]
        entry[1] += 1
    return totals
