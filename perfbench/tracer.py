"""Span recorder that wraps moefix functions from outside the package.

A wrapped function is replaced, under the module attribute its caller looks
up, by a closure that records one span per call while a recording group is
set, and calls straight through otherwise. ``restore`` puts every original
back. Nothing inside ``src/moefix`` knows about tracing.

A span is ``[name, start, end, parent index, op id, group]``; times are
``time.perf_counter`` seconds. Counters are summed per group next to the
spans, so ratios are measured where the work happens.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.group: str | None = None  # None: wrappers call straight through
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op, self.group])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    def begin_op(self, name: str) -> int:
        """Open a root span for one benchmark operation; spans under it share its op id."""
        self._ops += 1
        self._op = self._ops
        return self.begin(name)

    def end_op(self, idx: int) -> None:
        self.end(idx)
        self._op = None

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[self.group][key] += value

    @contextmanager
    def recording(self, group: str):
        previous, self.group = self.group, group
        try:
            yield
        finally:
            self.group = previous

    # --- wrapping ------------------------------------------------------------

    def wrap(self, module, attr: str, name, before=None, after=None) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``name`` is a span name, or a function of the ``before`` state giving
        one. ``before`` takes the call's arguments and returns a state that
        ``after(state, result)`` receives once the call has returned.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.group is None:
                return original(*args, **kwargs)
            state = before(*args, **kwargs) if before else None
            idx = tracer.begin(name(state) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after:
                after(state, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # --- results -------------------------------------------------------------

    def self_times(self, group: str) -> dict[str, tuple[int, float]]:
        """span name -> (calls, total self seconds) over the spans of ``group``.

        Self time is a span's duration minus the durations of its children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, _, grp) in enumerate(self.spans):
            if grp == group:
                calls_self = out.setdefault(name, [0, 0.0])
                calls_self[0] += 1
                calls_self[1] += end - start - child[i]
        return {name: (c, s) for name, (c, s) in out.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, group in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "group": group}) + "\n")
