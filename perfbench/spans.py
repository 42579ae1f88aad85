"""Thread-aware span tracing for the traced benchmark run.

The benchmark never edits the engine: it records spans by wrapping the
engine's layer entry points from the outside (module attributes, class
methods and the operator dispatch table) for the duration of the traced
phase, and restores the originals afterwards.

Every thread keeps its own span stack, so a span's parent is the span
open on the same thread when it started.  Work handed to a
``ThreadPoolExecutor`` (graph path workers, the morsel pool, the
server's statement executor) inherits the submitting thread's open
span as its parent, so a traversal on a worker thread is a child of the
``solve_encoded`` call that dealt it out rather than an orphan.

A span's self time is its duration minus the part of its interval
covered by the union of its children's intervals; children on several
threads may overlap, and the union counts that time once.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

# (span id, parent id or None, name, start, end, root tag or None)
Span = tuple


class Tracer:
    """Collects spans in memory; :meth:`self_times` aggregates them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += value

    def run_span(self, name: str, fn, *args, tag=None, **kwargs):
        """Call ``fn`` inside one span; ``tag`` labels a root span (the
        statement kind) so children can be grouped by it."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else getattr(self._local, "inherited", None)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, tag))

    def wrap(self, fn, name: str, on_result=None, tag_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tag_of(*args) if tag_of is not None else None
            result = tracer.run_span(name, fn, *args, tag=tag, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, name: str, on_result=None, tag_of=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, on_result, tag_of))
        self._patches.append((owner, attr, original))

    def patch_dispatch(self, table: dict, name_of) -> None:
        """Wrap every handler of an ``{node type: handler}`` dispatch dict."""
        for node_type, handler in list(table.items()):
            table[node_type] = self.wrap(handler, name_of(node_type))
            self._patches.append((table, node_type, handler))

    def propagate_through_executors(self) -> None:
        """Make pool tasks children of the span open at ``submit`` time."""
        tracer = self
        original = ThreadPoolExecutor.submit

        def submit(executor, fn, /, *args, **kwargs):
            parent = tracer.current()

            def task(*a, **kw):
                local = tracer._local
                saved = getattr(local, "inherited", None)
                local.inherited = parent
                try:
                    return fn(*a, **kw)
                finally:
                    local.inherited = saved

            return original(executor, task, *args, **kwargs)

        ThreadPoolExecutor.submit = submit
        self._patches.append((ThreadPoolExecutor, "submit", original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def self_times(self) -> tuple[dict, dict]:
        """Return ``(per_name, per_root)``.

        ``per_name[name]`` is ``[total self seconds, span count]``.
        ``per_root[root id]`` is ``(tag, duration, {name: self seconds})``
        for every root span, attributing each descendant's self time to
        the root it descends from (so a statement's time can be split by
        layer, per statement kind and for its slowest instances).
        """
        spans = list(self.spans)
        by_id = {s[0]: s for s in spans}
        children: dict = defaultdict(list)
        for span in spans:
            if span[1] is not None and span[1] in by_id:
                children[span[1]].append(span)
        per_name: dict = defaultdict(lambda: [0.0, 0])
        self_of: dict = {}
        for span in spans:
            own = _self_seconds(span, children.get(span[0], ()))
            self_of[span[0]] = own
            entry = per_name[span[2]]
            entry[0] += own
            entry[1] += 1
        root_of: dict = {}

        def find_root(span_id):
            path = []
            while span_id not in root_of:
                span = by_id[span_id]
                parent = span[1]
                if parent is None or parent not in by_id:
                    root_of[span_id] = span_id
                    break
                path.append(span_id)
                span_id = parent
            root = root_of[span_id]
            for visited in path:
                root_of[visited] = root
            return root

        per_root: dict = {}
        for span in spans:
            root = by_id[find_root(span[0])]
            if root[0] not in per_root:
                per_root[root[0]] = (root[5], root[4] - root[3], defaultdict(float))
            per_root[root[0]][2][span[2]] += self_of[span[0]]
        return dict(per_name), per_root


def _self_seconds(span: Span, kids) -> float:
    start, end = span[3], span[4]
    if not kids:
        return end - start
    covered = 0.0
    cursor = start
    for _, _, _, child_start, child_end, _ in sorted(kids, key=lambda s: s[3]):
        lo = max(child_start, cursor)
        hi = min(child_end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return max(0.0, end - start - covered)
