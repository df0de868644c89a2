"""In-memory span recording around the benchmark's calls into matchkit.

Spans live only in the benchmark's own files: each wraps one call that an op
makes into a public matchkit function, and is named ``<module>.<function>``.
The module is the layer. Spans are kept in a list and written out once, when
the run ends, so recording costs one clock read per boundary and no I/O.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class NullTracer:
    """Tracing off: calls pass straight through."""

    @contextmanager
    def op(self, op_id: int):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records ``(id, name, start, end, op_id, parent, failed)`` spans.

    Every op opens a root span; each call made inside it is a child span whose
    parent is that root. Times are ``time.perf_counter`` seconds.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int | None, bool]] = []
        self._root: int | None = None
        self._op_id = -1

    def _record(self, name: str, start: float, end: float, parent, failed: bool) -> None:
        self.spans.append((len(self.spans), name, start, end, self._op_id, parent, failed))

    @contextmanager
    def op(self, op_id: int):
        self._op_id = op_id
        self._root = len(self.spans)
        # Reserve the root slot so children can name it as their parent.
        self.spans.append((self._root, "op", 0.0, 0.0, op_id, None, False))
        start = time.perf_counter()
        failed = True
        try:
            yield
            failed = False
        finally:
            end = time.perf_counter()
            self.spans[self._root] = (self._root, "op", start, end, op_id, None, failed)
            self._root = None

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._record(name, start, time.perf_counter(), self._root, True)
            raise
        self._record(name, start, time.perf_counter(), self._root, False)
        return out

    def self_times(self, op_ids: set[int]) -> tuple[dict[str, float], dict[str, int], float]:
        """Per-name self time (s) and failures, plus total op time, over ``op_ids``.

        A span's self time is its duration minus the part its child spans
        cover. Call spans have no children, so theirs is their duration; the
        op's own self time is reported as ``bench.glue``.
        """
        self_s: dict[str, float] = {}
        failed: dict[str, int] = {}
        op_s = 0.0
        for _, name, start, end, op_id, parent, bad in self.spans:
            if op_id not in op_ids:
                continue
            if parent is None:
                op_s += end - start
                continue
            self_s[name] = self_s.get(name, 0.0) + (end - start)
            if bad:
                failed[name] = failed.get(name, 0) + 1
        self_s["bench.glue"] = op_s - sum(self_s.values())
        return self_s, failed, op_s

    def write(self, path) -> None:
        rows = [
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "op": op_id,
                "parent": parent,
                "failed": bad,
            }
            for span_id, name, start, end, op_id, parent, bad in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
