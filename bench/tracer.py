"""In-memory spans recorded by the benchmark around calls into laisc.

A span is ``[name, start, end, parent, op_id, calls, error]``; ``parent``
is the index of the enclosing span or ``None``.  Spans stay in memory
until the run ends.  The self time of a span is its duration minus the
time covered by its direct children (children never overlap: the
benchmark is single-threaded).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


def no_span(name: str, calls: int = 1):
    """Stand-in for :meth:`Tracer.span` when tracing is off."""
    return _NULL


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    @contextmanager
    def span(self, name: str, calls: int = 1):
        """Record one span; ``calls`` is how many public calls it covers."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, perf_counter(), None, parent, self.op_id, calls, False]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        except BaseException:
            record[6] = True
            raise
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def per_op_means(self) -> dict[str, list[float]]:
        """Per span name, one value per op: the self time summed over that
        op's spans of the name, divided by the public calls they cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, *_ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[tuple[str, int | None], list[float]] = {}
        for index, (name, start, end, _, op_id, calls, _) in enumerate(self.spans):
            total = totals.setdefault((name, op_id), [0.0, 0])
            total[0] += end - start - child_time[index]
            total[1] += calls
        out: dict[str, list[float]] = {}
        for (name, _), (seconds, calls) in totals.items():
            out.setdefault(name, []).append(seconds / calls)
        return out

    def errors_by_layer(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for name, *_, error in self.spans:
            if error:
                layer = name.split(".", 1)[0]
                counts[layer] = counts.get(layer, 0) + 1
        return counts


class Switch:
    """A span factory that records into ``tracer`` only while switched on,
    so one loop can alternate traced and untraced ops."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.on = False

    def select(self, on: bool, op_id: int) -> None:
        self.on = on
        self.tracer.op_id = op_id

    def span(self, name: str, calls: int = 1):
        return self.tracer.span(name, calls) if self.on else _NULL

    __call__ = span
