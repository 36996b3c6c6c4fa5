"""Span tracing from outside the program: wrap public methods of built
instances, keep spans in memory, reduce them to per-layer self time.

A wrapper is installed as an *instance* attribute, so every internal
``self.method(...)`` or ``other.method(...)`` call on that object goes
through it, while the class and every other instance stay untouched.
``uninstall`` deletes the instance attributes again, restoring the
class methods.

Spans live in four parallel ``array('q')`` columns (layer id, parent
span index, start ns, end ns): 32 bytes a span, so a traced batch of a
few hundred thousand spans stays a few megabytes.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns
from typing import Any, Callable

ROOT = -1


class SpanRecorder:
    """In-memory span log for one traced batch."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer_col = array("q")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self.layer_col)

    def _layer_id(self, layer: str) -> int:
        layer_id = self._layer_ids.get(layer)
        if layer_id is None:
            layer_id = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return layer_id

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one span named ``layer`` per call."""
        layer_id = self._layer_id(layer)
        stack = self._stack
        layer_col, parent_col = self.layer_col, self.parent_col
        start_col, end_col = self.start_col, self.end_col

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(layer_col)
            layer_col.append(layer_id)
            parent_col.append(stack[-1] if stack else ROOT)
            start_col.append(0)
            end_col.append(0)
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                start_col[index] = start
                end_col[index] = end

        return traced

    def install(self, obj: Any, method: str, layer: str) -> None:
        """Replace ``obj.method`` by a traced wrapper of itself."""
        self.patch(obj, method, self.wrap(layer, getattr(obj, method)))

    def patch(self, obj: Any, method: str, replacement: Callable[..., Any]) -> None:
        """Set ``obj.method`` to ``replacement`` until :meth:`uninstall`."""
        self._installed.append((obj, method, obj.__dict__.get(method)))
        setattr(obj, method, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped method (spans are kept)."""
        for obj, method, previous in reversed(self._installed):
            if previous is None:
                delattr(obj, method)
            else:
                setattr(obj, method, previous)
        self._installed.clear()

    def self_ns(self) -> dict[str, int]:
        """Total self time per layer: each span's duration minus the
        part of it covered by its child spans."""
        durations = [end - start for start, end in zip(self.start_col, self.end_col)]
        self_time = list(durations)
        for index, parent in enumerate(self.parent_col):
            if parent != ROOT:
                self_time[parent] -= durations[index]
        totals = [0] * len(self.layers)
        for layer_id, value in zip(self.layer_col, self_time):
            totals[layer_id] += value
        return dict(zip(self.layers, totals))

    def write(self, path_prefix: str) -> None:
        """Write the spans out: ``<prefix>.spans`` holds the four int64
        columns back to back (layer, parent, start, end), and
        ``<prefix>.layers`` the layer names, one per line, by id."""
        with open(path_prefix + ".spans", "wb") as out:
            for column in (self.layer_col, self.parent_col, self.start_col, self.end_col):
                column.tofile(out)
        with open(path_prefix + ".layers", "w", encoding="utf-8") as out:
            out.write("\n".join(self.layers) + "\n")
