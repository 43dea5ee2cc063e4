"""Span recording by wrapping the program's entry points from outside.

A :class:`Recorder` replaces a name where its caller looks it up (a
module global, a class attribute or an instance attribute) with a
wrapper that records ``(layer, start, end, parent)``. Spans are kept in
memory and only recorded inside a root opened with :meth:`Recorder.call`,
so work done outside the timed calls (correctness re-checks, resume
probes) never pollutes the trace. Nothing under ``src/`` is edited.

Wrappers installed before a ``fork`` record only into the child's copy,
so on a pooled run only the parent-visible layers come back.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, List, Optional

_MISSING = object()


class Recorder:
    """In-memory span list plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def _open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> float:
        self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        return span[2] - span[1]

    @contextmanager
    def call(self, name: str):
        """A root span: one timed public call."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        on_result: Optional[Callable[[object, float], None]] = None,
    ) -> None:
        """Record every call of ``owner.attr`` made inside a root as ``layer``.

        ``on_result(result, seconds)`` sees each recorded call's return
        value and duration (e.g. to count IR nodes of a built design).
        """
        saved = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not stack:
                return original(*args, **kwargs)
            index = self._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = self._close(index)
            if on_result is not None:
                on_result(result, seconds)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, saved))

    def unwrap_all(self) -> None:
        """Restore every patched name, newest first."""
        while self._undo:
            owner, attr, saved = self._undo.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def tuples(self) -> List[tuple]:
        """Finished spans as ``(layer, start, end, parent)`` tuples."""
        return [tuple(span) for span in self.spans]
