"""A span tracer that wraps the library's public functions from outside.

Each wrapped call records a span (name, start, end, parent) in memory;
self time is a span's duration minus the time of the spans it caused.
Functions called too often for a span per call only bump a counter.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, Optional


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.recording = True
        self._open = [-1]
        self._registered: set = set()
        self._present: set = set()
        self._restore: list = []

    def _replace(self, owner, attr: str, name: str, make) -> None:
        self._registered.add(name)
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._present.add(name)
        setattr(owner, attr, make(original))
        self._restore.append((owner, attr, original))

    def absent(self, name: str) -> bool:
        """Whether every function registered under name was missing."""
        return name in self._registered and name not in self._present

    def span(
        self,
        owner,
        attr: str,
        name: str,
        on_result: Optional[Callable[[Dict[str, int], object], None]] = None,
        always: bool = False,
    ) -> None:
        """Record a span per call of owner.attr; `always` records it even
        while recording is paused."""

        def make(original):
            def traced(*args, **kwargs):
                if not (self.recording or always):
                    return original(*args, **kwargs)
                index = len(self.names)
                self.names.append(name)
                self.parents.append(self._open[-1])
                self.ends.append(0.0)
                self._open.append(index)
                self.starts.append(time.perf_counter())
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.ends[index] = time.perf_counter()
                    self._open.pop()
                if on_result is not None:
                    on_result(self.counts, result)
                return result

            return traced

        self._replace(owner, attr, name, make)

    def count(
        self,
        owner,
        attr: str,
        name: str,
        amount: Optional[Callable[[object], int]] = None,
    ) -> None:
        """Count calls of owner.attr; with `amount`, add amount(result) for
        each call not nested in another call of the same function."""

        def make(original):
            depth = 0

            def counted(*args, **kwargs):
                nonlocal depth
                if not self.recording:
                    return original(*args, **kwargs)
                if amount is None:
                    self.counts[name] += 1
                    return original(*args, **kwargs)
                depth += 1
                try:
                    result = original(*args, **kwargs)
                finally:
                    depth -= 1
                if depth == 0:
                    self.counts[name] += amount(result)
                return result

            return counted

        self._replace(owner, attr, name, make)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        totals: Dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            totals[name] += self.ends[i] - self.starts[i] - covered[i]
        return totals

    def calls(self) -> Dict[str, int]:
        """Number of spans per name."""
        out: Dict[str, int] = defaultdict(int)
        for name in self.names:
            out[name] += 1
        return out
