"""Spans and counts recorded from outside the program.

A ``Tracer`` replaces attributes of swarmflow modules and classes (the
names callers resolve at call time, such as ``swarmflow.sampling.orca_adjust``
or ``GatedContextualNet.__call__``) with wrappers that time each call, and
puts every original back on ``restore``.  Spans nest: each records its
duration and its self time, which is the duration minus the time spent in
wrapped calls made from inside it.  Nothing is written until the caller
reads the recorded spans, so tracing costs only the wrapper calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

_MISSING = object()


def _lookup(owner, attr):
    """The attribute a call through ``owner`` resolves, or None.

    For a class only its own MRO counts: ``getattr(cls, "__call__")``
    would find the metaclass's ``__call__`` on any class.
    """
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return vars(klass)[attr]
        return None
    return getattr(owner, attr, None)


@dataclass
class Span:
    """Every call of one wrapped function: start, end and self time."""

    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    selfs: list = field(default_factory=list)

    @property
    def calls(self) -> int:
        return len(self.ends)

    @property
    def total(self) -> float:
        return sum(e - s for s, e in zip(self.starts, self.ends))

    @property
    def self_total(self) -> float:
        return sum(self.selfs)

    def durations(self) -> list:
        return [e - s for s, e in zip(self.starts, self.ends)]


class Tracer:
    """Install timing and counting wrappers; undo them with ``restore``.

    A target that does not exist (a later version renamed or removed it)
    is listed in ``absent`` and skipped, so its metrics can be reported
    as missing instead of failing the run.
    """

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._saved = []         # (owner, attr, original or _MISSING)
        self._child = [0.0]      # wrapped time seen inside each open span
        self._open: list[str] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def is_open(self, name: str) -> bool:
        return name in self._open

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _install(self, owner, attr, name, make):
        original = _lookup(owner, attr)
        if original is None:
            self.absent.append(name)
            return
        # remember whether the owner itself defined the attribute, so an
        # inherited one is removed again instead of being pinned down
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, make(original))

    def span(self, owner, attr, name, observe=None):
        """Time every call of ``owner.attr`` under ``name``.

        ``observe(args, kwargs, result)`` runs after the span has ended;
        its cost is kept out of the enclosing span's self time.
        """
        rec = self.spans.setdefault(name, Span())
        child = self._child
        opened = self._open
        clock = time.perf_counter

        def make(original):
            def wrapper(*args, **kwargs):
                child.append(0.0)
                opened.append(name)
                t0 = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    t1 = clock()
                    opened.pop()
                    inner = child.pop()
                    rec.starts.append(t0)
                    rec.ends.append(t1)
                    rec.selfs.append(t1 - t0 - inner)
                if observe is not None:
                    observe(args, kwargs, result)
                child[-1] += clock() - t0
                return result
            return wrapper

        self._install(owner, attr, name, make)

    def count(self, owner, attr, name, observe):
        """Call ``observe(args, kwargs, result)`` after every call of
        ``owner.attr`` without timing it; used for cheap exact counts."""
        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                observe(args, kwargs, result)
                return result
            return wrapper

        self._install(owner, attr, name, make)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def get(self, name: str) -> Span:
        return self.spans.get(name, Span())
