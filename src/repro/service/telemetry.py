"""Span-based instrumentation for the proving service.

ZKProphet's lesson (PAPERS.md): understanding ZKP performance requires
*per-phase* attribution — POLY vs MSM, and inside MSM the per-kernel
split — not a single end-to-end number. This module provides nested
wall-clock spans that also capture :class:`~repro.ff.opcount.OpCounter`
deltas, so every proof the service emits reports both *where its time
went* and *what work was counted there*, on the python and numpy
backends alike.

Design:

* A :class:`Span` owns its wall-clock interval, its own
  :class:`OpCounter` (handed to the math layers while the span is
  open), its children and free-form metadata.
* A :class:`Telemetry` object holds the span forest plus a flat event
  log (backend downgrades, retries, native-kernel loader events). Spans
  auto-nest via a thread-local current-span stack, so
  ``repro.snark.prover`` / ``repro.ntt.poly`` / ``repro.msm.gzkp`` can
  open sub-spans without threading parent handles through every call;
  worker threads running parallel MSM tasks pass ``parent=`` explicitly
  because their stack starts empty.
* Everything exports to plain dicts (:meth:`Telemetry.to_dict`), so a
  worker process can ship its telemetry across a multiprocessing queue
  without pickling any curve or field objects.

The invariant tests rely on: spans opened sequentially on one thread
tile their parent — the sum of a span's children is <= (and normally
~=) the span's own wall clock. Parallel MSM dispatch deliberately
breaks this *inside* the ``MSM`` span (each child's wall clock includes
time the GIL gave to its siblings) — which is why the per-job phase
breakdown sums only top-level phases.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.analysis.declass import declassify

_OpCounter = None


def _opcounter_class():
    """Deferred import: ``repro.ff``'s package init pulls in the NTT
    stack, whose POLY stage imports this module — a cycle if resolved
    at import time. By first span creation everything is loaded."""
    global _OpCounter
    if _OpCounter is None:
        from repro.ff.opcount import OpCounter as _OpCounter_cls

        _OpCounter = _OpCounter_cls
    return _OpCounter

__all__ = ["Span", "Telemetry", "maybe_span", "phase_breakdown",
           "splice_phase", "scrub_payload", "NULL_SPAN"]

#: key fragments that must never leave the worker in telemetry — the
#: runtime mirror of the static R009 rule.  Matching values are
#: replaced (not dropped) so a leak attempt stays visible in the
#: export without carrying the data.
_SECRET_KEY_FRAGMENTS = ("witness", "assignment", "trapdoor")

SCRUBBED = "[scrubbed]"


def scrub_payload(mapping: Dict[str, object]) -> Dict[str, object]:
    """Replace values of witness-like keys with :data:`SCRUBBED`.

    Spans and events travel back over the result wire and into shard
    rollups that outlive the job, so secret material must be stopped
    here even if a caller slips past the static analysis.
    """
    return {
        k: (SCRUBBED if any(f in k.lower()
                            for f in _SECRET_KEY_FRAGMENTS) else v)
        for k, v in mapping.items()
    }


class Span:
    """One timed phase: wall clock + op-count delta + children."""

    __slots__ = ("name", "meta", "children", "counter", "wall_seconds",
                 "_t0")

    def __init__(self, name: str, **meta):
        self.name = name
        self.meta: Dict[str, object] = scrub_payload(meta)
        self.children: List[Span] = []
        self.counter = _opcounter_class()()
        self.wall_seconds: float = 0.0
        self._t0: Optional[float] = None

    # -- lifecycle (driven by Telemetry.span) -----------------------------------

    def _start(self) -> None:
        self._t0 = time.perf_counter()

    def _stop(self) -> None:
        if self._t0 is not None:
            self.wall_seconds = time.perf_counter() - self._t0
            self._t0 = None

    # -- rollups ---------------------------------------------------------------

    @property
    def own_ops(self) -> Dict[str, int]:
        """Ops counted directly against this span's counter."""
        return self.counter.totals()

    def total_ops(self) -> Dict[str, int]:
        """Own ops plus every descendant's (math layers receive the
        *innermost* open span's counter, so parents do not double-count
        their children)."""
        rollup = _opcounter_class()()
        rollup.merge(self.counter)
        for child in self.children:
            for op, n in child.total_ops().items():
                rollup.count(op, n)
        return rollup.totals()

    def child(self, name: str) -> Optional["Span"]:
        for c in self.children:
            if c.name == name:
                return c
        return None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": self.wall_seconds,
            "ops": {k: v for k, v in self.total_ops().items() if v},
            # meta is scrubbed at construction; scrub again in case a
            # caller mutated the dict after the span opened
            "meta": scrub_payload(self.meta),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.wall_seconds * 1e3:.2f} ms)"


class _NullSpan:
    """Stands in when no telemetry is attached: carries a None counter
    so instrumented code can unconditionally pass ``span.counter``."""

    counter = None
    name = "<null>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_SPAN"


NULL_SPAN = _NullSpan()


class Telemetry:
    """A span forest plus an event log for one unit of work (one job)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.events: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span stack --------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @declassify("span names/meta are operational labels checked as "
                "R006 sinks at every call site and scrubbed of "
                "witness-like keys at export by the runtime guard")
    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None,
             **meta) -> Iterator[Span]:
        """Open a span under ``parent`` (or the calling thread's current
        span, or as a new root). The span's :class:`OpCounter` should be
        handed to the math layers executing inside the block."""
        sp = Span(name, **meta)
        attach_to = parent if parent is not None else self.current()
        with self._lock:
            if attach_to is not None:
                attach_to.children.append(sp)
            else:
                self.spans.append(sp)
        stack = self._stack()
        stack.append(sp)
        sp._start()
        try:
            yield sp
        finally:
            sp._stop()
            stack.pop()

    # -- events -----------------------------------------------------------------

    @declassify("event payloads are operational labels checked as "
                "R006 sinks at every call site and scrubbed of "
                "witness-like keys at export by the runtime guard")
    def record_event(self, kind: str, detail: str = "", **extra) -> None:
        """Append a flat event (downgrade, retry, loader outcome...).

        Witness-like keys in ``extra`` are scrubbed — events cross the
        result wire and feed shard rollups that outlive the job.
        """
        event = {"kind": kind, "detail": detail}
        event.update(scrub_payload(extra))
        with self._lock:
            self.events.append(event)

    def downgrades(self) -> List[dict]:
        return [e for e in self.events if "downgrade" in e["kind"]]

    # -- export -----------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "spans": [s.to_dict() for s in self.spans],
            "events": list(self.events),
        }


@declassify("span names/meta are operational labels checked as R006 "
            "sinks at every call site and scrubbed of witness-like "
            "keys at export by the runtime guard")
@contextmanager
def maybe_span(telemetry: Optional[Telemetry], name: str,
               parent: Optional[Span] = None, **meta) -> Iterator[object]:
    """A telemetry span when telemetry is attached, else a shared null
    span whose ``.counter`` is None — instrumented code stays one-path."""
    if telemetry is None:
        yield NULL_SPAN
    else:
        with telemetry.span(name, parent=parent, **meta) as sp:
            yield sp


def phase_breakdown(span_dict: dict) -> Dict[str, float]:
    """Flatten one exported span tree to {phase name: seconds} over its
    *top-level* children — the per-job POLY/MSM/verify attribution whose
    sum approximates the parent's wall clock (children of the MSM span
    carry the per-kernel split but overlap when dispatched in
    parallel, so they are deliberately not flattened in)."""
    return {c["name"]: c["seconds"] for c in span_dict["children"]}


def splice_phase(span_dict: dict, name: str, seconds: float,
                 **meta) -> dict:
    """Graft a phase that ran *outside* the span tree's process back
    into an exported job span — the verify stage runs in the
    parent after the worker's tree is already serialized.  The parent's
    wall clock is extended by the same amount, preserving the invariant
    that top-level phases tile the job span."""
    child = {"name": name, "seconds": seconds, "ops": {},
             "meta": dict(meta), "children": []}
    span_dict["children"].append(child)
    span_dict["seconds"] += seconds
    return child
