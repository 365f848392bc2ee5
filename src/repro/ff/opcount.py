"""Operation-count instrumentation.

The reproduction's performance claims rest on *counted work*, not wall
clock: every algorithm (NTT variants, MSM variants, baselines) reports how
many field multiplications, field additions, curve PADDs, memory
transactions etc. it performs. At small scales the counts are measured by
running the real math; at paper scales they come from the same
algorithms' analytic ``plan()``; tests assert the two agree.

:class:`OpCounter` is a simple named-counter accumulator with context
manager support so nested phases can be attributed separately.

Counts reach a counter one way: the instrumented code calls
:func:`count`, which books on the calling thread's active counter — the
one the innermost :func:`counting` block installed — and on nothing
when no block is open. The scope lives in a :class:`~contextvars.ContextVar`,
so a thread (a verify pool thread, a pipeline loop) starts with none and
can never book onto another thread's counter, and leaving a block puts
back exactly the scope that was open before it.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Optional

__all__ = ["OpCounter", "OP_NAMES", "count", "counting"]

# Canonical operation names used across the library.
OP_NAMES = (
    "fr_mul",        # scalar-field modular multiplication
    "fr_add",        # scalar-field modular addition/subtraction
    "fq_mul",        # base-field modular multiplication
    "fq_add",        # base-field modular addition/subtraction
    "fq_inv",        # base-field inversion
    "padd",          # elliptic-curve point addition (incl. doubling)
    "pdbl",          # elliptic-curve point doubling (when tracked separately)
    "butterfly",     # NTT butterfly (1 fr_mul + 2 fr_add)
    "miller_loop",   # pairing Miller loop (full or prepared-line replay)
    "final_exp",     # pairing final exponentiation
    "g2_precomp",    # fixed-argument G2 line precomputation (build, not hit)
)


class OpCounter:
    """Accumulates named operation counts, with phase attribution.

    Usage::

        ops = OpCounter()
        with ops.phase("point-merging"):
            ops.count("padd", 10)
        ops.total("padd")            # 10
        ops.by_phase["point-merging"]["padd"]  # 10
    """

    def __init__(self) -> None:
        self._totals: Counter = Counter()
        self.by_phase: Dict[str, Counter] = {}
        self._current_phase: Optional[str] = None

    def count(self, op: str, n: int = 1) -> None:
        """Record ``n`` occurrences of operation ``op``."""
        self._totals[op] += n
        if self._current_phase is not None:
            self.by_phase[self._current_phase][op] += n

    def total(self, op: str) -> int:
        return self._totals[op]

    def totals(self) -> Dict[str, int]:
        return dict(self._totals)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute counts recorded inside the block to ``name``.
        Phases do not nest; entering a phase inside a phase re-attributes."""
        previous = self._current_phase
        self._current_phase = name
        self.by_phase.setdefault(name, Counter())
        try:
            yield
        finally:
            self._current_phase = previous

    def merge(self, other: "OpCounter") -> None:
        """Fold another counter's totals (and phases) into this one."""
        self._totals.update(other._totals)
        for phase_name, counter in other.by_phase.items():
            self.by_phase.setdefault(phase_name, Counter()).update(counter)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self._totals.items()))
        return f"OpCounter({parts})"


#: the calling thread's active counter (None: nothing is counted)
_ACTIVE: ContextVar[Optional[OpCounter]] = ContextVar("repro_opcount",
                                                      default=None)


def count(op: str, n: int = 1) -> None:
    """Record ``n`` occurrences of ``op`` on the active counter, if any."""
    counter = _ACTIVE.get()
    if counter is not None:
        counter.count(op, n)


@contextmanager
def counting(counter: Optional[OpCounter] = None,
             phase: Optional[str] = None) -> Iterator[None]:
    """Count the block's ops on ``counter`` — or, when it is None, on
    whichever counter is already active — attributed to ``phase`` when
    one is named and a counter is active. On exit the outer scope is
    back exactly as it was."""
    token = _ACTIVE.set(counter) if counter is not None else None
    try:
        active = _ACTIVE.get()
        if phase is not None and active is not None:
            with active.phase(phase):
                yield
        else:
            yield
    finally:
        if token is not None:
            _ACTIVE.reset(token)
