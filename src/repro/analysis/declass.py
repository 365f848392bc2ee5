"""The ``@declassify`` marker for the witness-taint analysis.

A function decorated with :func:`declassify` is a **declassification
boundary**: the taint engine (:mod:`repro.analysis.taint`) treats its
parameters as public *inside the body* and its return value as public
at every call site.  The decorator is a runtime no-op — the engine
recognises it syntactically — but it forces every boundary to carry a
human-readable justification, which ``--list-declassified`` surfaces.

Use it only where the protocol itself makes the data public (the
paper's own assumptions), never to silence a finding on data that is
still secret:

* digit decomposition feeding the MSM bucket pipeline — GZKP's
  bucket counts *are* the workload model (Figure 6); the algorithm is
  data-dependent by design and documented as such;
* a Groth16 proof after the r/s zero-knowledge masking — the proof is
  the public output.

Deliberate exceptions narrower than a whole function use
``# repro: allow[RXXX]`` suppression comments instead (see
:mod:`repro.analysis.lint`).

This module must stay import-light: kernel modules import it, and the
analysis package promises not to pull backend code in at import time.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

__all__ = ["declassify"]

_F = TypeVar("_F", bound=Callable)


def declassify(reason: str, *, rules: Optional[tuple] = None
               ) -> Callable[[_F], _F]:
    """Mark a function as a reviewed declassification boundary.

    ``reason`` (required) says *why* the data crossing this boundary is
    public; ``rules`` optionally restricts the exemption to specific
    rule codes (default: all taint rules).  Runtime behaviour of the
    decorated function is unchanged — the function object is returned
    as-is (no wrapper on hot kernel paths), with the justification
    attached as ``__declassified__`` for introspection.
    """
    if not isinstance(reason, str) or not reason.strip():
        raise ValueError("declassify requires a non-empty justification "
                         "string (why is this data public?)")

    def wrap(fn: _F) -> _F:
        fn.__declassified__ = {"reason": reason,
                               "rules": tuple(rules or ())}
        return fn

    return wrap
