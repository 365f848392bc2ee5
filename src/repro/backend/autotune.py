"""The tuner names the frozen perf ledger imports; they select nothing.

``benchmarks/ledger/stations.py``, the only caller, builds a
:class:`KernelAutotuner`, calls :meth:`~KernelAutotuner.apply_cadence`
and passes the instance to ``GzkpMsm(tuner=)``. (k, M) is decided in
:meth:`repro.msm.gzkp.GzkpMsm.configure` alone and no kernel has a
cadence (DESIGN.md §9). ROADMAP item 9 drops the calls, then this module.
"""

from __future__ import annotations

__all__ = ["KernelAutotuner"]


class KernelAutotuner:
    """Kept for the ledger, its only caller."""

    def apply_cadence(self, modulus: int, name: str = "") -> None:
        """A no-op: no kernel has a cadence to apply."""
