"""The tuner names the frozen perf ledger imports; they select nothing.

``benchmarks/ledger/stations.py`` is this module's only caller: it
builds a :class:`KernelAutotuner`, calls :meth:`~KernelAutotuner.
apply_cadence` and hands the instance to ``GzkpMsm(tuner=)``. (k, M) is
decided in :meth:`repro.msm.gzkp.GzkpMsm.configure` alone and the limb
NTT's carry-clean cadence is its geometry's formula; DESIGN.md §9
records the measurements that retired the searches which lived here.
ROADMAP item 4's ledger edit drops the calls, then this module.
"""

from __future__ import annotations

__all__ = ["KernelAutotuner"]


class KernelAutotuner:
    """Kept for the ledger, its only caller."""

    def apply_cadence(self, modulus: int, name: str = "") -> int:
        """The carry-clean cadence in force for ``modulus``."""
        from repro.backend.numpy_limb import _geometry

        return _geometry(modulus).clean_every
