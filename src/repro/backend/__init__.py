"""Pluggable compute backends for the hot math paths.

A :class:`~repro.backend.base.ComputeBackend` supplies batch field ops,
fused NTT butterfly sweeps, Montgomery-trick batch inversion and batch
Jacobian point ops. There are two floors, one backend each:

* ``numpy`` — :class:`~repro.backend.kernel_backend.KernelBackend`, the
  runtime-compiled C kernels of :mod:`repro.backend.native` (NTT
  sweeps, pointwise passes, the point kernels and the bucket merge and
  fold) with a numpy-vectorized MSM digit front-end; the default;
* ``python`` — :class:`~repro.backend.pybackend.PythonBackend`, the
  historical per-element int loops, extracted verbatim.

While the kernels do not load (no compiler, ``REPRO_NATIVE=0``) the name
``numpy`` resolves to the ``python`` backend itself: there is no
half-accelerated mode.

Selection: pass a backend (or its name) explicitly to the engines, or
set ``REPRO_BACKEND=python|numpy`` in the environment. Backends are
bit-exact against each other and op-count traces never depend on the
choice, with one documented relaxation: bucket accumulation may
reassociate per-bucket sums and return any group-equal Jacobian
representative (see
:meth:`~repro.backend.base.ComputeBackend.accumulate_buckets`).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Union

from repro.backend.base import ComputeBackend
from repro.backend.kernel_backend import KernelBackend
from repro.backend.native import native_available
from repro.backend.pybackend import PythonBackend

__all__ = [
    "ComputeBackend",
    "PythonBackend",
    "KernelBackend",
    "available_backends",
    "get_backend",
    "requested_backend",
    "register_backend",
    "BACKEND_ENV_VAR",
]

#: environment variable consulted when no backend is named explicitly
BACKEND_ENV_VAR = "REPRO_BACKEND"

_FACTORIES: Dict[str, Callable[[], ComputeBackend]] = {}
_INSTANCES: Dict[str, ComputeBackend] = {}


def register_backend(name: str,
                     factory: Callable[[], ComputeBackend]) -> None:
    """Register (or replace) a backend under ``name``; construction is
    deferred until the backend is first requested."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> List[str]:
    """Registered backend names (registration order)."""
    return list(_FACTORIES)


def requested_backend(name: Optional[str] = None) -> str:
    """The backend name a request asks for: ``name``, else
    ``$REPRO_BACKEND``, else the default, ``numpy``."""
    return name or os.environ.get(BACKEND_ENV_VAR, "").strip() or "numpy"


def get_backend(name: Optional[Union[str, ComputeBackend]] = None
                ) -> ComputeBackend:
    """Resolve a backend — the one place that does. An instance passes
    through; a name (``None``: :func:`requested_backend`) looks up the
    registry, except that ``numpy`` is the ``python`` instance while the
    compiled kernels do not load (re-probed on every call, so a flipped
    ``REPRO_NATIVE`` takes effect at once). Instances are cached —
    backends are stateless apart from their internal table caches."""
    if isinstance(name, ComputeBackend):
        return name
    name = requested_backend(name)
    if name == "numpy" and not native_available():
        name = "python"
    backend = _INSTANCES.get(name)
    if backend is None:
        factory = _FACTORIES.get(name)
        if factory is None:
            raise ValueError(
                f"unknown compute backend {name!r}; "
                f"available: {', '.join(available_backends())}"
            )
        backend = _INSTANCES[name] = factory()
    return backend


register_backend("python", PythonBackend)
register_backend("numpy", KernelBackend)
