"""Pluggable compute backends for the hot math paths.

A :class:`~repro.backend.base.ComputeBackend` supplies batch field ops,
fused NTT butterfly sweeps, Montgomery-trick batch inversion and batch
Jacobian point ops. Two implementations ship:

* ``python`` — :class:`~repro.backend.pybackend.PythonBackend`, the
  historical per-element int loops, extracted verbatim (the default);
* ``numpy`` — :class:`~repro.backend.numpy_limb.NumpyLimbBackend`:
  every op runs the runtime-compiled C kernel of
  :mod:`repro.backend.native` when one is loaded for its modulus/group
  (NTT sweeps, pointwise passes, fused Jacobian point kernels and the
  segmented bucket tree of :mod:`repro.backend.numpy_curve`), and the
  inherited scalar loop otherwise — so without kernels it computes
  exactly what ``python`` computes, through the same code.

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
from repro.backend.numpy_limb import NumpyLimbBackend, numpy_available
from repro.backend.pybackend import PythonBackend

__all__ = [
    "ComputeBackend",
    "PythonBackend",
    "NumpyLimbBackend",
    "available_backends",
    "get_backend",
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


def get_backend(name: Optional[Union[str, ComputeBackend]] = None
                ) -> ComputeBackend:
    """Resolve a backend: an instance passes through, a name looks up
    the registry, and ``None`` consults ``$REPRO_BACKEND`` (default
    ``python``). Instances are cached — backends are stateless apart
    from their internal table caches."""
    if isinstance(name, ComputeBackend):
        return name
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR, "python").strip() or "python"
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
if numpy_available():
    register_backend("numpy", NumpyLimbBackend)
