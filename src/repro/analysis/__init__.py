"""Kernel-safety static analysis: limb-bound certifier + repo lints.

Import-light on purpose: :mod:`repro.backend` imports
:mod:`repro.analysis.declass` for ``@declassify``, so this package must
not import backend modules at import time (the certifier imports
``repro.ff.params`` lazily).

Entry points:

* ``python -m repro.analysis [paths...]`` — run both engines.
* :func:`repro.analysis.bounds.certify_all` — certificates for every
  registered modulus and kernel family.
* :func:`repro.analysis.lint.run_lint` — rule findings for a file set.
"""
