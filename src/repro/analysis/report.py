"""Machine-readable artefacts of the kernel-safety analysis.

Two result kinds flow out of :mod:`repro.analysis`:

* :class:`BoundCheck` / :class:`KernelCertificate` — the limb-bound
  certifier's output: one certificate per (kernel family, modulus),
  each a list of named worst-case-magnitude checks against a hard
  representability limit (u128 accumulator range, carry headroom,
  structural gates).
* :class:`LintFinding` — one repo-rule violation (R001..) at a source
  location.

Everything exports to plain JSON-able dicts so CI can archive the
certificate and diff it across commits. Magnitudes are arbitrary
precision ints (Python's ``json`` serialises them losslessly); the
rendered text shows bit lengths, which is what a human margin check
needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "BoundCheck",
    "KernelCertificate",
    "LintFinding",
    "AnalysisReport",
]


@dataclass(frozen=True)
class BoundCheck:
    """One certified inequality: ``bound`` must stay below ``limit``.

    ``bound`` is the certifier's worst-case magnitude for the named
    intermediate (inclusive); ``limit`` is the exclusive representability
    ceiling it must stay under. ``kind`` names the resource the limit
    protects (``u128``, ``carry``, ``structure``).
    """

    name: str
    bound: int
    limit: int
    kind: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.bound < self.limit

    @property
    def margin_bits(self) -> int:
        """Headroom in bits (negative when violated)."""
        return self.limit.bit_length() - max(self.bound, 1).bit_length()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "bound": self.bound,
            "limit": self.limit,
            "kind": self.kind,
            "ok": self.ok,
            "margin_bits": self.margin_bits,
            "detail": self.detail,
        }


@dataclass
class KernelCertificate:
    """All checks for one (kernel family, modulus) pair."""

    family: str            # "native-mont" | "native-jacobian"
    modulus_name: str
    modulus_bits: int
    params: Dict[str, int] = field(default_factory=dict)
    checks: List[BoundCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def violations(self) -> List[BoundCheck]:
        return [c for c in self.checks if not c.ok]

    def check(self, name: str) -> Optional[BoundCheck]:
        for c in self.checks:
            if c.name == name:
                return c
        return None

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "modulus": self.modulus_name,
            "modulus_bits": self.modulus_bits,
            "ok": self.ok,
            "params": dict(self.params),
            "checks": [c.to_dict() for c in self.checks],
        }


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    code: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class AnalysisReport:
    """The full run: every certificate plus every lint finding."""

    certificates: List[KernelCertificate] = field(default_factory=list)
    findings: List[LintFinding] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings and all(c.ok for c in self.certificates)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "meta": dict(self.meta),
            "certificates": [c.to_dict() for c in self.certificates],
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self, verbose: bool = False) -> str:
        out: List[str] = []
        for f in self.findings:
            out.append(f.render())
        for cert in self.certificates:
            bad = cert.violations()
            status = "OK" if not bad else f"FAIL ({len(bad)} violation(s))"
            tight = min((c.margin_bits for c in cert.checks), default=0)
            out.append(
                f"[{cert.family}] {cert.modulus_name} "
                f"({cert.modulus_bits}-bit): {status}, "
                f"{len(cert.checks)} checks, min margin {tight} bits"
            )
            shown = cert.checks if verbose else bad
            for c in shown:
                mark = "ok " if c.ok else "VIOLATION"
                out.append(
                    f"    {mark} {c.name}: |x| <= 2^"
                    f"{max(c.bound, 1).bit_length()} vs limit 2^"
                    f"{c.limit.bit_length() - 1} [{c.kind}]"
                    + (f" — {c.detail}" if c.detail else "")
                )
        n_viol = sum(len(c.violations()) for c in self.certificates)
        out.append(
            f"analysis: {len(self.findings)} lint finding(s), "
            f"{n_viol} bound violation(s) across "
            f"{len(self.certificates)} certificate(s)"
        )
        return "\n".join(out)
