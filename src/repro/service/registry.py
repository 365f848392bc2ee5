"""Named circuits the proving service accepts jobs for.

Proof jobs cross a process boundary, so they cannot carry live
:class:`~repro.snark.r1cs.R1CS` objects (constraints hold field
references and the service would have to trust arbitrary pickles).
Instead a job names a registered circuit and supplies only the raw
witness integers; both the parent (for verification keys) and the
workers (for proving) rebuild the same R1CS deterministically from the
registry.

Each :class:`CircuitSpec` knows how to build its constraint system over
any scalar field and how to extend a witness vector into the full
variable assignment (constant 1, computed public inputs, witness). The
specs here are deliberately tiny — the service's job is concurrency and
observability, not constraint-system scale — but anything satisfying
the ``build``/``assign`` contract can be registered, including the
gadget generators from :mod:`repro.circuits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import ValidationError
from repro.ff.primefield import PrimeField
from repro.snark.r1cs import R1CS

__all__ = ["CircuitSpec", "CIRCUIT_REGISTRY", "get_circuit",
           "register_circuit", "build_instance", "MULCHAIN_SIZES"]


@dataclass(frozen=True)
class CircuitSpec:
    """One service-provable circuit.

    ``build(field)`` returns the R1CS; ``assign(field, witness)``
    returns the full assignment vector (index 0 is the constant 1,
    then ``n_public`` computed public inputs, then the witness and any
    intermediate variables). ``n_witness`` is the exact number of
    caller-supplied witness values.
    """

    name: str
    n_witness: int
    build: Callable[[PrimeField], R1CS]
    assign: Callable[[PrimeField, Sequence[int]], List[int]]
    description: str = ""


CIRCUIT_REGISTRY: Dict[str, CircuitSpec] = {}


def register_circuit(spec: CircuitSpec) -> CircuitSpec:
    CIRCUIT_REGISTRY[spec.name] = spec
    return spec


def get_circuit(name: str) -> CircuitSpec:
    try:
        return CIRCUIT_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(CIRCUIT_REGISTRY))
        raise ValidationError(
            f"unknown circuit {name!r} (registered: {known})"
        ) from None


def build_instance(name: str, field: PrimeField,
                   witness: Sequence[int]) -> Tuple[R1CS, List[int]]:
    """(R1CS, full assignment) for one job — used by the workers."""
    spec = get_circuit(name)
    return spec.build(field), spec.assign(field, witness)


# -- the built-in circuits ---------------------------------------------------------


def _build_square(field: PrimeField) -> R1CS:
    # vars: 0 = 1, 1 = out (public), 2 = x
    r1cs = R1CS(field, n_public=1, n_variables=3)
    r1cs.add_constraint({2: 1}, {2: 1}, {1: 1})
    return r1cs


def _assign_square(field: PrimeField, witness: Sequence[int]) -> List[int]:
    (x,) = witness
    return [1, field.mul(x, x), x]


def _build_product(field: PrimeField) -> R1CS:
    # vars: 0 = 1, 1 = out, 2 = s (public), 3 = x, 4 = y
    # x * y = out and x + y = s (the test suite's product circuit).
    r1cs = R1CS(field, n_public=2, n_variables=5)
    r1cs.add_constraint({3: 1}, {4: 1}, {1: 1})
    r1cs.add_constraint({3: 1, 4: 1}, {0: 1}, {2: 1})
    return r1cs


def _assign_product(field: PrimeField, witness: Sequence[int]) -> List[int]:
    x, y = witness
    return [1, field.mul(x, y), field.add(x, y), x, y]


def _build_cubic(field: PrimeField) -> R1CS:
    # vars: 0 = 1, 1 = out (public), 2 = x, 3 = x^2, 4 = x^3
    # x^3 + x + 5 = out, the classic toy relation.
    r1cs = R1CS(field, n_public=1, n_variables=5)
    r1cs.add_constraint({2: 1}, {2: 1}, {3: 1})
    r1cs.add_constraint({3: 1}, {2: 1}, {4: 1})
    r1cs.add_constraint({4: 1, 2: 1, 0: 5}, {0: 1}, {1: 1})
    return r1cs


def _assign_cubic(field: PrimeField, witness: Sequence[int]) -> List[int]:
    (x,) = witness
    x2 = field.mul(x, x)
    x3 = field.mul(x2, x)
    out = field.add(field.add(x3, x), field.reduce(5))
    return [1, out, x, x2, x3]


def _build_range4(field: PrimeField) -> R1CS:
    # vars: 0 = 1, 1 = x (public), 2..5 = bits b0..b3
    # b_i booleanity plus sum(2^i b_i) = x: proves x in [0, 16). A
    # witness outside the range yields an unsatisfiable assignment —
    # the service's "rejected at proving time" path.
    r1cs = R1CS(field, n_public=1, n_variables=6)
    for i in range(4):
        r1cs.add_constraint({2 + i: 1}, {2 + i: 1}, {2 + i: 1})
    r1cs.add_constraint({2 + i: 1 << i for i in range(4)}, {0: 1}, {1: 1})
    return r1cs


def _assign_range4(field: PrimeField, witness: Sequence[int]) -> List[int]:
    (x,) = witness
    bits = [(x >> i) & 1 for i in range(4)]
    return [1, field.reduce(x), *bits]


def _build_mulchain(k: int) -> Callable[[PrimeField], R1CS]:
    def build(field: PrimeField) -> R1CS:
        # vars: 0 = 1, 1 = out (public), 2 = x, 3..k+1 = x^(2^i)
        # out = x^(2^k) by repeated squaring: k constraints, k+2 vars.
        r1cs = R1CS(field, n_public=1, n_variables=k + 2)
        prev = 2
        for i in range(k - 1):
            r1cs.add_constraint({prev: 1}, {prev: 1}, {3 + i: 1})
            prev = 3 + i
        r1cs.add_constraint({prev: 1}, {prev: 1}, {1: 1})
        return r1cs

    return build


def _assign_mulchain(k: int):
    def assign(field: PrimeField, witness: Sequence[int]) -> List[int]:
        (x,) = witness
        powers = [field.reduce(x)]
        for _ in range(k):
            powers.append(field.mul(powers[-1], powers[-1]))
        return [1, powers[k], powers[0], *powers[1:k]]

    return assign


#: The squaring-chain family behind multi-key service streams:
#: one key per size, so a population of distinct (curve, circuit) keys
#: with non-trivial per-key preprocessing cost is available without
#: inventing bespoke circuits per experiment.
MULCHAIN_SIZES = (8, 12, 16, 20, 24, 28, 32, 40, 48, 64)

for _k in MULCHAIN_SIZES:
    register_circuit(CircuitSpec(
        f"mulchain{_k}", 1, _build_mulchain(_k), _assign_mulchain(_k),
        f"out = x^(2^{_k}) by repeated squaring ({_k} constraints)"))


register_circuit(CircuitSpec(
    "square", 1, _build_square, _assign_square,
    "out = x^2 (1 constraint)"))
register_circuit(CircuitSpec(
    "product", 2, _build_product, _assign_product,
    "out = x*y, s = x+y (2 constraints)"))
register_circuit(CircuitSpec(
    "cubic", 1, _build_cubic, _assign_cubic,
    "out = x^3 + x + 5 (3 constraints)"))
register_circuit(CircuitSpec(
    "range4", 1, _build_range4, _assign_range4,
    "x in [0, 16) via bit decomposition (5 constraints)"))
