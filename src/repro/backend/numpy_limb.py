"""NumpyLimbBackend: vectorized limb-matrix arithmetic (paper §4.3).

GZKP's finite-field library stores elements as base-2^52 float limbs so
modular multiplication can run on the GPU's FP64 units (DFP, §4.3). This
backend is the CPU/NumPy realisation of the same idea: whole *vectors*
are limb matrices, and every butterfly sweep is a handful of fused array
ops instead of N Python-level big-int multiplications.

Deviations from the paper's exact format, and why:

* **base 2^22, not 2^52.** The GPU path multiplies 52-bit limbs with
  Dekker two-product (error-free double-double). NumPy has no fused
  two-product, so we shrink limbs until plain float64 arithmetic is
  exact: products of 22-bit balanced limbs are < 2^44, and row-sums over
  LG <= 37 limbs stay well under the 2^53 mantissa bound.
* **per-twiddle constant matrices.** A pass multiplies every element of
  the low half by one twiddle w. The multiplication "by w mod p" is a
  *linear* map on limb vectors, so it is precomputed as an (LG, LG)
  float matrix whose column c holds the balanced limbs of
  ``w * 2^(22c) mod p`` — one batched ``matmul`` per pass performs the
  modular product of w with every element, exactly, with lazy reduction
  (results are only *congruent* mod p; canonicalization happens once at
  egress).
* **Stockham self-sorting schedule.** The sweep reads natural order and
  writes natural order with no bit-reversal permutation, mirroring how
  GZKP's shuffle-less NTT avoids the global reorder (§3).

Carries are cleaned with the magic-constant rounding trick
(``(x + 3*2^73) - 3*2^73`` rounds to the nearest multiple of 2^22); two
rounds per pass bound the twiddle operand, and a periodic full clean
(needed only for 750-bit fields) bounds the accumulator lanes. All
results are bit-identical to :class:`~repro.backend.pybackend.
PythonBackend` — enforced by the cross-backend equality tests.
"""

from __future__ import annotations

from collections.abc import Sequence as _Sequence
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.declass import declassify
from repro.backend import coverage as _coverage
from repro.backend.base import ComputeBackend
from repro.backend.native import get_native_field
from repro.errors import CurveError

try:  # numpy ships with the repo's environment, but stay importable without
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

__all__ = ["NumpyLimbBackend", "ResidentVector", "numpy_available"]

#: limb width in bits (see module docstring for why not the paper's 52)
LIMB_BITS = 22
_HALF = 1 << (LIMB_BITS - 1)
_BASE = float(1 << LIMB_BITS)
_INV_BASE = 1.0 / _BASE
#: adding then subtracting this rounds a float to a multiple of 2^22
_MAGIC = float(3 << (51 + LIMB_BITS))
_MASK = (1 << LIMB_BITS) - 1


def numpy_available() -> bool:
    return _np is not None


class _Geometry:
    """Per-modulus constants of the limb-matrix representation."""

    def __init__(self, modulus: int):
        self.p = modulus
        bits = modulus.bit_length()
        ld = (bits + LIMB_BITS - 1) // LIMB_BITS
        # The top data limb must stay below 2^21 after balancing so the
        # guard rows never see a real carry; widen by one limb if the
        # modulus fills its top limb completely.
        if bits > LIMB_BITS * ld - 1:
            ld += 1
        self.ld = ld
        #: two guard limbs absorb normalize carries (no top fold needed)
        self.lg = ld + 2
        #: 32-bit words per canonical element (ingress)
        self.w32 = (bits + 31) // 32
        # Egress adds k*p (k a power of two) so the signed limb value
        # becomes positive before integer carry propagation; the shift
        # leaves ~2^53 of headroom over any reachable accumulator value.
        shift = LIMB_BITS * self.lg + 8 - (bits - 1)
        kp = (1 << shift) * modulus
        self.kp_limbs = _np.array(
            [(kp >> (LIMB_BITS * j)) & _MASK for j in range(self.lg - 1)]
            + [kp >> (LIMB_BITS * (self.lg - 1))],
            dtype=_np.int64,
        )
        #: 32-bit words of the egress accumulator
        self.eg_w32 = (LIMB_BITS * self.lg + 40) // 32 + 1
        # Accumulator lanes grow by ~lg * 2^44 per pass between cleans;
        # renormalize the whole buffer before nearing the 2^53 mantissa.
        self.clean_every = max(2, (1 << 53) // (self.lg << (2 * LIMB_BITS)))
        # One source of truth for "how lazy may the clean cadence be":
        # the certifier's worst-case sweep simulation, not this formula.
        # Lazy import: repro.analysis must stay importable before the
        # backend package finishes initialising.
        from repro.analysis.bounds import certified_safe_clean_every

        safe = certified_safe_clean_every(LIMB_BITS, self.lg)
        if self.clean_every > safe:
            from repro.errors import FieldError

            raise FieldError(
                f"clean_every={self.clean_every} for a {bits}-bit modulus "
                f"(lg={self.lg}) exceeds the certified safe cadence "
                f"{safe}: accumulator lanes could lose float53 exactness"
            )


_GEOMS: Dict[int, _Geometry] = {}
#: pass-matrix cache: (modulus, n, omega) -> list of (L, LG, LG) arrays
_TABLES: Dict[Tuple[int, int, int], list] = {}


def _geometry(modulus: int) -> _Geometry:
    geom = _GEOMS.get(modulus)
    if geom is None:
        geom = _GEOMS[modulus] = _Geometry(modulus)
    return geom


# -- representation conversion -------------------------------------------------


def _ints_to_limbs(geom: _Geometry, vals: Sequence[int]) -> "_np.ndarray":
    """Canonical ints -> (n, LG) float64 limb rows in [0, 2^22)."""
    n = len(vals)
    w32 = geom.w32
    buf = b"".join(v.to_bytes(4 * w32, "little") for v in vals)
    words = _np.frombuffer(buf, dtype="<u4").reshape(n, w32)
    words = words.astype(_np.int64).T.copy()
    out = _np.zeros((n, geom.lg), dtype=_np.float64)
    for j in range(geom.ld):
        w, r = divmod(LIMB_BITS * j, 32)
        acc = words[w] >> r
        if w + 1 < w32 and r + LIMB_BITS > 32:
            acc = acc | (words[w + 1] << (32 - r))
        out[:, j] = (acc & _MASK).astype(_np.float64)
    return out


def _limbs_to_ints(geom: _Geometry, limbs: "_np.ndarray") -> List[int]:
    """(n, LG) float limbs (large/signed allowed) -> canonical ints."""
    n = limbs.shape[0]
    for _ in range(2):
        d = (limbs + _MAGIC) - _MAGIC
        limbs -= d
        c = d * _INV_BASE
        limbs[:, 1:] += c[:, :-1]
        limbs[:, -1] += c[:, -1] * _BASE  # keep the residue in the top limb
    acc = limbs.astype(_np.int64) + geom.kp_limbs
    carry = _np.zeros(n, dtype=_np.int64)
    for j in range(geom.lg):
        t = acc[:, j] + carry
        carry = t >> LIMB_BITS
        acc[:, j] = t & _MASK
    words = _np.zeros((geom.eg_w32, n), dtype=_np.int64)
    for j in range(geom.lg):
        w, r = divmod(LIMB_BITS * j, 32)
        v = acc[:, j] << r
        words[w] |= v & 0xFFFFFFFF
        words[w + 1] |= v >> 32
    w, r = divmod(LIMB_BITS * geom.lg, 32)
    v = carry << r
    words[w] |= v & 0xFFFFFFFF
    if w + 1 < geom.eg_w32:
        words[w + 1] |= v >> 32
    spill = _np.zeros(n, dtype=_np.int64)
    for w in range(geom.eg_w32):
        t = words[w] + spill
        spill = t >> 32
        words[w] = t & 0xFFFFFFFF
    raw = words.T.astype("<u4").tobytes()
    stride = geom.eg_w32 * 4
    p = geom.p
    from_bytes = int.from_bytes
    return [
        from_bytes(raw[i * stride:(i + 1) * stride], "little") % p
        for i in range(n)
    ]


def _balanced_limb_cols(geom: _Geometry, xs: Sequence[int]) -> "_np.ndarray":
    """ints < p -> (LG, len) float *balanced* limbs in [-2^21, 2^21)."""
    n = len(xs)
    nbytes = 4 * ((LIMB_BITS * geom.lg + 31) // 32)
    buf = b"".join(x.to_bytes(nbytes, "little") for x in xs)
    words = _np.frombuffer(buf, dtype="<u4").reshape(n, nbytes // 4)
    words = words.astype(_np.int64).T.copy()
    limbs = _np.zeros((geom.lg, n), dtype=_np.int64)
    for j in range(geom.lg):
        w, r = divmod(LIMB_BITS * j, 32)
        acc = words[w] >> r
        if w + 1 < words.shape[0] and r + LIMB_BITS > 32:
            acc = acc | (words[w + 1] << (32 - r))
        limbs[j] = acc & _MASK
    carry = _np.zeros(n, dtype=_np.int64)
    for j in range(geom.lg):
        t = limbs[j] + carry
        carry = (t >= _HALF).astype(_np.int64)
        limbs[j] = t - (carry << LIMB_BITS)
    # The top limb of any value < p is far below 2^21 (geometry ensures
    # it), so balancing never carries out of the matrix.
    return limbs.T.astype(_np.float64)


# -- twiddle-matrix tables ----------------------------------------------------


def _pass_tables(field, n: int, omega: int) -> list:
    """One (L, LG, LG) constant-matrix stack per Stockham pass.

    Pass t multiplies the transformed half by twiddles w_j = omega^
    (j * n / 2^(t+1)), j < 2^t — exactly iteration t's unique values in
    the shared :class:`~repro.ntt.twiddle.TwiddleTable`, which supplies
    them from its (modulus, n, omega)-keyed cache."""
    key = (field.modulus, n, omega)
    tabs = _TABLES.get(key)
    if tabs is not None:
        return tabs
    from repro.ntt.twiddle import get_twiddle_table

    geom = _geometry(field.modulus)
    table = get_twiddle_table(field, n, omega)
    p, lg = geom.p, geom.lg
    tabs = []
    for t in range(n.bit_length() - 1):
        length = 1 << t
        vals = []
        for w in table.values[length:2 * length]:
            x = w
            for _ in range(lg):
                vals.append(x)
                x = (x << LIMB_BITS) % p
        mat = _balanced_limb_cols(geom, vals)
        tabs.append(mat.reshape(length, lg, lg).transpose(0, 2, 1).copy())
    _TABLES[key] = tabs
    return tabs


def _normalize(view: "_np.ndarray") -> None:
    """Two magic-constant carry rounds along the limb axis (axis 1)."""
    for _ in range(2):
        d = (view + _MAGIC) - _MAGIC
        view -= d
        c = d * _INV_BASE
        view[:, 1:, :] += c[:, :-1, :]
        # The carry out of the top guard row is provably zero while the
        # clean cadence holds, so nothing is dropped here.


def _stockham_ntt(field, vals: Sequence[int], omega: int) -> List[int]:
    """Self-sorting radix-2 sweep over limb matrices; natural order in
    and out, no bit-reversal (results match the DIT reference bit for
    bit)."""
    geom = _geometry(field.modulus)
    n = len(vals)
    log_n = n.bit_length() - 1
    tabs = _pass_tables(field, n, omega)
    lg = geom.lg
    state = _ints_to_limbs(geom, vals).T.copy().reshape(1, lg, n)
    pong = _np.empty(lg * n, dtype=_np.float64)
    v_buf = _np.empty(lg * n // 2, dtype=_np.float64)
    t_buf = _np.empty(lg * n // 2, dtype=_np.float64)
    for i in range(log_n):
        blocks = 1 << i
        m2 = (n >> i) >> 1
        if i and i % geom.clean_every == 0:
            _normalize(state)
        u = state[:, :, :m2]
        v = v_buf.reshape(blocks, lg, m2)
        v[...] = state[:, :, m2:]
        _normalize(v)
        t = _np.matmul(tabs[i], v, out=t_buf.reshape(blocks, lg, m2))
        out = pong.reshape(2 * blocks, lg, m2)
        _np.subtract(u, t, out=out[blocks:])
        _np.add(u, t, out=out[:blocks])
        state, pong = out, state.reshape(-1)
    return _limbs_to_ints(geom, _np.ascontiguousarray(state.reshape(n, lg)))


# -- resident vectors ----------------------------------------------------------


class ResidentVector(_Sequence):
    """A field vector held as the native kernels hold it: ``(n, w)``
    little-endian uint64 rows of *raw* (not Montgomery) residues, every
    row canonical in [0, p).

    This is :class:`NumpyLimbBackend`'s resident form. The seven vector
    ops hand one back whenever they are handed one, so a chain of calls
    (the POLY stage's seven NTTs and eleven pointwise passes) converts
    ints to rows once on the way in and rows to ints once on the way
    out. It is immutable — the rows are marked read-only and no op
    writes into an operand — so aliased operands (``vmul(v, v)``) and
    returning an operand unchanged (the size-1 NTT) are both safe.

    It is also a read-only ``Sequence[int]``: code that knows nothing
    about it (another backend, a user's NTT engine) reads canonical
    ints, decoded once on first access. The limb tier has no resident
    form — its float limb rows are only *congruent* mod p between
    passes and are canonicalised by the very conversion a resident
    form would skip — so without kernels ``resident()`` is the base
    class's reduced list.
    """

    __slots__ = ("nf", "rows", "_ints")

    def __init__(self, nf, rows: "_np.ndarray"):
        rows.flags.writeable = False
        self.nf = nf
        self.rows = rows
        self._ints: Optional[List[int]] = None

    def _decoded(self) -> List[int]:
        """The single egress: raw rows -> canonical ints, once."""
        if self._ints is None:
            self._ints = self.nf.ints_from_words(self.rows)
        return self._ints

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, index):
        return self._decoded()[index]

    def __iter__(self):
        return iter(self._decoded())

    def __eq__(self, other):
        if isinstance(other, ResidentVector):
            # canonical rows: equal values are equal words
            return (self.nf.p == other.nf.p
                    and _np.array_equal(self.rows, other.rows))
        if isinstance(other, (list, tuple)):
            return self._decoded() == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return (f"<ResidentVector n={len(self)} "
                f"p~2^{self.nf.p.bit_length()}>")


# -- the backend ---------------------------------------------------------------


class NumpyLimbBackend(ComputeBackend):
    """One dispatch rule for every op: the native C kernel when one is
    loaded for this modulus/group (:mod:`repro.backend.native`, driven
    for curve ops through :mod:`repro.backend.numpy_curve`), otherwise
    the inherited scalar loop. The single exception is the NTT, whose
    compiler-less fallback is this module's fused limb-matrix Stockham
    sweep — the one middle-tier kernel that beats the scalar loop it
    overrides (DESIGN.md, "Compute backends"). ``digits_matrix`` is
    vectorized unconditionally. Small batches stay on the scalar
    loops.

    The field ops run on :class:`ResidentVector` rows and are
    type-preserving over them (:meth:`_lift`): an int caller gets
    ``egress(op(ingress(x)))`` through the same code a resident caller
    runs, and this class is the only place ints become word rows
    (:meth:`_rows_of`) or word rows become ints
    (``NativeField.ints_from_words``). The curve ops do the same over
    :mod:`repro.backend.numpy_curve`'s two resident point rows (affine
    table rows, Jacobian bucket rows), whose int boundary lives
    there."""

    name = "numpy"
    fuses_ntt_sweeps = True

    def __init__(self):
        if _np is None:  # pragma: no cover - exercised only without numpy
            raise RuntimeError(
                "NumpyLimbBackend requires numpy; install it or use "
                "REPRO_BACKEND=python"
            )

    # -- resident vectors --------------------------------------------------------

    @staticmethod
    def _rows_of(nf, values: Sequence[int]) -> "_np.ndarray":
        """The single ingress: any ints (negative, >= p) -> canonical
        raw rows. A resident vector already is its rows."""
        if isinstance(values, ResidentVector):
            return values.rows
        p = nf.p
        return nf.words_from_ints([v % p for v in values])

    def resident(self, field, values: Sequence[int]):
        """A :class:`ResidentVector` when the kernels are loaded for
        this modulus (an already-resident vector is returned as is),
        the reduced list otherwise."""
        if isinstance(values, ResidentVector):
            return values
        nf = get_native_field(field.modulus)
        if nf is None:
            return super().resident(field, values)
        return ResidentVector(nf, self._rows_of(nf, values))

    def _lift(self, field, family: str, floor: Optional[int], *operands):
        """Route one vector op. Returns ``(nf, rows, wrap)`` — the
        native field, one raw-row array per operand, and the wrapper
        that turns result rows into what the caller was handed — or
        ``None`` when the op belongs to the scalar/limb fallback.

        Any resident operand keeps the op resident (and ``wrap`` builds
        a :class:`ResidentVector`). An all-int call converts only when
        it has at least ``floor`` elements (``None``: never — the op's
        C time cannot repay the conversions) and the kernels are
        loaded; ``wrap`` is then the egress to a list. Notes the
        coverage tally as a dispatch decision; a batch below its floor
        is a size choice and stays silent."""
        held = [v for v in operands if isinstance(v, ResidentVector)]
        if held:
            nf = held[0].nf
            wrap = partial(ResidentVector, nf)
        else:
            if floor is None or len(operands[0]) < floor:
                return None
            nf = get_native_field(field.modulus)
            if nf is None:
                _coverage.note(family, "fallback")
                return None
            wrap = nf.ints_from_words
        _coverage.note(family, "native")
        return nf, [self._rows_of(nf, v) for v in operands], wrap

    # -- fused NTT sweeps -------------------------------------------------------

    def ntt(self, field, values: Sequence[int], omega: Optional[int] = None,
            counter=None) -> List[int]:
        from repro.ntt.reference import _check_size

        n = len(values)
        log_n = _check_size(n)
        if omega is None:
            omega = field.root_of_unity(n)
        if counter is not None:
            # Identical totals to the scalar sweep's per-iteration counts.
            counter.count("butterfly", (n // 2) * log_n)
            counter.count("fr_mul", (n // 2) * log_n)
            counter.count("fr_add", n * log_n)
        if n == 1:  # the identity, on either representation
            return (values if isinstance(values, ResidentVector)
                    else super().resident(field, values))
        lifted = self._lift(field, "ntt", 2, values)
        if lifted is None:
            return _stockham_ntt(field, super().resident(field, values),
                                 omega)
        # Native Stockham sweep: same pass structure and twiddle table
        # as the limb-matrix path — the counts above already cover it.
        nf, (rows,), wrap = lifted
        return wrap(nf.ntt_rows(field, rows, omega))

    def intt(self, field, values: Sequence[int], counter=None) -> List[int]:
        """Inverse sweep; the 1/N scale runs through :meth:`vscale`
        (native broadcast mul when available) with the reference's
        fr_mul count. Int callers are lifted once around both steps."""
        from repro.ntt.reference import _check_size

        n = len(values)
        _check_size(n)
        vec = self.resident(field, values)
        out = self.ntt(field, vec, omega=field.inv_root_of_unity(n),
                       counter=counter)
        if counter is not None:
            counter.count("fr_mul", n)
        out = self.vscale(field, out, field.inv(n))
        return out if vec is values else self.ints(out)

    # -- batch field arithmetic -------------------------------------------------

    def vadd(self, field, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
        """Resident operands: one ``mod_add_batch``. Int operands keep
        the scalar loop: two ingresses and an egress around one modular
        add cost 7-10x the loop they would replace (DESIGN.md)."""
        self._check_pair(xs, ys)
        lifted = self._lift(field, "pointwise", None, xs, ys)
        if lifted is None:
            return super().vadd(field, xs, ys)
        nf, (a, b), wrap = lifted
        return wrap(nf.add(a, b))

    def vsub(self, field, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
        """Resident operands: one ``mod_sub_batch``; int operands keep
        the scalar loop (see :meth:`vadd`)."""
        self._check_pair(xs, ys)
        lifted = self._lift(field, "pointwise", None, xs, ys)
        if lifted is None:
            return super().vsub(field, xs, ys)
        nf, (a, b), wrap = lifted
        return wrap(nf.sub(a, b))

    def vmul_powers(self, field, xs: Sequence[int], g: int) -> List[int]:
        """Coset scaling: raw rows times the cached Montgomery ladder —
        one CIOS mul per element, ladder built by one sequential C
        sweep — when the kernels are loaded, scalar loop otherwise."""
        lifted = self._lift(field, "pointwise", 2, xs)
        if lifted is None:
            return super().vmul_powers(field, xs, g)
        nf, (a,), wrap = lifted
        return wrap(nf.mul(a, nf.mont_ladder(g, a.shape[0])))

    def vmul(self, field, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
        """Pointwise product: two batched CIOS muls (x*y*R^-1, then
        fold by R^2) when the kernels are loaded, scalar loop
        otherwise."""
        self._check_pair(xs, ys)
        lifted = self._lift(field, "pointwise", 1, xs, ys)
        if lifted is None:
            return super().vmul(field, xs, ys)
        nf, (a, b), wrap = lifted
        return wrap(nf.mul_raw(a, b))

    def vscale(self, field, xs: Sequence[int], k: int) -> List[int]:
        """Whole-vector scale by one constant: a broadcast native mul
        against the Montgomery row of k when the kernels are loaded
        (the inverse NTT's 1/N scale and the quotient's z_inv scale),
        scalar loop otherwise."""
        lifted = self._lift(field, "pointwise", 2, xs)
        if lifted is None:
            return super().vscale(field, xs, k)
        nf, (a,), wrap = lifted
        return wrap(nf.mul_const(a, nf.encode_const(k)))

    # -- scalar front-end -------------------------------------------------------

    @declassify("MSM scalar front-end (vectorized): digit matrices "
                "feed bucket routing, GZKP's public workload shape "
                "(Figure 6)")
    def digits_matrix(self, scalars: Sequence[int], scalar_bits: int,
                      window: int) -> "_np.ndarray":
        """All windows of all scalars at once: the scalar vector becomes
        one little-endian 32-bit word matrix, and each window column is
        two word lanes shifted and masked — no per-(scalar, window)
        Python loop. Returns an ``(n, windows)`` int64 array whose rows
        equal :func:`repro.msm.windows.scalar_digits` exactly."""
        from repro.msm.windows import num_windows

        w = num_windows(scalar_bits, window)
        n = len(scalars)
        if n == 0:
            return _np.zeros((0, w), dtype=_np.int64)
        if window > 30:
            # Two 32-bit word lanes cover any window <= 30 without
            # overflowing int64; wider windows take the scalar loop.
            return _np.array(super().digits_matrix(scalars, scalar_bits,
                                                   window), dtype=_np.int64)
        # Cover every bit any window reads (the top window may reach
        # past scalar_bits), plus one guard word for the two-lane reads.
        w32 = (max(scalar_bits, w * window) + 31) // 32
        try:
            buf = b"".join(s.to_bytes(4 * w32, "little") for s in scalars)
        except OverflowError:
            # Negative (raises MsmError downstream) or oversized
            # scalars: delegate to the exact scalar path.
            return _np.array(super().digits_matrix(scalars, scalar_bits,
                                                   window), dtype=_np.int64)
        words = _np.frombuffer(buf, dtype="<u4").reshape(n, w32)
        words = _np.concatenate(
            [words.astype(_np.int64),
             _np.zeros((n, 1), dtype=_np.int64)], axis=1,
        )
        mask = (1 << window) - 1
        out = _np.empty((n, w), dtype=_np.int64)
        for t in range(w):
            wi, r = divmod(t * window, 32)
            acc = words[:, wi] >> r
            if r + window > 32:
                acc = acc | (words[:, wi + 1] << (32 - r))
            _np.bitwise_and(acc, mask, out=out[:, t])
        return out

    def digit_entries(self, digits, window: int, interval: int):
        """Index arithmetic on whole vectors over the non-zero digits
        only; row-major ``nonzero`` order is the scalar loop's exact
        entry order. Returns int64 arrays."""
        dm = _np.ascontiguousarray(digits, dtype=_np.int64)
        flat = _np.flatnonzero(dm)
        nz_i, nz_t = _np.divmod(flat, dm.shape[1])
        blocks = nz_t // interval
        slot_idx = ((nz_t - blocks * interval) * ((1 << window) - 1)
                    + dm.ravel()[flat] - 1)
        return slot_idx, blocks, nz_i

    # -- batch curve ops --------------------------------------------------------
    # numpy_curve returns None (and notes the coverage fallback) when
    # the group has no native engine; below the lane/entry thresholds
    # the scalar loop is a size choice and stays silent. A resident row
    # stays on the kernels whatever its length, and its read-only
    # Sequence behaviour keeps every inherited loop correct for it.

    def resident_points(self, group, points: Sequence) -> Sequence:
        """A :class:`~repro.backend.numpy_curve.ResidentPoints` row when
        the kernels serve this group (an already-resident row is
        returned as is), a plain list otherwise."""
        from repro.backend import numpy_curve as _nc

        out = _nc.resident_points(group, points)
        return super().resident_points(group, points) if out is None else out

    def gather_points(self, row: Sequence, idx: Sequence[int]) -> Sequence:
        """A resident row gathers its word planes by the index vector;
        a list takes the inherited comprehension."""
        from repro.backend import numpy_curve as _nc

        if isinstance(row, _nc.ResidentPoints):
            return _nc.gather_points(row, idx)
        return super().gather_points(row, idx)

    def batch_to_jacobian(self, group, points: Sequence) -> Sequence:
        from repro.backend import numpy_curve as _nc

        if isinstance(points, _nc.ResidentPoints):
            out = _nc.batch_to_jacobian(group, points)
            if out is not None:
                return out
        return super().batch_to_jacobian(group, points)

    def batch_from_jacobian(self, group, points: Sequence) -> Sequence:
        from repro.backend import numpy_curve as _nc

        if isinstance(points, _nc.ResidentBuckets):
            out = _nc.batch_from_jacobian(group, points)
            if out is not None:
                return out
        return super().batch_from_jacobian(group, points)

    def batch_jdouble(self, group, points: Sequence) -> Sequence:
        from repro.backend import numpy_curve as _nc

        if _nc.vectorizes(points):
            out = _nc.batch_jdouble(group, points)
            if out is not None:
                return out
        return super().batch_jdouble(group, points)

    def batch_jadd(self, group, ps: Sequence, qs: Sequence) -> Sequence:
        from repro.backend import numpy_curve as _nc

        self._check_pair(ps, qs, CurveError)
        if _nc.vectorizes(ps, qs):
            out = _nc.batch_jadd(group, ps, qs)
            if out is not None:
                return out
        return super().batch_jadd(group, ps, qs)

    def batch_jmixed_add(self, group, ps: Sequence, qs: Sequence) -> List:
        """The affine operands lifted to Jacobian (z = 1) into the
        ``jadd`` kernel: ``jmixed_add`` *is* ``jadd`` with z2 = 1 —
        same u/s/h/r values, same routing, same single padd — so there
        is no mixed-add kernel. A ``None`` lifts to p's own x/y with
        z = 0: ``jadd`` hands p back for it, and when p is infinite too
        hands back q — which is then p again, as ``jmixed_add``
        returns."""
        from repro.backend import numpy_curve as _nc

        self._check_pair(ps, qs, CurveError)
        if len(ps) >= _nc.MIN_VECTOR_LANES:
            o = group.ops
            out = _nc.batch_jadd(group, ps, [
                (p[0], p[1], o.zero) if q is None else (q[0], q[1], o.one)
                for p, q in zip(ps, qs)])
            if out is not None:
                return out
        return super().batch_jmixed_add(group, ps, qs)

    def accumulate_buckets(self, group, buckets: List, entries) -> List:
        from repro.backend import numpy_curve as _nc

        out = _nc.accumulate_buckets_segmented(group, buckets, entries)
        if out is None:
            return super().accumulate_buckets(group, buckets, entries)
        return out

    def accumulate_table(self, group, table: Sequence, n_slots: int,
                         slot_idx, row_idx, col_idx) -> Sequence:
        from repro.backend import numpy_curve as _nc

        out = _nc.accumulate_table_segmented(group, table, n_slots,
                                             slot_idx, row_idx, col_idx)
        if out is None:
            return super().accumulate_table(
                group, table, n_slots,
                *(_np.asarray(v).tolist()
                  for v in (slot_idx, row_idx, col_idx)))
        return out

    def bucket_reduce(self, group, buckets: Sequence):
        """One call into the sequential C fold (2 ``jadd``s per bucket,
        special cases routed in C, tallies booked here) when the
        kernels serve this group; the inherited ordered loop
        otherwise."""
        from repro.backend import numpy_curve as _nc

        if _nc.vectorizes(buckets):
            out = _nc.bucket_reduce(group, buckets)
            if out is not None:
                return out
        return super().bucket_reduce(group, buckets)
