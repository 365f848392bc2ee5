"""Runtime-compiled Montgomery word kernels: the pipeline's native floor.

The segmented bucket reduction (:mod:`repro.backend.numpy_curve`) and the
POLY stage's NTT/pointwise passes spend nearly all of their time in
full-width modular multiplications. Pure NumPy limb arithmetic tops out
around 600 ns per 381-bit multiply on one core — barely 2x the CPython
big-int it replaces — because every product pays ~40 array passes of
memory traffic. A single tight CIOS loop in C does the same multiply in
~100 ns (381-bit) / ~340 ns (753-bit), which is what buys the MSM
ablation its headroom and, since this module grew the Stockham sweep,
the full-proof native ablation too.

So this module compiles one small C file (batch kernels: CIOS Montgomery
multiply, modular add/sub, the Jacobian point kernels — one doubling
and one addition per coordinate field, looped per lane and folded
sequentially over buckets — the point-merging tree, a whole-vector
Stockham NTT sweep, a sequential power ladder and a broadcast constant
multiply, all over little-endian 64-bit word rows) with the system
compiler at first use, caches the shared object keyed by a hash of the
source and the compile flags, and loads it with :mod:`ctypes`. There
is no build step, no new package dependency, and no platform
assumption beyond "a C compiler exists":
when none does (or ``REPRO_NATIVE=0`` is set) :func:`get_native_field`
returns ``None`` and callers fall back to the scalar reference path,
bit-identically.

Cache layout — these two files are everything the cache holds::

    <base>/<digest>/kernels.c      # published source (provenance)
    <base>/<digest>/kernels.so     # the compiled kernels

``<digest>`` is the first 16 hex digits of the sha256 of the compile
flags and the source.

``<base>`` is ``$REPRO_NATIVE_CACHE`` — a deployment setting, trusted as
given — or else ``<tmp>/repro-native-<uid>``. That default name is
guessable and ``kernels.so`` is ``dlopen``-ed, so it is used only while
it is a real directory owned by this uid that nobody else can write;
otherwise the loader records ``native-kernel-cache-untrusted``, warns,
and builds into a process-private ``mkdtemp`` directory instead.

Both files are published with a pid-unique temp file + ``os.replace``
so concurrent first-compiles (the forked service) race cleanly: both
processes may build, but readers only ever observe complete files. A
cached ``.so`` that fails to ``dlopen`` (stale architecture, truncated
write from a killed process) is deleted and rebuilt once before the
module gives up — a corrupt cache degrades to one recompile, never to a
silent scalar fallback. Loader outcomes (compile, cache hit, corrupt
artifact, compile failure with the captured compiler stderr) are
recorded in an in-process event log — :func:`kernel_events` /
:func:`drain_kernel_events` — which the service forwards into job
telemetry and CI asserts against for the warm-cache "zero recompiles"
gate.

Lanes are C-contiguous ``(n, w)`` uint64 arrays, one row per field
element, little-endian words. Curve kernels — the Jacobian point
kernels and the merge alike — take and return rows **in the Montgomery
domain** (x·R mod p, R = 2^(64w)) and convert nothing,
so a point converts once on its way in and once on its way out however
many kernels it crosses; the NTT/pointwise row
ops instead take and return *raw* canonical rows and fold the R factors
into their constants (Montgomery-encoded twiddles, R^2 rows, Montgomery
power ladders), so crossing into and out of the native field path costs
no extra conversion multiplies. This module has no int-in/int-out field
op: the backend's resident vector (:mod:`repro.backend.numpy_limb`)
holds raw rows across a whole chain of calls and owns the one ingress
and the one egress. Residues are canonical — kept in [0, p) by
a final conditional subtract — so equality and zero tests are plain
NumPy array compares, with no lazy-reduction bookkeeping.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import time
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

try:  # keep importable without numpy (mirrors numpy_limb)
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

__all__ = ["native_available", "get_native_field", "NativeField",
           "NATIVE_ENV_VAR", "reset_native", "kernel_events",
           "drain_kernel_events", "cache_base_dir"]

#: set to ``0``/``off``/``false`` to disable the compiled kernels
NATIVE_ENV_VAR = "REPRO_NATIVE"

#: hard cap on 64-bit words per element the C scratch buffer supports
MAX_WORDS = 32

_C_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>
#include <stdlib.h>

typedef unsigned __int128 u128;

/* One CIOS Montgomery multiply: op = ap*bp*R^-1 mod N, R = 2^(64w).
   Little-endian words; the final conditional subtract keeps the result
   canonical in [0, N). op is written only after ap/bp are fully read,
   so op may alias either input. */
static inline __attribute__((always_inline)) void mont_mul_w(
    uint64_t *op, const uint64_t *ap, const uint64_t *bp,
    const uint64_t *N, uint64_t n0inv, int w)
{
    uint64_t t[34];
    for (int j = 0; j <= w + 1; j++) t[j] = 0;
#pragma GCC unroll 6
    for (int i = 0; i < w; i++) {
        uint64_t ai = ap[i];
        u128 acc = 0;
#pragma GCC unroll 6
        for (int j = 0; j < w; j++) {
            acc = (u128)ai * bp[j] + t[j] + (uint64_t)(acc >> 64);
            t[j] = (uint64_t)acc;
        }
        acc = (u128)t[w] + (uint64_t)(acc >> 64);
        t[w] = (uint64_t)acc;
        t[w + 1] += (uint64_t)(acc >> 64);
        uint64_t m = t[0] * n0inv;
        acc = (u128)m * N[0] + t[0];
#pragma GCC unroll 6
        for (int j = 1; j < w; j++) {
            acc = (u128)m * N[j] + t[j] + (uint64_t)(acc >> 64);
            t[j - 1] = (uint64_t)acc;
        }
        acc = (u128)t[w] + (uint64_t)(acc >> 64);
        t[w - 1] = (uint64_t)acc;
        t[w] = t[w + 1] + (uint64_t)(acc >> 64);
        t[w + 1] = 0;
    }
    int ge = 1;
    if (!t[w]) {
        ge = 0;
        for (int j = w - 1; j >= 0; j--) {
            if (t[j] > N[j]) { ge = 1; break; }
            if (t[j] < N[j]) { ge = 0; break; }
            if (j == 0) ge = 1; /* equal */
        }
    }
    if (ge) {
        u128 borrow = 0;
        for (int j = 0; j < w; j++) {
            u128 d = (u128)t[j] - N[j] - (uint64_t)borrow;
            op[j] = (uint64_t)d;
            borrow = (d >> 64) ? 1 : 0;
        }
    } else {
        for (int j = 0; j < w; j++) op[j] = t[j];
    }
}

/* op = ap - bp mod N (canonical). In-place safe. */
static inline __attribute__((always_inline)) void mod_sub_w(
    uint64_t *op, const uint64_t *ap, const uint64_t *bp,
    const uint64_t *N, int w)
{
    u128 borrow = 0;
    for (int j = 0; j < w; j++) {
        u128 d = (u128)ap[j] - bp[j] - (uint64_t)borrow;
        op[j] = (uint64_t)d;
        borrow = (d >> 64) ? 1 : 0;
    }
    if (borrow) {
        u128 carry = 0;
        for (int j = 0; j < w; j++) {
            u128 s = (u128)op[j] + N[j] + (uint64_t)carry;
            op[j] = (uint64_t)s;
            carry = s >> 64;
        }
    }
}

/* op = ap + bp mod N (canonical). In-place safe. */
static inline __attribute__((always_inline)) void mod_add_w(
    uint64_t *op, const uint64_t *ap, const uint64_t *bp,
    const uint64_t *N, int w)
{
    u128 carry = 0;
    for (int j = 0; j < w; j++) {
        u128 s = (u128)ap[j] + bp[j] + (uint64_t)carry;
        op[j] = (uint64_t)s;
        carry = s >> 64;
    }
    int ge = carry ? 1 : 0;
    if (!ge) {
        for (int j = w - 1; j >= 0; j--) {
            if (op[j] > N[j]) { ge = 1; break; }
            if (op[j] < N[j]) break;
            if (j == 0) ge = 1;
        }
    }
    if (ge) {
        u128 borrow = 0;
        for (int j = 0; j < w; j++) {
            u128 d = (u128)op[j] - N[j] - (uint64_t)borrow;
            op[j] = (uint64_t)d;
            borrow = (d >> 64) ? 1 : 0;
        }
    }
}

/* The three primitives every kernel calls. Each hands its one body a
   literal width for the 4- and 6-word moduli, which the compiler then
   unrolls (6 words only with the pragmas above), and the run-time w for
   every other width (12 words included: specialising it measured
   slower). They stay out of line: inlining the switch into every call
   site multiplied compile time and compiler memory for no faster
   product. */
static __attribute__((noinline)) void mont_mul_one(
    uint64_t *op, const uint64_t *ap, const uint64_t *bp,
    const uint64_t *N, uint64_t n0inv, int w)
{
    switch (w) {
    case 4: mont_mul_w(op, ap, bp, N, n0inv, 4); break;
    case 6: mont_mul_w(op, ap, bp, N, n0inv, 6); break;
    default: mont_mul_w(op, ap, bp, N, n0inv, w);
    }
}

static __attribute__((noinline)) void mod_sub_one(
    uint64_t *op, const uint64_t *ap, const uint64_t *bp,
    const uint64_t *N, int w)
{
    switch (w) {
    case 4: mod_sub_w(op, ap, bp, N, 4); break;
    case 6: mod_sub_w(op, ap, bp, N, 6); break;
    default: mod_sub_w(op, ap, bp, N, w);
    }
}

static __attribute__((noinline)) void mod_add_one(
    uint64_t *op, const uint64_t *ap, const uint64_t *bp,
    const uint64_t *N, int w)
{
    switch (w) {
    case 4: mod_add_w(op, ap, bp, N, 4); break;
    case 6: mod_add_w(op, ap, bp, N, 6); break;
    default: mod_add_w(op, ap, bp, N, w);
    }
}

/* Batch wrappers: lanes are row-major (n, w) arrays, one element per
   row. Safe to alias out with a or b. */
void mont_mul_batch(uint64_t *out, const uint64_t *a, const uint64_t *b,
                    size_t n, const uint64_t *N, uint64_t n0inv, int w)
{
    for (size_t k = 0; k < n; k++)
        mont_mul_one(out + k * w, a + k * w, b + k * w, N, n0inv, w);
}

/* out[k] = a[k] * b (one shared right operand): the broadcast form
   used by encode/decode/vscale without materializing a tiled array. */
void mont_mul_const_batch(uint64_t *out, const uint64_t *a,
                          const uint64_t *b, size_t n, const uint64_t *N,
                          uint64_t n0inv, int w)
{
    for (size_t k = 0; k < n; k++)
        mont_mul_one(out + k * w, a + k * w, b, N, n0inv, w);
}

void mod_sub_batch(uint64_t *out, const uint64_t *a, const uint64_t *b,
                   size_t n, const uint64_t *N, int w)
{
    for (size_t k = 0; k < n; k++)
        mod_sub_one(out + k * w, a + k * w, b + k * w, N, w);
}

void mod_add_batch(uint64_t *out, const uint64_t *a, const uint64_t *b,
                   size_t n, const uint64_t *N, int w)
{
    for (size_t k = 0; k < n; k++)
        mod_add_one(out + k * w, a + k * w, b + k * w, N, w);
}

/* Sequential Montgomery power ladder: out[0] = one, out[k] =
   out[k-1] * g. With one = R and g = x*R this yields x^k * R — the
   Montgomery coset ladder whose product against raw rows lands back in
   the raw domain. out must not alias g. */
void mont_powers(uint64_t *out, const uint64_t *one, const uint64_t *g,
                 size_t n, const uint64_t *N, uint64_t n0inv, int w)
{
    if (!n) return;
    for (int j = 0; j < w; j++) out[j] = one[j];
    for (size_t k = 1; k < n; k++)
        mont_mul_one(out + k * w, out + (k - 1) * w, g, N, n0inv, w);
}

/* Whole-vector Stockham radix-2 NTT sweep: natural order in and out,
   no bit-reversal, mirroring the numpy limb engine's pass structure
   (and therefore the scalar DIT reference, bit for bit).

   data holds n raw canonical rows; tw holds the shared twiddle table
   in Montgomery form laid out exactly like repro.ntt.twiddle
   (tw[2^i + b] = omega^(b * n / 2^(i+1)) * R), so pass i block b reads
   row (blocks + b). The butterfly multiply is a plain CIOS product of
   a raw row with a Montgomery twiddle — the R factors cancel, keeping
   every intermediate in the raw domain with zero conversion muls.
   scratch is an (n, w) ping-pong buffer; the result is always copied
   back into data. */
void ntt_stockham(uint64_t *data, uint64_t *scratch, const uint64_t *tw,
                  size_t n, int log_n, const uint64_t *N, uint64_t n0inv,
                  int w)
{
    uint64_t t[32];
    uint64_t *in = data, *out = scratch;
    for (int i = 0; i < log_n; i++) {
        size_t blocks = (size_t)1 << i;
        size_t m = n >> i, m2 = m >> 1;
        for (size_t b = 0; b < blocks; b++) {
            const uint64_t *u = in + b * m * w;
            const uint64_t *v = u + m2 * w;
            const uint64_t *wb = tw + (blocks + b) * w;
            uint64_t *lo = out + b * m2 * w;
            uint64_t *hi = out + (blocks + b) * m2 * w;
            for (size_t j = 0; j < m2; j++) {
                mont_mul_one(t, v + j * w, wb, N, n0inv, w);
                mod_add_one(lo + j * w, u + j * w, t, N, w);
                mod_sub_one(hi + j * w, u + j * w, t, N, w);
            }
        }
        uint64_t *swap = in; in = out; out = swap;
    }
    if (in != data)
        for (size_t j = 0; j < n * (size_t)w; j++) data[j] = in[j];
}

/* Sequential Montgomery prefix products: pref[k] = a[0]*...*a[k].
   First leg of the classic batch-inversion trick; the caller inverts
   pref[n-1] (one real inversion) and hands it to
   mont_batch_inv_back. pref must not alias a. */
void mont_prefix_mul(uint64_t *pref, const uint64_t *a, size_t n,
                     const uint64_t *N, uint64_t n0inv, int w)
{
    if (!n) return;
    for (int j = 0; j < w; j++) pref[j] = a[j];
    for (size_t k = 1; k < n; k++)
        mont_mul_one(pref + k * w, pref + (k - 1) * w, a + k * w,
                     N, n0inv, w);
}

/* Backward leg: given the prefix products, the original inputs and
   tinv = 1/(a[0]*...*a[n-1]), emit out[k] = 1/a[k] for every k.
   Every a[k] must be invertible. out must not alias pref or a. */
void mont_batch_inv_back(uint64_t *out, const uint64_t *pref,
                         const uint64_t *a, const uint64_t *tinv,
                         size_t n, const uint64_t *N, uint64_t n0inv,
                         int w)
{
    uint64_t acc[32];
    if (!n) return;
    for (int j = 0; j < w; j++) acc[j] = tinv[j];
    for (size_t k = n; k-- > 1;) {
        mont_mul_one(out + k * w, acc, pref + (k - 1) * w, N, n0inv, w);
        mont_mul_one(acc, acc, a + k * w, N, n0inv, w);
    }
    for (int j = 0; j < w; j++) out[j] = acc[j];
}

/* -- Fq2 arithmetic (degree-2 extension, i^2 = -c0) ----------------------

   An element is two Montgomery base-field values (c0, c1); in a packed
   row a lane is 2w contiguous words, [c0 words | c1 words]. Karatsuba
   product (3 base muls, mirroring _ExtLanes.mul in numpy_curve):
   t0 = a0*b0, t2 = a1*b1, t1 = (a0+a1)(b0+b1) - t0 - t2,
   result = (t0 - c0*t2, t1). c0m is the Montgomery row of c0, or NULL
   when c0 == 1 (the reduction mul is skipped). Outputs may alias
   inputs. */

static inline void fq2_mul_one(uint64_t *o0, uint64_t *o1,
                               const uint64_t *a0, const uint64_t *a1,
                               const uint64_t *b0, const uint64_t *b1,
                               const uint64_t *c0m, const uint64_t *N,
                               uint64_t n0inv, int w)
{
    uint64_t t0[32], t1[32], t2[32], sa[32], sb[32];
    mont_mul_one(t0, a0, b0, N, n0inv, w);
    mont_mul_one(t2, a1, b1, N, n0inv, w);
    mod_add_one(sa, a0, a1, N, w);
    mod_add_one(sb, b0, b1, N, w);
    mont_mul_one(t1, sa, sb, N, n0inv, w);
    mod_sub_one(t1, t1, t0, N, w);
    mod_sub_one(t1, t1, t2, N, w);
    if (c0m)
        mont_mul_one(t2, t2, c0m, N, n0inv, w);
    mod_sub_one(o0, t0, t2, N, w);
    for (int j = 0; j < w; j++) o1[j] = t1[j];
}

static inline void fq2_add2(uint64_t *o0, uint64_t *o1,
                            const uint64_t *a0, const uint64_t *a1,
                            const uint64_t *b0, const uint64_t *b1,
                            const uint64_t *N, int w)
{
    mod_add_one(o0, a0, b0, N, w);
    mod_add_one(o1, a1, b1, N, w);
}

static inline void fq2_sub2(uint64_t *o0, uint64_t *o1,
                            const uint64_t *a0, const uint64_t *a1,
                            const uint64_t *b0, const uint64_t *b1,
                            const uint64_t *N, int w)
{
    mod_sub_one(o0, a0, b0, N, w);
    mod_sub_one(o1, a1, b1, N, w);
}

/* -- Jacobian point kernels -------------------------------------------------

   One doubling and one addition per coordinate field — jpt_fp_dbl /
   jpt_fp_add and jpt_fq2_dbl / jpt_fq2_add — and every exported point
   kernel is a loop over them. They are CurveGroup's jdouble/jadd in
   CurveGroup's operand order on Montgomery residues (every product and
   add/sub is canonicalized, so values track the scalar formulas step
   for step and decode bit-identical, not merely group-equal), with its
   special cases routed on canonical words: z == 0 is infinity (the
   other operand comes back verbatim, count-free), u1 == u2 and
   s1 == s2 is P == Q (the doubling: one pdbl + one padd, or count-free
   infinity when y == 0), u1 == u2 alone is P == -Q (count-free
   infinity), anything else one padd. An infinity made here is the
   scalar formulas' (1, 1, 0): `one` is the Montgomery row of 1.
   tally[0] += padds, tally[1] += pdbls, exactly what the scalar
   formulas book through group._count.

   The exported kernels share one ABI. Operand planes x, y, z are
   Montgomery (n, w) rows — Fq2: packed (n, 2w) — and are only read;
   `out` is three result planes of m rows each, x then y then z (m = n
   for the lane loops, 1 for the fold). am is the (packed) Montgomery
   row of the curve's a, or NULL when a == 0 (the a*z^4 term of the
   general doubling is skipped). No conversion mul anywhere in here.

   jac_dbl_*:     out lane k = 2 * P_k
   jac_add_*:     out lane k = P_k + Q_k
   bucket_fold_*: out = sum_j (j+1)*B_j as the ordered running-suffix
                  fold of repro.msm.pippenger.bucket_reduce, last bucket
                  first: running += B_j; total += running (2 jadds per
                  bucket). */

typedef struct { uint64_t x[32], y[32], z[32]; } jpt_fp;

static inline int words_zero(const uint64_t *a, int w)
{
    uint64_t acc = 0;
    for (int j = 0; j < w; j++) acc |= a[j];
    return acc == 0;
}

static inline int words_eq(const uint64_t *a, const uint64_t *b, int w)
{
    uint64_t acc = 0;
    for (int j = 0; j < w; j++) acc |= a[j] ^ b[j];
    return acc == 0;
}

static inline void words_copy(uint64_t *o, const uint64_t *a, int w)
{
    for (int j = 0; j < w; j++) o[j] = a[j];
}

static inline void jpt_fp_set_inf(jpt_fp *o, const uint64_t *one, int w)
{
    for (int j = 0; j < w; j++) {
        o->x[j] = o->y[j] = one[j];
        o->z[j] = 0;
    }
}

static inline void jpt_fp_copy(jpt_fp *o, const jpt_fp *a, int w)
{
    if (o == a) return;
    words_copy(o->x, a->x, w);
    words_copy(o->y, a->y, w);
    words_copy(o->z, a->z, w);
}

/* Lane k of three operand planes -> o. */
static inline void jpt_fp_load(jpt_fp *o, const uint64_t *x,
                               const uint64_t *y, const uint64_t *z,
                               size_t k, int w)
{
    words_copy(o->x, x + k * w, w);
    words_copy(o->y, y + k * w, w);
    words_copy(o->z, z + k * w, w);
}

/* p -> lane k of the three m-row result planes in out. */
static inline void jpt_fp_store(uint64_t *out, size_t m, size_t k,
                                const jpt_fp *p, int w)
{
    words_copy(out + k * w, p->x, w);
    words_copy(out + (m + k) * w, p->y, w);
    words_copy(out + (2 * m + k) * w, p->z, w);
}

/* o = 2p; o may alias p. */
static void jpt_fp_dbl(jpt_fp *o, const jpt_fp *p, uint64_t *tally,
                       const uint64_t *am, const uint64_t *one,
                       const uint64_t *N, uint64_t n0inv, int w)
{
    uint64_t ysq[32], s[32], m[32], t[32], u[32], z3[32];
    if (words_zero(p->z, w) || words_zero(p->y, w)) {
        jpt_fp_set_inf(o, one, w);
        return;
    }
    mont_mul_one(ysq, p->y, p->y, N, n0inv, w);
    mont_mul_one(s, p->x, ysq, N, n0inv, w);
    mod_add_one(s, s, s, N, w);
    mod_add_one(s, s, s, N, w);               /* s = 4*x*y^2 */
    mont_mul_one(m, p->x, p->x, N, n0inv, w);
    mod_add_one(t, m, m, N, w);
    mod_add_one(m, m, t, N, w);               /* m = 3*x^2 */
    if (am) {
        mont_mul_one(t, p->z, p->z, N, n0inv, w);
        mont_mul_one(t, t, t, N, n0inv, w);
        mont_mul_one(t, t, am, N, n0inv, w);
        mod_add_one(m, m, t, N, w);           /* + a*z^4 */
    }
    mont_mul_one(z3, p->y, p->z, N, n0inv, w);
    mod_add_one(z3, z3, z3, N, w);            /* z3 = 2*y*z */
    mont_mul_one(t, m, m, N, n0inv, w);
    mod_add_one(u, s, s, N, w);
    mod_sub_one(t, t, u, N, w);               /* x3 = m^2 - 2s */
    mod_sub_one(u, s, t, N, w);
    mont_mul_one(u, m, u, N, n0inv, w);       /* m*(s - x3) */
    mont_mul_one(ysq, ysq, ysq, N, n0inv, w);
    mod_add_one(ysq, ysq, ysq, N, w);
    mod_add_one(ysq, ysq, ysq, N, w);
    mod_add_one(ysq, ysq, ysq, N, w);         /* 8*y^4 */
    mod_sub_one(o->y, u, ysq, N, w);          /* y3 */
    words_copy(o->x, t, w);
    words_copy(o->z, z3, w);
    tally[0]++;
    tally[1]++;
}

/* o = p + q; o may alias p or q. */
static void jpt_fp_add(jpt_fp *o, const jpt_fp *p, const jpt_fp *q,
                       uint64_t *tally, const uint64_t *am,
                       const uint64_t *one, const uint64_t *N,
                       uint64_t n0inv, int w)
{
    uint64_t z1q[32], z2q[32], u1[32], u2[32], s1[32], s2[32];
    uint64_t h[32], r[32], t[32], u[32], z3[32];
    if (words_zero(p->z, w)) { jpt_fp_copy(o, q, w); return; }
    if (words_zero(q->z, w)) { jpt_fp_copy(o, p, w); return; }
    mont_mul_one(z1q, p->z, p->z, N, n0inv, w);
    mont_mul_one(z2q, q->z, q->z, N, n0inv, w);
    mont_mul_one(u1, p->x, z2q, N, n0inv, w);
    mont_mul_one(u2, q->x, z1q, N, n0inv, w);
    mont_mul_one(t, z2q, q->z, N, n0inv, w);
    mont_mul_one(s1, p->y, t, N, n0inv, w);
    mont_mul_one(t, z1q, p->z, N, n0inv, w);
    mont_mul_one(s2, q->y, t, N, n0inv, w);
    if (words_eq(u1, u2, w)) {
        if (words_eq(s1, s2, w))
            jpt_fp_dbl(o, p, tally, am, one, N, n0inv, w);
        else
            jpt_fp_set_inf(o, one, w);
        return;
    }
    mod_sub_one(h, u2, u1, N, w);
    mod_sub_one(r, s2, s1, N, w);
    mont_mul_one(z3, p->z, q->z, N, n0inv, w);
    mont_mul_one(z3, h, z3, N, n0inv, w);     /* z3 = h*z1*z2 */
    mont_mul_one(t, h, h, N, n0inv, w);       /* h^2 */
    mont_mul_one(u1, u1, t, N, n0inv, w);     /* u1*h^2 */
    mont_mul_one(t, t, h, N, n0inv, w);       /* h^3 */
    mont_mul_one(s1, s1, t, N, n0inv, w);     /* s1*h^3 */
    mont_mul_one(u, r, r, N, n0inv, w);
    mod_sub_one(u, u, t, N, w);
    mod_add_one(t, u1, u1, N, w);
    mod_sub_one(u, u, t, N, w);               /* x3 */
    mod_sub_one(t, u1, u, N, w);
    mont_mul_one(t, r, t, N, n0inv, w);
    mod_sub_one(o->y, t, s1, N, w);           /* y3 */
    words_copy(o->x, u, w);
    words_copy(o->z, z3, w);
    tally[0]++;
}

void jac_dbl_fp(uint64_t *out, uint64_t *tally,
                const uint64_t *x, const uint64_t *y, const uint64_t *z,
                size_t n, const uint64_t *am, const uint64_t *one,
                const uint64_t *N, uint64_t n0inv, int w)
{
    jpt_fp p;
    for (size_t k = 0; k < n; k++) {
        jpt_fp_load(&p, x, y, z, k, w);
        jpt_fp_dbl(&p, &p, tally, am, one, N, n0inv, w);
        jpt_fp_store(out, n, k, &p, w);
    }
}

void jac_add_fp(uint64_t *out, uint64_t *tally,
                const uint64_t *x1, const uint64_t *y1, const uint64_t *z1,
                const uint64_t *x2, const uint64_t *y2, const uint64_t *z2,
                size_t n, const uint64_t *am, const uint64_t *one,
                const uint64_t *N, uint64_t n0inv, int w)
{
    jpt_fp p, q;
    for (size_t k = 0; k < n; k++) {
        jpt_fp_load(&p, x1, y1, z1, k, w);
        jpt_fp_load(&q, x2, y2, z2, k, w);
        jpt_fp_add(&p, &p, &q, tally, am, one, N, n0inv, w);
        jpt_fp_store(out, n, k, &p, w);
    }
}

void bucket_fold_fp(uint64_t *out, uint64_t *tally,
                    const uint64_t *x, const uint64_t *y, const uint64_t *z,
                    size_t n, const uint64_t *am, const uint64_t *one,
                    const uint64_t *N, uint64_t n0inv, int w)
{
    jpt_fp running, total, b;
    jpt_fp_set_inf(&running, one, w);
    jpt_fp_set_inf(&total, one, w);
    for (size_t k = n; k-- > 0;) {
        jpt_fp_load(&b, x, y, z, k, w);
        jpt_fp_add(&running, &running, &b, tally, am, one, N, n0inv, w);
        jpt_fp_add(&total, &total, &running, tally, am, one, N, n0inv, w);
    }
    jpt_fp_store(out, 1, 0, &total, w);
}

/* The Fq2 twins, over packed (n, 2w) rows. */

typedef struct { uint64_t x[2][32], y[2][32], z[2][32]; } jpt_fq2;

static inline int fq2_zero(uint64_t a[2][32], int w)
{
    return words_zero(a[0], w) && words_zero(a[1], w);
}

static inline int fq2_eq(uint64_t a[2][32], uint64_t b[2][32], int w)
{
    return words_eq(a[0], b[0], w) && words_eq(a[1], b[1], w);
}

static inline void fq2_copy(uint64_t o[2][32], uint64_t a[2][32], int w)
{
    words_copy(o[0], a[0], w);
    words_copy(o[1], a[1], w);
}

static inline void jpt_fq2_set_inf(jpt_fq2 *o, const uint64_t *one, int w)
{
    for (int j = 0; j < w; j++) {
        o->x[0][j] = o->y[0][j] = one[j];
        o->x[1][j] = o->y[1][j] = o->z[0][j] = o->z[1][j] = 0;
    }
}

static inline void jpt_fq2_copy(jpt_fq2 *o, jpt_fq2 *a, int w)
{
    if (o == a) return;
    fq2_copy(o->x, a->x, w);
    fq2_copy(o->y, a->y, w);
    fq2_copy(o->z, a->z, w);
}

static inline void jpt_fq2_load(jpt_fq2 *o, const uint64_t *x,
                                const uint64_t *y, const uint64_t *z,
                                size_t k, int w)
{
    size_t off = k * 2 * w;
    for (int c = 0; c < 2; c++) {
        words_copy(o->x[c], x + off + c * w, w);
        words_copy(o->y[c], y + off + c * w, w);
        words_copy(o->z[c], z + off + c * w, w);
    }
}

static inline void jpt_fq2_store(uint64_t *out, size_t m, size_t k,
                                 const jpt_fq2 *p, int w)
{
    for (int c = 0; c < 2; c++) {
        words_copy(out + (2 * k + c) * w, p->x[c], w);
        words_copy(out + (2 * (m + k) + c) * w, p->y[c], w);
        words_copy(out + (2 * (2 * m + k) + c) * w, p->z[c], w);
    }
}

static void jpt_fq2_dbl(jpt_fq2 *o, jpt_fq2 *p, uint64_t *tally,
                        const uint64_t *am, const uint64_t *c0m,
                        const uint64_t *one, const uint64_t *N,
                        uint64_t n0inv, int w)
{
    uint64_t ysq[2][32], s[2][32], m[2][32], t[2][32], u[2][32], z3[2][32];
    if (fq2_zero(p->z, w) || fq2_zero(p->y, w)) {
        jpt_fq2_set_inf(o, one, w);
        return;
    }
    fq2_mul_one(ysq[0], ysq[1], p->y[0], p->y[1], p->y[0], p->y[1], c0m, N, n0inv, w);
    fq2_mul_one(s[0], s[1], p->x[0], p->x[1], ysq[0], ysq[1], c0m, N, n0inv, w);
    fq2_add2(s[0], s[1], s[0], s[1], s[0], s[1], N, w);
    fq2_add2(s[0], s[1], s[0], s[1], s[0], s[1], N, w);
    fq2_mul_one(m[0], m[1], p->x[0], p->x[1], p->x[0], p->x[1], c0m, N, n0inv, w);
    fq2_add2(t[0], t[1], m[0], m[1], m[0], m[1], N, w);
    fq2_add2(m[0], m[1], m[0], m[1], t[0], t[1], N, w);
    if (am) {
        fq2_mul_one(t[0], t[1], p->z[0], p->z[1], p->z[0], p->z[1], c0m, N, n0inv, w);
        fq2_mul_one(t[0], t[1], t[0], t[1], t[0], t[1], c0m, N, n0inv, w);
        fq2_mul_one(t[0], t[1], t[0], t[1], am, am + w, c0m, N, n0inv, w);
        fq2_add2(m[0], m[1], m[0], m[1], t[0], t[1], N, w);
    }
    fq2_mul_one(z3[0], z3[1], p->y[0], p->y[1], p->z[0], p->z[1], c0m, N, n0inv, w);
    fq2_add2(z3[0], z3[1], z3[0], z3[1], z3[0], z3[1], N, w);
    fq2_mul_one(t[0], t[1], m[0], m[1], m[0], m[1], c0m, N, n0inv, w);
    fq2_add2(u[0], u[1], s[0], s[1], s[0], s[1], N, w);
    fq2_sub2(t[0], t[1], t[0], t[1], u[0], u[1], N, w);
    fq2_sub2(u[0], u[1], s[0], s[1], t[0], t[1], N, w);
    fq2_mul_one(u[0], u[1], m[0], m[1], u[0], u[1], c0m, N, n0inv, w);
    fq2_mul_one(ysq[0], ysq[1], ysq[0], ysq[1], ysq[0], ysq[1], c0m, N, n0inv, w);
    fq2_add2(ysq[0], ysq[1], ysq[0], ysq[1], ysq[0], ysq[1], N, w);
    fq2_add2(ysq[0], ysq[1], ysq[0], ysq[1], ysq[0], ysq[1], N, w);
    fq2_add2(ysq[0], ysq[1], ysq[0], ysq[1], ysq[0], ysq[1], N, w);
    fq2_sub2(o->y[0], o->y[1], u[0], u[1], ysq[0], ysq[1], N, w);
    fq2_copy(o->x, t, w);
    fq2_copy(o->z, z3, w);
    tally[0]++;
    tally[1]++;
}

static void jpt_fq2_add(jpt_fq2 *o, jpt_fq2 *p, jpt_fq2 *q,
                        uint64_t *tally, const uint64_t *am,
                        const uint64_t *c0m, const uint64_t *one,
                        const uint64_t *N, uint64_t n0inv, int w)
{
    uint64_t z1q[2][32], z2q[2][32], u1[2][32], u2[2][32], s1[2][32];
    uint64_t s2[2][32], h[2][32], r[2][32], t[2][32], u[2][32], z3[2][32];
    if (fq2_zero(p->z, w)) { jpt_fq2_copy(o, q, w); return; }
    if (fq2_zero(q->z, w)) { jpt_fq2_copy(o, p, w); return; }
    fq2_mul_one(z1q[0], z1q[1], p->z[0], p->z[1], p->z[0], p->z[1], c0m, N, n0inv, w);
    fq2_mul_one(z2q[0], z2q[1], q->z[0], q->z[1], q->z[0], q->z[1], c0m, N, n0inv, w);
    fq2_mul_one(u1[0], u1[1], p->x[0], p->x[1], z2q[0], z2q[1], c0m, N, n0inv, w);
    fq2_mul_one(u2[0], u2[1], q->x[0], q->x[1], z1q[0], z1q[1], c0m, N, n0inv, w);
    fq2_mul_one(t[0], t[1], z2q[0], z2q[1], q->z[0], q->z[1], c0m, N, n0inv, w);
    fq2_mul_one(s1[0], s1[1], p->y[0], p->y[1], t[0], t[1], c0m, N, n0inv, w);
    fq2_mul_one(t[0], t[1], z1q[0], z1q[1], p->z[0], p->z[1], c0m, N, n0inv, w);
    fq2_mul_one(s2[0], s2[1], q->y[0], q->y[1], t[0], t[1], c0m, N, n0inv, w);
    if (fq2_eq(u1, u2, w)) {
        if (fq2_eq(s1, s2, w))
            jpt_fq2_dbl(o, p, tally, am, c0m, one, N, n0inv, w);
        else
            jpt_fq2_set_inf(o, one, w);
        return;
    }
    fq2_sub2(h[0], h[1], u2[0], u2[1], u1[0], u1[1], N, w);
    fq2_sub2(r[0], r[1], s2[0], s2[1], s1[0], s1[1], N, w);
    fq2_mul_one(z3[0], z3[1], p->z[0], p->z[1], q->z[0], q->z[1], c0m, N, n0inv, w);
    fq2_mul_one(z3[0], z3[1], h[0], h[1], z3[0], z3[1], c0m, N, n0inv, w);
    fq2_mul_one(t[0], t[1], h[0], h[1], h[0], h[1], c0m, N, n0inv, w);
    fq2_mul_one(u1[0], u1[1], u1[0], u1[1], t[0], t[1], c0m, N, n0inv, w);
    fq2_mul_one(t[0], t[1], t[0], t[1], h[0], h[1], c0m, N, n0inv, w);
    fq2_mul_one(s1[0], s1[1], s1[0], s1[1], t[0], t[1], c0m, N, n0inv, w);
    fq2_mul_one(u[0], u[1], r[0], r[1], r[0], r[1], c0m, N, n0inv, w);
    fq2_sub2(u[0], u[1], u[0], u[1], t[0], t[1], N, w);
    fq2_add2(t[0], t[1], u1[0], u1[1], u1[0], u1[1], N, w);
    fq2_sub2(u[0], u[1], u[0], u[1], t[0], t[1], N, w);
    fq2_sub2(t[0], t[1], u1[0], u1[1], u[0], u[1], N, w);
    fq2_mul_one(t[0], t[1], r[0], r[1], t[0], t[1], c0m, N, n0inv, w);
    fq2_sub2(o->y[0], o->y[1], t[0], t[1], s1[0], s1[1], N, w);
    fq2_copy(o->x, u, w);
    fq2_copy(o->z, z3, w);
    tally[0]++;
}

void jac_dbl_fq2(uint64_t *out, uint64_t *tally,
                 const uint64_t *x, const uint64_t *y, const uint64_t *z,
                 size_t n, const uint64_t *am, const uint64_t *c0m,
                 const uint64_t *one, const uint64_t *N, uint64_t n0inv,
                 int w)
{
    jpt_fq2 p;
    for (size_t k = 0; k < n; k++) {
        jpt_fq2_load(&p, x, y, z, k, w);
        jpt_fq2_dbl(&p, &p, tally, am, c0m, one, N, n0inv, w);
        jpt_fq2_store(out, n, k, &p, w);
    }
}

void jac_add_fq2(uint64_t *out, uint64_t *tally,
                 const uint64_t *x1, const uint64_t *y1, const uint64_t *z1,
                 const uint64_t *x2, const uint64_t *y2, const uint64_t *z2,
                 size_t n, const uint64_t *am, const uint64_t *c0m,
                 const uint64_t *one, const uint64_t *N, uint64_t n0inv,
                 int w)
{
    jpt_fq2 p, q;
    for (size_t k = 0; k < n; k++) {
        jpt_fq2_load(&p, x1, y1, z1, k, w);
        jpt_fq2_load(&q, x2, y2, z2, k, w);
        jpt_fq2_add(&p, &p, &q, tally, am, c0m, one, N, n0inv, w);
        jpt_fq2_store(out, n, k, &p, w);
    }
}

void bucket_fold_fq2(uint64_t *out, uint64_t *tally,
                     const uint64_t *x, const uint64_t *y, const uint64_t *z,
                     size_t n, const uint64_t *am, const uint64_t *c0m,
                     const uint64_t *one, const uint64_t *N, uint64_t n0inv,
                     int w)
{
    jpt_fq2 running, total, b;
    jpt_fq2_set_inf(&running, one, w);
    jpt_fq2_set_inf(&total, one, w);
    for (size_t k = n; k-- > 0;) {
        jpt_fq2_load(&b, x, y, z, k, w);
        jpt_fq2_add(&running, &running, &b, tally, am, c0m, one, N, n0inv, w);
        jpt_fq2_add(&total, &total, &running, tally, am, c0m, one, N, n0inv, w);
    }
    jpt_fq2_store(out, 1, 0, &total, w);
}

/* -- Point-merging ----------------------------------------------------------

   GZKP's point-merging kernel: bucket entries merged by a sorted
   log-depth tree of batch-affine additions, one call per merge. The
   field ops below act on one lane of d coefficient planes — d = 1 an
   Fp element, d = 2 a packed Fq2 one ([c0 words | c1 words],
   i^2 = -c0) — so one round schedule serves both fields. Lanes are at
   most 2 * MAX_WORDS words, hence the [64] scratch. */

static inline void fe_add(uint64_t *o, const uint64_t *a, const uint64_t *b,
                          int d, const uint64_t *N, int w)
{
    for (int c = 0; c < d; c++)
        mod_add_one(o + c * w, a + c * w, b + c * w, N, w);
}

static inline void fe_sub(uint64_t *o, const uint64_t *a, const uint64_t *b,
                          int d, const uint64_t *N, int w)
{
    for (int c = 0; c < d; c++)
        mod_sub_one(o + c * w, a + c * w, b + c * w, N, w);
}

static inline void fe_mul(uint64_t *o, const uint64_t *a, const uint64_t *b,
                          int d, const uint64_t *c0m, const uint64_t *N,
                          uint64_t n0inv, int w)
{
    if (d == 1)
        mont_mul_one(o, a, b, N, n0inv, w);
    else
        fq2_mul_one(o, o + w, a, a + w, b, b + w, c0m, N, n0inv, w);
}

/* o = 1/a over Fp for a != 0: Fermat's a^(N-2), square-and-multiply
   from the top bit of the w-word exponent. */
static void fp_inv(uint64_t *o, const uint64_t *a, const uint64_t *one,
                   const uint64_t *N, uint64_t n0inv, int w)
{
    uint64_t e[32], r[32];
    uint64_t sub = 2;
    for (int j = 0; j < w; j++) {
        u128 d = (u128)N[j] - sub;
        e[j] = (uint64_t)d;
        sub = (d >> 64) ? 1 : 0;
    }
    words_copy(r, one, w);
    for (int j = w - 1; j >= 0; j--)
        for (int b = 63; b >= 0; b--) {
            mont_mul_one(r, r, r, N, n0inv, w);
            if ((e[j] >> b) & 1)
                mont_mul_one(r, r, a, N, n0inv, w);
        }
    words_copy(o, r, w);
}

/* o = 1/a for a != 0; over Fq2 through the norm,
   1/(a0 + a1 i) = (a0 - a1 i) / (a0^2 + c0 a1^2). */
static void fe_inv(uint64_t *o, const uint64_t *a, int d,
                   const uint64_t *c0m, const uint64_t *one,
                   const uint64_t *N, uint64_t n0inv, int w)
{
    uint64_t t[32], u[32];
    if (d == 1) {
        fp_inv(o, a, one, N, n0inv, w);
        return;
    }
    mont_mul_one(t, a, a, N, n0inv, w);
    mont_mul_one(u, a + w, a + w, N, n0inv, w);
    if (c0m)
        mont_mul_one(u, u, c0m, N, n0inv, w);
    mod_add_one(t, t, u, N, w);
    fp_inv(t, t, one, N, n0inv, w);
    mont_mul_one(u, a + w, t, N, n0inv, w);
    mont_mul_one(o, a, t, N, n0inv, w);
    for (int j = 0; j < w; j++) t[j] = 0;
    mod_sub_one(o + w, t, u, N, w);
}

/* What one round does with the pair (l, l + 1), both lanes of one
   bucket: a chord or a tangent addition (both live, x1 != x2 / x1 == x2
   and y1 != -y2), a cancellation (P == -Q: the left lane dies), the dead
   left lane adopting its live right neighbour, or nothing (dead right
   lane). Exact: the lanes are canonical Montgomery residues. */
enum { MERGE_CHORD, MERGE_TANGENT, MERGE_CANCEL, MERGE_ADOPT, MERGE_KEEP };

static inline int merge_kind(const uint64_t *X, const uint64_t *Y,
                             const unsigned char *alive, size_t l, int d,
                             const uint64_t *N, int w)
{
    uint64_t s[64];
    size_t wd = (size_t)d * w;
    if (!alive[l + 1]) return MERGE_KEEP;
    if (!alive[l]) return MERGE_ADOPT;
    if (!words_eq(X + l * wd, X + (l + 1) * wd, (int)wd)) return MERGE_CHORD;
    fe_add(s, Y + l * wd, Y + (l + 1) * wd, d, N, w);
    return words_zero(s, (int)wd) ? MERGE_CANCEL : MERGE_TANGENT;
}

/* The slope's denominator of a chord (x2 - x1) or a tangent (2y1). */
static inline void merge_den(uint64_t *den, const uint64_t *X,
                             const uint64_t *Y, size_t l, int kind, int d,
                             const uint64_t *N, int w)
{
    size_t wd = (size_t)d * w;
    if (kind == MERGE_CHORD)
        fe_sub(den, X + (l + 1) * wd, X + l * wd, d, N, w);
    else
        fe_add(den, Y + l * wd, Y + l * wd, d, N, w);
}

/* The tree, over n lanes whose bucket ids (ids: the caller's own copy)
   ascend; x/y are their affine planes in the same order, out two result
   planes of n rows that start as a copy of x/y. Each round pairs a lane
   at an even position of its bucket's run with its right neighbour and
   adds every chord/tangent pair with one shared batch inversion (prefix
   products forward, the one field inversion, then each lane's inverse
   and its combine backward: lam = num/den, x3 = lam^2 - x1 - x2,
   y3 = lam (x1 - x3) - y1); then the right lanes leave, in place, until
   no bucket holds two lanes. tally[0] += padds (chord and tangent),
   tally[1] += pdbls (tangent), the schedule's counts. The live lanes —
   one per bucket at most — end at the front of ids and of out's planes;
   tally[2] is their count, or ~0 when the scratch cannot be had. */
static void merge_tree(uint64_t *out, uint64_t *tally, int64_t *ids,
                       const uint64_t *x, const uint64_t *y, size_t n,
                       int d, const uint64_t *am, const uint64_t *c0m,
                       const uint64_t *one, const uint64_t *N,
                       uint64_t n0inv, int w)
{
    uint64_t den[64], inv[64], acc[64], num[64], lam[64], t[64], x3[64];
    size_t wd = (size_t)d * w, m = n, live = 0;
    uint64_t *X = out, *Y = out + n * wd, *pref;
    unsigned char *alive;
    if (!n) return;
    pref = malloc((n / 2 + 1) * wd * sizeof(uint64_t) + n);
    if (!pref) {
        tally[2] = ~(uint64_t)0;
        return;
    }
    alive = (unsigned char *)(pref + (n / 2 + 1) * wd);
    for (size_t k = 0; k < n * wd; k++) {
        X[k] = x[k];
        Y[k] = y[k];
    }
    for (size_t k = 0; k < n; k++) alive[k] = 1;
    for (;;) {
        size_t pairs = 0, nw = 0, k = 0;
        for (size_t i = 0, j; i < m; i = j) {
            for (j = i + 1; j < m && ids[j] == ids[i]; j++) ;
            for (size_t l = i; l + 1 < j; l += 2, pairs++) {
                int kind = merge_kind(X, Y, alive, l, d, N, w);
                if (kind > MERGE_TANGENT) continue;
                merge_den(den, X, Y, l, kind, d, N, w);
                if (nw)
                    fe_mul(pref + nw * wd, pref + (nw - 1) * wd, den, d, c0m,
                           N, n0inv, w);
                else
                    words_copy(pref, den, (int)wd);
                nw++;
            }
        }
        if (!pairs) break;
        if (nw) fe_inv(acc, pref + (nw - 1) * wd, d, c0m, one, N, n0inv, w);
        for (size_t j = m, i; j > 0; j = i) {
            for (i = j - 1; i > 0 && ids[i - 1] == ids[j - 1]; i--) ;
            for (size_t q = (j - i) / 2; q-- > 0;) {
                size_t l = i + 2 * q, r = l + 1;
                int kind = merge_kind(X, Y, alive, l, d, N, w);
                if (kind <= MERGE_TANGENT) {
                    merge_den(den, X, Y, l, kind, d, N, w);
                    if (--nw) {
                        fe_mul(inv, acc, pref + (nw - 1) * wd, d, c0m, N,
                               n0inv, w);
                        fe_mul(acc, acc, den, d, c0m, N, n0inv, w);
                    } else {
                        words_copy(inv, acc, (int)wd);
                    }
                    if (kind == MERGE_CHORD) {
                        fe_sub(num, Y + r * wd, Y + l * wd, d, N, w);
                    } else {                      /* 3 x^2 + a */
                        fe_mul(t, X + l * wd, X + l * wd, d, c0m, N, n0inv, w);
                        fe_add(num, t, t, d, N, w);
                        fe_add(num, num, t, d, N, w);
                        if (am) fe_add(num, num, am, d, N, w);
                        tally[1]++;
                    }
                    fe_mul(lam, num, inv, d, c0m, N, n0inv, w);
                    fe_mul(t, lam, lam, d, c0m, N, n0inv, w);
                    fe_sub(t, t, X + l * wd, d, N, w);
                    fe_sub(x3, t, X + r * wd, d, N, w);
                    fe_sub(t, X + l * wd, x3, d, N, w);
                    fe_mul(t, lam, t, d, c0m, N, n0inv, w);
                    fe_sub(Y + l * wd, t, Y + l * wd, d, N, w);
                    words_copy(X + l * wd, x3, (int)wd);
                    tally[0]++;
                } else if (kind == MERGE_ADOPT) {
                    words_copy(X + l * wd, X + r * wd, (int)wd);
                    words_copy(Y + l * wd, Y + r * wd, (int)wd);
                }
                alive[l] = kind != MERGE_CANCEL && (alive[l] || alive[r]);
            }
        }
        /* the right lanes leave: keep the even positions of every run */
        for (size_t i = 0, j; i < m; i = j) {
            for (j = i + 1; j < m && ids[j] == ids[i]; j++) ;
            for (size_t l = i; l < j; l += 2, k++) {
                ids[k] = ids[l];
                alive[k] = alive[l];
                words_copy(X + k * wd, X + l * wd, (int)wd);
                words_copy(Y + k * wd, Y + l * wd, (int)wd);
            }
        }
        m = k;
    }
    for (size_t l = 0; l < m; l++) {
        if (!alive[l]) continue;
        ids[live] = ids[l];
        words_copy(X + live * wd, X + l * wd, (int)wd);
        words_copy(Y + live * wd, Y + l * wd, (int)wd);
        live++;
    }
    tally[2] = live;
    free(pref);
}

/* merge_*: the tree over Fp and over packed Fq2 lanes, under the point
   kernels' ABI plus the ids vector (in/out) after tally. */
void merge_fp(uint64_t *out, uint64_t *tally, int64_t *ids,
              const uint64_t *x, const uint64_t *y, size_t n,
              const uint64_t *am, const uint64_t *one, const uint64_t *N,
              uint64_t n0inv, int w)
{
    merge_tree(out, tally, ids, x, y, n, 1, am, NULL, one, N, n0inv, w);
}

void merge_fq2(uint64_t *out, uint64_t *tally, int64_t *ids,
               const uint64_t *x, const uint64_t *y, size_t n,
               const uint64_t *am, const uint64_t *c0m, const uint64_t *one,
               const uint64_t *N, uint64_t n0inv, int w)
{
    merge_tree(out, tally, ids, x, y, n, 2, am, c0m, one, N, n0inv, w);
}
"""

# module-level load state: None = not attempted, False = unavailable
_LIB = None
_LOAD_ATTEMPTED = False
#: env-disable state observed when the load decision was made; a flip
#: (per-worker ``env=`` overrides after a fork) invalidates the decision
_LOADED_DISABLED: Optional[bool] = None
_FIELDS: Dict[int, "NativeField"] = {}

#: in-process loader event log (compile / cache-hit / corrupt / failure)
_EVENTS: List[dict] = []
_WARNED = False
#: this process' stand-in for an untrusted default cache directory
_PRIVATE_BASE: Optional[str] = None


def _record_event(kind: str, detail: str, **fields) -> None:
    _EVENTS.append({"kind": kind, "detail": detail, **fields})


def kernel_events() -> List[dict]:
    """Loader events recorded so far in this process (copies)."""
    return [dict(e) for e in _EVENTS]


def drain_kernel_events() -> List[dict]:
    """Pop and return all recorded loader events (the service forwards
    them into job telemetry exactly once)."""
    out = [dict(e) for e in _EVENTS]
    _EVENTS.clear()
    return out


def _warn_once(message: str) -> None:
    global _WARNED
    if not _WARNED:
        _WARNED = True
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def _env_disabled() -> bool:
    return os.environ.get(NATIVE_ENV_VAR, "").strip().lower() in (
        "0", "off", "false", "no"
    )


def cache_base_dir() -> str:
    """Root of the on-disk kernel cache: ``$REPRO_NATIVE_CACHE`` as
    given, else the per-uid temp dir while it is safe to ``dlopen``
    from (see the module docstring)."""
    return os.environ.get("REPRO_NATIVE_CACHE") or _default_cache_base()


def _default_cache_base() -> str:
    global _PRIVATE_BASE
    if _PRIVATE_BASE is None:
        uid = os.getuid()
        base = os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")
        try:
            os.mkdir(base, 0o700)
        except FileExistsError:
            pass
        # lstat, not stat: a symlink planted under the guessable name
        # must not be followed to a directory that passes the checks.
        st = os.lstat(base)
        if stat.S_ISDIR(st.st_mode) and st.st_uid == uid \
                and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
            return base
        _PRIVATE_BASE = tempfile.mkdtemp(prefix="repro-native-")
        # a forked child inherits this handler: only the process that
        # made the directory removes it
        atexit.register(_remove_private_base, _PRIVATE_BASE, os.getpid())
        detail = (f"kernel cache {base} is not a directory only uid {uid} "
                  f"can write: not loading from it, compiling into "
                  f"{_PRIVATE_BASE} for this process (set REPRO_NATIVE_CACHE "
                  "to a directory you own to keep a warm cache)")
        _record_event("native-kernel-cache-untrusted", detail,
                      path=base, used=_PRIVATE_BASE)
        warnings.warn(f"repro native: {detail}", RuntimeWarning, stacklevel=3)
    return _PRIVATE_BASE


def _remove_private_base(path: str, owner: int) -> None:
    if os.getpid() == owner:
        shutil.rmtree(path, ignore_errors=True)


#: the one compile command's flags. ``-O3`` lets the compiler unroll the
#: width-specialised primitives; no ``-march``: the cache is keyed by
#: source and flags, not by CPU, so an object must run on any x86-64.
_CFLAGS = ("-O3", "-shared", "-fPIC")


def _source_digest() -> str:
    """Cache key: the source *and* the flags it is compiled with, so a
    flag-only change never loads an object built under the old ones."""
    key = "\0".join((*_CFLAGS, _C_SOURCE))
    return hashlib.sha256(key.encode()).hexdigest()[:16]


#: cap on retained per-digest kernel dirs (``REPRO_NATIVE_CACHE_MAX_DIRS``)
CACHE_MAX_DIRS_ENV_VAR = "REPRO_NATIVE_CACHE_MAX_DIRS"
DEFAULT_CACHE_MAX_DIRS = 8


def _cache_max_dirs() -> int:
    raw = os.environ.get(CACHE_MAX_DIRS_ENV_VAR, "")
    try:
        cap = int(raw)
    except ValueError:
        cap = DEFAULT_CACHE_MAX_DIRS
    return max(1, cap)


def _prune_cache(current_digest: str) -> None:
    """LRU-prune stale per-digest kernel dirs after publishing a fresh
    build. Every source edit mints a new digest dir, so a long-lived
    persistent cache (CI runners pointing ``REPRO_NATIVE_CACHE`` at a
    shared volume) accumulates dead kernels forever without a cap. Only
    16-hex-char digest dirs are candidates — anything user-placed is
    never touched — and the current digest always survives.
    Oldest-mtime dirs go first; failures are ignored (a racing reader
    may hold a dir open)."""
    base = cache_base_dir()
    try:
        names = os.listdir(base)
    except OSError:
        return
    digests = [
        d for d in names
        if d != current_digest and len(d) == 16
        and all(c in "0123456789abcdef" for c in d)
        and os.path.isdir(os.path.join(base, d))
    ]
    keep = _cache_max_dirs() - 1  # the slot the current digest occupies
    if len(digests) <= keep:
        return

    def _mtime(name: str) -> float:
        try:
            return os.path.getmtime(os.path.join(base, name))
        except OSError:
            return 0.0

    digests.sort(key=_mtime)
    stale = digests[:len(digests) - keep]
    for name in stale:
        shutil.rmtree(os.path.join(base, name), ignore_errors=True)
    _record_event("native-kernel-cache-prune",
                  f"pruned {len(stale)} stale kernel dir(s) "
                  f"(cap {_cache_max_dirs()})",
                  removed=stale, cap=_cache_max_dirs())


def _compile(cdir: str, sopath: str) -> bool:
    """Build the kernels into ``sopath``. The source and the shared
    object are both staged as pid-unique temp files and published with
    ``os.replace`` (atomic), so a concurrent builder or a killed
    process can never leave a partial artifact where a reader looks.
    Failures are recorded (with the captured compiler stderr), warned
    about once, and leave no temp litter behind."""
    compiler = next(
        (c for c in ("cc", "gcc", "clang") if shutil.which(c)), None
    )
    if compiler is None:
        _record_event("native-kernel-compile-failed",
                      "no C compiler (cc/gcc/clang) on PATH",
                      compiler="", stderr="")
        _warn_once("repro native kernels disabled: no C compiler "
                   "(cc/gcc/clang) on PATH; falling back to the scalar "
                   "path")
        return False
    os.makedirs(cdir, exist_ok=True)
    cpath = os.path.join(cdir, "kernels.c")
    tmp_c = os.path.join(cdir, f".kernels-{os.getpid()}.c")
    tmp_so = os.path.join(cdir, f".kernels-{os.getpid()}.so")
    # Loader-side telemetry, not kernel arithmetic: the compile runs
    # once per cache miss and its duration feeds the compile event.
    started = time.perf_counter()  # repro: allow[R004]
    try:
        with open(tmp_c, "w") as fh:
            fh.write(_C_SOURCE)
        proc = subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp_so, tmp_c],
            capture_output=True, timeout=120,
        )
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            _record_event("native-kernel-compile-failed",
                          f"{compiler} exited {proc.returncode}",
                          compiler=compiler, stderr=stderr[-4000:])
            _warn_once(
                f"repro native kernel compile failed ({compiler} exited "
                f"{proc.returncode}); falling back to the scalar path. "
                f"Compiler stderr: {stderr[-500:]}"
            )
            return False
        # Publish source first (provenance for the cached .so), then
        # the object; both atomic, so racers only see complete files.
        os.replace(tmp_c, cpath)
        os.replace(tmp_so, sopath)
        _prune_cache(os.path.basename(cdir))
    except (subprocess.SubprocessError, OSError) as exc:
        _record_event("native-kernel-compile-failed", str(exc),
                      compiler=compiler, stderr="")
        _warn_once(f"repro native kernel compile failed ({exc}); "
                   "falling back to the scalar path")
        return False
    finally:
        for leftover in (tmp_c, tmp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass
    _record_event("native-kernel-compile",
                  f"compiled kernels with {compiler}",
                  compiler=compiler, path=sopath,
                  seconds=round(time.perf_counter() - started,  # repro: allow[R004]
                                3))
    return True


#: the point kernels, which share one ABI: (op, coordinate-field
#: degree) -> (exported function, operand planes it reads)
_POINT_KERNELS = {
    ("dbl", 1): ("jac_dbl_fp", 3),
    ("add", 1): ("jac_add_fp", 6),
    ("fold", 1): ("bucket_fold_fp", 3),
    ("merge", 1): ("merge_fp", 2),
    ("dbl", 2): ("jac_dbl_fq2", 3),
    ("add", 2): ("jac_add_fq2", 6),
    ("fold", 2): ("bucket_fold_fq2", 3),
    ("merge", 2): ("merge_fq2", 2),
}


def _bind(lib) -> None:
    ptr, size, u64, i32 = (ctypes.c_void_p, ctypes.c_size_t,
                           ctypes.c_uint64, ctypes.c_int)
    lib.mont_mul_batch.argtypes = [ptr, ptr, ptr, size, ptr, u64, i32]
    lib.mont_mul_batch.restype = None
    lib.mont_mul_const_batch.argtypes = [ptr, ptr, ptr, size, ptr, u64, i32]
    lib.mont_mul_const_batch.restype = None
    lib.mod_sub_batch.argtypes = [ptr, ptr, ptr, size, ptr, i32]
    lib.mod_sub_batch.restype = None
    lib.mod_add_batch.argtypes = [ptr, ptr, ptr, size, ptr, i32]
    lib.mod_add_batch.restype = None
    lib.mont_powers.argtypes = [ptr, ptr, ptr, size, ptr, u64, i32]
    lib.mont_powers.restype = None
    lib.ntt_stockham.argtypes = [ptr, ptr, ptr, size, i32, ptr, u64, i32]
    lib.ntt_stockham.restype = None
    lib.mont_prefix_mul.argtypes = [ptr, ptr, size, ptr, u64, i32]
    lib.mont_prefix_mul.restype = None
    lib.mont_batch_inv_back.argtypes = [ptr, ptr, ptr, ptr, size, ptr,
                                        u64, i32]
    lib.mont_batch_inv_back.restype = None
    # point kernels: out, tally, (merge: ids), the operand planes, n, the
    # curve's constant rows (a over Fp; a, c0 over Fq2), one, N, n0inv, w
    for (op, degree), (name, n_planes) in _POINT_KERNELS.items():
        fn = getattr(lib, name)
        fn.argtypes = ([ptr] * (2 + (op == "merge") + n_planes) + [size]
                       + [ptr] * (degree + 2) + [u64, i32])
        fn.restype = None


def _compile_and_load():
    """Compile the kernel source (once per source hash, cached on disk)
    and return the loaded library, or None when no compiler works.

    Self-healing: a cached ``.so`` that fails to load (corrupt or stale
    artifact in a persistent ``REPRO_NATIVE_CACHE``) is deleted and
    rebuilt exactly once; only a failure of the *fresh* build gives up
    on the native path."""
    cdir = os.path.join(cache_base_dir(), _source_digest())
    sopath = os.path.join(cdir, "kernels.so")
    for _attempt in range(2):
        compiled = False
        if not os.path.exists(sopath):
            if not _compile(cdir, sopath):
                return None
            compiled = True
        try:
            lib = ctypes.CDLL(sopath)
        except OSError as exc:
            _record_event("native-kernel-cache-corrupt",
                          f"cached kernels.so failed to load: {exc}",
                          path=sopath, rebuilt=not compiled)
            try:
                os.unlink(sopath)
            except OSError:
                pass
            if compiled:
                # Our own fresh build does not load: retrying cannot help.
                _warn_once("repro native kernels disabled: freshly "
                           f"compiled kernels.so failed to load ({exc})")
                return None
            continue
        if not compiled:
            _record_event("native-kernel-cache-hit",
                          "loaded kernels.so from the warm disk cache",
                          path=sopath)
        _bind(lib)
        return lib
    return None  # pragma: no cover - both attempts saw corrupt artifacts


def reset_native() -> None:
    """Forget the in-process load decision and every cached
    :class:`NativeField` (their Montgomery twiddle/ladder caches ride
    along). Called after a service fork so a worker's own environment —
    e.g. a per-worker ``REPRO_NATIVE=0`` override — is honoured from
    scratch; the next :func:`get_native_field` re-probes. The event log
    survives so telemetry still sees what the loader did."""
    global _LIB, _LOAD_ATTEMPTED, _LOADED_DISABLED
    _LIB = None
    _LOAD_ATTEMPTED = False
    _LOADED_DISABLED = None
    _FIELDS.clear()


def _get_lib():
    global _LIB, _LOAD_ATTEMPTED, _LOADED_DISABLED
    disabled = _env_disabled()
    if _LOAD_ATTEMPTED and disabled != _LOADED_DISABLED:
        # The env toggle flipped since the load decision (per-worker
        # override applied post-fork, or a test/bench toggling modes):
        # the memoized decision is stale, re-probe under the new env.
        reset_native()
    if not _LOAD_ATTEMPTED:
        _LOAD_ATTEMPTED = True
        _LOADED_DISABLED = disabled
        if disabled:
            _record_event("native-kernel-disabled",
                          f"{NATIVE_ENV_VAR} disables the compiled "
                          "kernels; scalar fallback")
        elif _np is not None:
            _LIB = _compile_and_load()
    return _LIB


def native_available() -> bool:
    """True when the compiled kernels can be (or already are) loaded."""
    return _get_lib() is not None


def get_native_field(modulus: int) -> Optional["NativeField"]:
    """A :class:`NativeField` for ``modulus``, or None when the native
    kernels are unavailable or the modulus is too wide."""
    lib = _get_lib()
    if lib is None:
        return None
    field = _FIELDS.get(modulus)
    if field is not None:
        return field
    w = (modulus.bit_length() + 63) // 64
    if w > MAX_WORDS - 2:  # C scratch is t[MAX_WORDS + 2]
        return None
    field = _FIELDS[modulus] = NativeField(lib, modulus, w)
    return field


class NativeField:
    """Batched Montgomery-domain arithmetic over one prime modulus.

    Curve-path arrays (:meth:`mul`/:meth:`sub`/:meth:`add`/
    :meth:`batch_inverse`/:meth:`point_op`) are C-contiguous ``(n, w)``
    uint64 rows of canonical Montgomery residues (:meth:`point_op` also
    takes packed ``(n, 2w)`` Fq2 rows);
    :meth:`to_mont`/:meth:`from_mont` move rows between the raw and the
    Montgomery domain and ``encode``/``decode`` add the int boundary —
    no curve kernel calls them. The
    NTT/pointwise row ops (:meth:`ntt_rows`, :meth:`mul_raw`, and
    :meth:`mul`/:meth:`mul_const` against :meth:`mont_ladder` /
    :meth:`encode_const` operands) work on *raw* canonical rows with
    the R factors folded into cached Montgomery constants; they never
    see a python int. The int <-> raw-row boundary
    (:meth:`words_from_ints` / :meth:`ints_from_words`) is crossed by
    :class:`~repro.backend.numpy_limb.NumpyLimbBackend` alone, once on
    the way in and once on the way out of a resident vector.

    No op writes into an operand's rows unless the caller passes that
    array as ``out=``; result rows and Stockham scratch are allocated
    per call (operands may be witness-derived — only the public
    twiddle and ladder tables are cached on the instance).
    """

    def __init__(self, lib, modulus: int, w: int):
        self.lib = lib
        self.p = modulus
        self.w = w
        self.r = (1 << (64 * w)) % modulus
        self._r2 = self.r * self.r % modulus
        self._rinv = pow(self.r, -1, modulus)
        self.n0inv = (-pow(modulus, -1, 1 << 64)) % (1 << 64)
        self._n_words = self._row(modulus)
        self._r2_words = self._row(self._r2)
        self._one_words = self._row(1)
        #: Montgomery representation of 1 (== R mod p): the point
        #: kernels' infinity coordinate and the padding of lanes that
        #: must invert but carry no point
        self.mont_one = self._row(self.r)
        #: Montgomery twiddle tables keyed (n, omega); cleared with the
        #: instance by :func:`reset_native`
        self._twiddles: Dict[Tuple[int, int], "_np.ndarray"] = {}
        #: Montgomery power ladders keyed by generator g
        self._ladders: Dict[int, "_np.ndarray"] = {}

    # -- conversions -----------------------------------------------------------

    def _row(self, value: int) -> "_np.ndarray":
        return _np.frombuffer(
            value.to_bytes(8 * self.w, "little"), dtype="<u8"
        ).copy()

    def words_from_ints(self, vals: Sequence[int]) -> "_np.ndarray":
        """Plain ints in [0, p) -> (n, w) word rows (NOT Montgomery)."""
        w = self.w
        buf = b"".join(v.to_bytes(8 * w, "little") for v in vals)
        return _np.frombuffer(buf, dtype="<u8").reshape(len(vals), w).copy()

    def ints_from_words(self, arr: "_np.ndarray") -> List[int]:
        raw = _np.ascontiguousarray(arr).tobytes()
        stride = 8 * self.w
        from_bytes = int.from_bytes
        return [from_bytes(raw[i * stride:(i + 1) * stride], "little")
                for i in range(arr.shape[0])]

    def to_mont(self, rows: "_np.ndarray",
                out: Optional["_np.ndarray"] = None) -> "_np.ndarray":
        """Raw canonical rows -> Montgomery rows (one batched mul by
        R^2), into fresh rows unless ``out`` is given."""
        return self.mul_const(rows, self._r2_words, out=out)

    def from_mont(self, rows: "_np.ndarray") -> "_np.ndarray":
        """Montgomery rows -> raw canonical rows (one batched mul by 1)."""
        return self.mul_const(rows, self._one_words)

    def encode(self, vals: Sequence[int]) -> "_np.ndarray":
        """Canonical ints -> Montgomery rows."""
        raw = self.words_from_ints(vals)
        return self.to_mont(raw, out=raw)

    def decode(self, arr: "_np.ndarray") -> List[int]:
        """Montgomery rows -> canonical ints."""
        return self.ints_from_words(self.from_mont(arr))

    def decode_one(self, row: "_np.ndarray") -> int:
        """One Montgomery row -> canonical int (pure Python; used for
        the inversion-tree root where a kernel call is not worth it)."""
        return (int.from_bytes(_np.ascontiguousarray(row).tobytes(),
                               "little") * self._rinv) % self.p

    def encode_const(self, value: int) -> "_np.ndarray":
        """One int -> a single (w,) Montgomery row."""
        return self._row(value % self.p * self.r % self.p)

    # -- batched arithmetic ----------------------------------------------------

    def _prep(self, a: "_np.ndarray") -> "_np.ndarray":
        if a.ndim == 1:
            raise ValueError("expected (n, w) rows")
        if not a.flags.c_contiguous:
            a = _np.ascontiguousarray(a)
        return a

    def _prep_pair(self, a: "_np.ndarray", b: "_np.ndarray"):
        """Both operands of a pairwise kernel: C is told ``a``'s row
        count, so ``b`` must have exactly as many rows to read."""
        a, b = self._prep(a), self._prep(b)
        if a.shape != b.shape:
            raise ValueError(
                f"pairwise kernel operands differ in shape: "
                f"{a.shape} vs {b.shape}")
        return a, b

    def mul(self, a: "_np.ndarray", b: "_np.ndarray",
            out: Optional["_np.ndarray"] = None) -> "_np.ndarray":
        a, b = self._prep_pair(a, b)
        if out is None:
            out = _np.empty_like(a)
        self.lib.mont_mul_batch(out.ctypes.data, a.ctypes.data,
                                b.ctypes.data, a.shape[0],
                                self._n_words.ctypes.data, self.n0inv,
                                self.w)
        return out

    def mul_const(self, a: "_np.ndarray", row: "_np.ndarray",
                  out: Optional["_np.ndarray"] = None) -> "_np.ndarray":
        """Every row of ``a`` times one shared ``(w,)`` row."""
        a = self._prep(a)
        if out is None:
            out = _np.empty_like(a)
        self.lib.mont_mul_const_batch(out.ctypes.data, a.ctypes.data,
                                      row.ctypes.data, a.shape[0],
                                      self._n_words.ctypes.data,
                                      self.n0inv, self.w)
        return out

    def sub(self, a: "_np.ndarray", b: "_np.ndarray",
            out: Optional["_np.ndarray"] = None) -> "_np.ndarray":
        a, b = self._prep_pair(a, b)
        if out is None:
            out = _np.empty_like(a)
        self.lib.mod_sub_batch(out.ctypes.data, a.ctypes.data,
                               b.ctypes.data, a.shape[0],
                               self._n_words.ctypes.data, self.w)
        return out

    def add(self, a: "_np.ndarray", b: "_np.ndarray",
            out: Optional["_np.ndarray"] = None) -> "_np.ndarray":
        a, b = self._prep_pair(a, b)
        if out is None:
            out = _np.empty_like(a)
        self.lib.mod_add_batch(out.ctypes.data, a.ctypes.data,
                               b.ctypes.data, a.shape[0],
                               self._n_words.ctypes.data, self.w)
        return out

    def batch_inverse(self, a: "_np.ndarray") -> "_np.ndarray":
        """Montgomery-trick batch inversion: 3(n-1) sequential muls in
        two kernel calls plus one Python field inversion of the running
        product. Every row must be invertible."""
        a = self._prep(a)
        n = a.shape[0]
        pref = _np.empty_like(a)
        self.lib.mont_prefix_mul(pref.ctypes.data, a.ctypes.data, n,
                                 self._n_words.ctypes.data, self.n0inv,
                                 self.w)
        tinv = self.encode_const(pow(self.decode_one(pref[n - 1]), -1,
                                     self.p))
        out = _np.empty_like(a)
        self.lib.mont_batch_inv_back(out.ctypes.data, pref.ctypes.data,
                                     a.ctypes.data, tinv.ctypes.data, n,
                                     self._n_words.ctypes.data,
                                     self.n0inv, self.w)
        return out

    # -- point kernels over Montgomery rows -----------------------------------
    #
    # One caller for the lane loops, the sequential fold and the merge:
    # they share one ABI (see the C source). Operand rows are only read;
    # the result planes and the tally are allocated here, per call
    # (buckets are witness-derived).

    def point_op(self, op: str, degree: int, planes, a_row=None,
                 c0_row=None, ids=None):
        """Run one point kernel: ``op`` is ``"dbl"`` (3 operand planes
        x, y, z: every lane doubled), ``"add"`` (6 planes: lanes added
        pairwise), ``"fold"`` (3 planes: the bucket-reduction
        sum_j (j+1)*B_j as one point) or ``"merge"`` (2 planes x, y of
        affine lanes whose bucket ``ids`` ascend: the point-merging
        tree); ``degree`` 1 takes ``(n, w)`` Montgomery rows over Fp, 2
        packed ``(n, 2w)`` rows over Fq2. ``a_row``/``c0_row`` are the
        Montgomery rows of the curve's a (packed for Fq2; ``None`` when
        a == 0) and of the Fq2 non-residue c0 (``None`` when c0 == 1).
        Infinity, P == Q and P == -Q are routed in C per lane. Returns
        ``(out, n_padd, n_pdbl)``: ``out[0]``/``out[1]``/``out[2]`` are
        the result's x/y/z planes — n rows, or the fold's one — and the
        tallies are what the scalar formulas would have booked; for the
        merge ``out`` is ``(ids, x, y)`` of the surviving lanes, at most
        one per bucket, and the tallies are the tree schedule's.

        Every operand's shape is checked before a pointer crosses: C is
        told one lane count and one row width and reads exactly that
        much of each plane."""
        name, n_planes = _POINT_KERNELS[op, degree]
        width = degree * self.w
        planes = [self._prep(pl) for pl in planes]
        n = planes[0].shape[0] if planes else 0
        if len(planes) != n_planes or any(
                pl.shape != (n, width) or pl.dtype != _np.uint64
                for pl in planes):
            raise ValueError(
                f"point kernel {op!r} takes {n_planes} uint64 planes of "
                f"one (n, {width}) shape, got "
                f"{[(pl.shape, str(pl.dtype)) for pl in planes]}")
        merge = op == "merge"
        if merge:  # the kernel compacts the survivors' ids into this copy
            ids = _np.array(ids, dtype=_np.int64)
            if ids.shape != (n,) or (ids[1:] < ids[:-1]).any():
                raise ValueError("the merge takes one ascending bucket id "
                                 "per lane")
        # the Fp kernels take (a), the Fq2 kernels (a, c0)
        consts = [(a_row, width), (c0_row, self.w)][:degree]
        if any(row is not None and (
                row.shape != (words,) or row.dtype != _np.uint64
                or not row.flags.c_contiguous) for row, words in consts):
            raise ValueError(
                "curve constant rows are contiguous uint64 word rows of "
                "the kernel's width")
        out = _np.empty((n_planes if merge else 3, 1 if op == "fold" else n,
                         width), dtype="<u8")
        tally = _np.zeros(3, dtype="<u8")
        getattr(self.lib, name)(
            out.ctypes.data, tally.ctypes.data,
            *([ids.ctypes.data] if merge else []),
            *(pl.ctypes.data for pl in planes), n,
            *(None if row is None else row.ctypes.data for row, _ in consts),
            self.mont_one.ctypes.data, self._n_words.ctypes.data,
            self.n0inv, self.w)
        if merge:
            live = int(tally[2])
            if live > n:
                raise MemoryError("the merge kernel's scratch allocation "
                                  "failed")
            out = ids[:live], out[0, :live], out[1, :live]
        return out, int(tally[0]), int(tally[1])

    # -- NTT / pointwise over raw rows ------------------------------------------

    def _mont_twiddle_rows(self, field, n: int,
                           omega: int) -> "_np.ndarray":
        """The shared :class:`~repro.ntt.twiddle.TwiddleTable` for
        (n, omega), encoded once into Montgomery rows and cached on the
        instance — pass i block b reads row ``2^i + b``, exactly the
        table's layout."""
        key = (n, omega)
        rows = self._twiddles.get(key)
        if rows is None:
            from repro.ntt.twiddle import get_twiddle_table

            table = get_twiddle_table(field, n, omega)
            rows = self._twiddles[key] = self.encode(table.values)
        return rows

    def ntt_rows(self, field, rows: "_np.ndarray",
                 omega: int) -> "_np.ndarray":
        """Whole forward Stockham sweep over raw canonical rows into
        fresh rows; natural order in and out, bit-identical to the
        scalar DIT reference. ``field`` supplies the memoized twiddle
        table. The kernel ping-pongs between its two buffers from the
        second pass on, so it runs on a copy of the operand."""
        n = rows.shape[0]
        data = _np.array(rows, dtype="<u8", order="C")
        scratch = _np.empty_like(data)
        tw = self._mont_twiddle_rows(field, n, omega)
        self.lib.ntt_stockham(data.ctypes.data, scratch.ctypes.data,
                              tw.ctypes.data, n, n.bit_length() - 1,
                              self._n_words.ctypes.data, self.n0inv,
                              self.w)
        return data

    def mul_raw(self, a: "_np.ndarray", b: "_np.ndarray") -> "_np.ndarray":
        """Pointwise x*y mod p of two raw row sets, raw out: one
        batched CIOS product (x*y*R^-1) plus one broadcast mul by R^2
        folds the result back to the raw domain — two muls per
        element, no encode/decode."""
        out = self.mul(a, b)
        return self.mul_const(out, self._r2_words, out=out)

    def mont_ladder(self, g: int, n: int) -> "_np.ndarray":
        """Cached Montgomery power ladder rows[i] = g^i * R, grown
        geometrically; one sequential C sweep builds it. Raw rows
        times the ladder are the coset scaling x[i] * g^i with the R
        factors cancelled — one mul per element."""
        g %= self.p
        arr = self._ladders.get(g)
        if arr is None or arr.shape[0] < n:
            size = n if arr is None else max(n, 2 * arr.shape[0])
            out = _np.empty((size, self.w), dtype="<u8")
            g_row = self.encode_const(g)
            self.lib.mont_powers(out.ctypes.data,
                                 self.mont_one.ctypes.data,
                                 g_row.ctypes.data, size,
                                 self._n_words.ctypes.data, self.n0inv,
                                 self.w)
            arr = self._ladders[g] = out
        return arr[:n]

    # -- predicates (free: Montgomery residues are canonical) -------------------

    @staticmethod
    def is_zero(a: "_np.ndarray") -> "_np.ndarray":
        return (a == 0).all(axis=1)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<NativeField w={self.w} p~2^{self.p.bit_length()}>"
