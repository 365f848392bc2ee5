"""Runtime-compiled Montgomery word kernels: the pipeline's native floor.

The MSM's point kernels (:mod:`repro.backend.kernel_backend`) and the
POLY stage's NTT/pointwise passes spend nearly all of their time in
full-width modular multiplications. Pure NumPy limb arithmetic tops out
around 600 ns per 381-bit multiply on one core — barely 2x the CPython
big-int it replaces — because every product pays ~40 array passes of
memory traffic. A single tight CIOS loop in C does the same multiply in
~100 ns (381-bit) / ~340 ns (753-bit), which is what buys the MSM
ablation its headroom and, since this module grew the Stockham sweep,
the full-proof native ablation too.

So this module compiles one small C file (batch kernels: CIOS Montgomery
multiply, modular add/sub, the point kernels — one doubling and one
addition over degree-d field ops that serve Fp and Fq2 alike, looped
per lane, folded sequentially over buckets and run as a whole windowed
scalar multiplication per lane, the point-merging tree and the
Jacobian -> affine normalisation — a whole-vector Stockham NTT
sweep, a sequential power ladder, a broadcast constant multiply, and
the pairing's line generator — a Jacobian walk over Fq2 with one
batched inversion per table — the optimal-ate multi-Miller replay and
final exponentiation over one degree-d extension product and the Tate
pairing's multi-loop replay in Fq2, all over
little-endian 64-bit word rows) with the system
compiler at first use, caches the shared object keyed by a hash of the
source and the compile flags, and loads it with :mod:`ctypes`. There
is no build step, no new package dependency, and no platform
assumption beyond "a C compiler exists":
when none does (or ``REPRO_NATIVE=0`` is set) :func:`native_available`
is False, :func:`get_native_field` returns ``None``, and the backend
name ``numpy`` resolves to the ``python`` backend, bit-identically.

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
op: the backend's resident vector (:mod:`repro.backend.kernel_backend`)
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

import numpy as _np

from repro.errors import CurveError

__all__ = ["native_available", "get_native_field", "NativeField",
           "NATIVE_ENV_VAR", "reset_native", "kernel_events",
           "drain_kernel_events", "cache_base_dir", "window_index"]

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

/* -- Field ops over d coefficient planes -------------------------------------

   Every point kernel below runs over these. A coordinate is d base-field
   Montgomery values: d = 1 an Fp element, d = 2 a packed Fq2 one,
   [c0 words | c1 words] with i^2 = -c0, the layout of the rows. It is
   at most 2 * MAX_WORDS words, hence the [64] scratch. The Fq2 product
   is Karatsuba (3 base muls): t0 = a0*b0, t2 = a1*b1,
   t1 = (a0+a1)(b0+b1) - t0 - t2, result = (t0 - c0*t2, t1). c0m is the
   Montgomery row of c0, or NULL when c0 == 1 (the reduction mul is
   skipped) and over Fp. Outputs may alias inputs. */

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

/* o = a^e over Fp: square-and-multiply from the top bit of the
   ew-word exponent e (e = 0 gives one). o may alias a. */
static void fp_pow(uint64_t *o, const uint64_t *a, const uint64_t *e,
                   int ew, const uint64_t *one, const uint64_t *N,
                   uint64_t n0inv, int w)
{
    uint64_t r[32];
    words_copy(r, one, w);
    for (int j = ew - 1; j >= 0; j--)
        for (int b = 63; b >= 0; b--) {
            mont_mul_one(r, r, r, N, n0inv, w);
            if ((e[j] >> b) & 1)
                mont_mul_one(r, r, a, N, n0inv, w);
        }
    words_copy(o, r, w);
}

/* o = 1/a over Fp for a != 0: Fermat's a^(N-2), the w-word exponent
   derived from N. */
static void fp_inv(uint64_t *o, const uint64_t *a, const uint64_t *one,
                   const uint64_t *N, uint64_t n0inv, int w)
{
    uint64_t e[32];
    uint64_t sub = 2;
    for (int j = 0; j < w; j++) {
        u128 d = (u128)N[j] - sub;
        e[j] = (uint64_t)d;
        sub = (d >> 64) ? 1 : 0;
    }
    fp_pow(o, a, e, w, one, N, n0inv, w);
}

/* out[k] = a[k]^e for n Montgomery rows and one w-word exponent: the
   decoder's square roots. out may alias a. */
void mont_pow_batch(uint64_t *out, const uint64_t *a, size_t n,
                    const uint64_t *e, const uint64_t *one,
                    const uint64_t *N, uint64_t n0inv, int w)
{
    for (size_t k = 0; k < n; k++)
        fp_pow(out + k * w, a + k * w, e, w, one, N, n0inv, w);
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

/* inv lane k = 1/z lane k for each of the n lanes of z, with one fe_inv
   for all of them (Montgomery's trick): the prefix products of the live
   lanes forward, kept in inv, the one fe_inv, then backward each live
   lane's inverse and the running inverse. A z == 0 lane stays out of
   the product and gets 0. inv may not alias z. */
static void fe_batch_inv(uint64_t *inv, const uint64_t *z, size_t n, int d,
                         const uint64_t *c0m, const uint64_t *one,
                         const uint64_t *N, uint64_t n0inv, int w)
{
    uint64_t acc[64];
    size_t wd = (size_t)d * w, k = n, j;  /* k: the last live lane, n: none */
    for (j = 0; j < n; j++) {
        if (words_zero(z + j * wd, (int)wd)) {
            for (size_t c = 0; c < wd; c++) inv[j * wd + c] = 0;
        } else {
            if (k < n)
                fe_mul(inv + j * wd, inv + k * wd, z + j * wd, d, c0m, N,
                       n0inv, w);
            else
                words_copy(inv + j * wd, z + j * wd, (int)wd);
            k = j;
        }
    }
    if (k < n) fe_inv(acc, inv + k * wd, d, c0m, one, N, n0inv, w);
    while (k < n) {          /* k: a live lane; j: the one before it */
        for (j = k; j-- > 0 && words_zero(z + j * wd, (int)wd);) ;
        if (j < n) {
            fe_mul(inv + k * wd, acc, inv + j * wd, d, c0m, N, n0inv, w);
            fe_mul(acc, acc, z + k * wd, d, c0m, N, n0inv, w);
        } else {
            words_copy(inv + k * wd, acc, (int)wd);
        }
        k = j;
    }
}

/* -- Jacobian point kernels -------------------------------------------------

   One doubling (jpt_dbl) and one addition (jpt_add) over the field ops
   above, and every exported point kernel but to_affine is a loop over
   them. They are CurveGroup's jdouble/jadd in CurveGroup's operand
   order on Montgomery residues (every product and add/sub is
   canonicalized, so values track the scalar formulas step for step and
   decode bit-identical, not merely group-equal), with its special cases
   routed on canonical words: z == 0 is infinity (the other operand
   comes back verbatim, count-free), u1 == u2 and s1 == s2 is P == Q
   (the doubling: one pdbl + one padd, or count-free infinity when
   y == 0), u1 == u2 alone is P == -Q (count-free infinity), anything
   else one padd. An infinity made here is the scalar formulas'
   (1, 1, 0): `one` is the Montgomery row of 1 (its c1 is zero).
   tally[0] += padds, tally[1] += pdbls, exactly what the scalar
   formulas book through group._count.

   The exported kernels share one ABI: out, tally, (merge: ids;
   windows: idx), the operand planes, n, d, am, c0m, one, N, n0inv, w
   (windows: then nw, doublings). Operand planes are Montgomery
   (n, d*w) rows (windows: the table's rows, and n counts its lanes)
   and are only read; `out` is the result planes of m rows each, x then
   y (then z) (m = n but for the fold's 1). am is the Montgomery row of
   the curve's a (d*w words), or NULL when a == 0 (the a*z^4 term of the
   doubling and the tangent's + a are skipped). No conversion mul
   anywhere in here.

   jac_dbl:     out lane k = 2 * P_k
   jac_add:     out lane k = P_k + Q_k
   bucket_fold: out = sum_j (j+1)*B_j as the ordered running-suffix
                fold of repro.msm.pippenger.bucket_reduce, last bucket
                first: running += B_j; total += running (2 jadds per
                bucket)
   windows:     out lane k = the windowed sum of table rows (below)
   merge:       the point-merging tree (below)
   to_affine:   out lane k = (x_k / z_k^2, y_k / z_k^3) (below) */

typedef struct { uint64_t x[64], y[64], z[64]; } jpt;

static inline void jpt_set_inf(jpt *o, int d, const uint64_t *one, int w)
{
    for (int j = 0; j < d * w; j++)
        o->x[j] = o->y[j] = o->z[j] = 0;
    words_copy(o->x, one, w);
    words_copy(o->y, one, w);
}

static inline void jpt_copy(jpt *o, const jpt *a, int d, int w)
{
    if (o == a) return;
    words_copy(o->x, a->x, d * w);
    words_copy(o->y, a->y, d * w);
    words_copy(o->z, a->z, d * w);
}

/* Lane k of three operand planes -> o. */
static inline void jpt_load(jpt *o, const uint64_t *x, const uint64_t *y,
                            const uint64_t *z, size_t k, int d, int w)
{
    size_t wd = (size_t)d * w;
    words_copy(o->x, x + k * wd, (int)wd);
    words_copy(o->y, y + k * wd, (int)wd);
    words_copy(o->z, z + k * wd, (int)wd);
}

/* p -> lane k of the three m-row result planes in out. */
static inline void jpt_store(uint64_t *out, size_t m, size_t k,
                             const jpt *p, int d, int w)
{
    size_t wd = (size_t)d * w;
    words_copy(out + k * wd, p->x, (int)wd);
    words_copy(out + (m + k) * wd, p->y, (int)wd);
    words_copy(out + (2 * m + k) * wd, p->z, (int)wd);
}

/* o = 2p; o may alias p. num, unless NULL, gets the tangent slope's
   numerator 3x^2 + a z^4, whose denominator is o's z (2yz). */
static void jpt_dbl(jpt *o, const jpt *p, uint64_t *tally, int d,
                    const uint64_t *am, const uint64_t *c0m,
                    const uint64_t *one, const uint64_t *N, uint64_t n0inv,
                    int w, uint64_t *num)
{
    uint64_t ysq[64], s[64], m[64], t[64], u[64], z3[64];
    if (words_zero(p->z, d * w) || words_zero(p->y, d * w)) {
        jpt_set_inf(o, d, one, w);
        return;
    }
    fe_mul(ysq, p->y, p->y, d, c0m, N, n0inv, w);
    fe_mul(s, p->x, ysq, d, c0m, N, n0inv, w);
    fe_add(s, s, s, d, N, w);
    fe_add(s, s, s, d, N, w);                     /* s = 4*x*y^2 */
    fe_mul(m, p->x, p->x, d, c0m, N, n0inv, w);
    fe_add(t, m, m, d, N, w);
    fe_add(m, m, t, d, N, w);                     /* m = 3*x^2 */
    if (am) {
        fe_mul(t, p->z, p->z, d, c0m, N, n0inv, w);
        fe_mul(t, t, t, d, c0m, N, n0inv, w);
        fe_mul(t, t, am, d, c0m, N, n0inv, w);
        fe_add(m, m, t, d, N, w);                 /* + a*z^4 */
    }
    if (num) words_copy(num, m, d * w);
    fe_mul(z3, p->y, p->z, d, c0m, N, n0inv, w);
    fe_add(z3, z3, z3, d, N, w);                  /* z3 = 2*y*z */
    fe_mul(t, m, m, d, c0m, N, n0inv, w);
    fe_add(u, s, s, d, N, w);
    fe_sub(t, t, u, d, N, w);                     /* x3 = m^2 - 2s */
    fe_sub(u, s, t, d, N, w);
    fe_mul(u, m, u, d, c0m, N, n0inv, w);         /* m*(s - x3) */
    fe_mul(ysq, ysq, ysq, d, c0m, N, n0inv, w);
    fe_add(ysq, ysq, ysq, d, N, w);
    fe_add(ysq, ysq, ysq, d, N, w);
    fe_add(ysq, ysq, ysq, d, N, w);               /* 8*y^4 */
    fe_sub(o->y, u, ysq, d, N, w);                /* y3 */
    words_copy(o->x, t, d * w);
    words_copy(o->z, z3, d * w);
    tally[0]++;
    tally[1]++;
}

/* o = p + q; o may alias p or q. num, unless NULL, gets the numerator
   of the slope of the line through p and q (the chord's s2 - s1, the
   tangent's when p == q), whose denominator is o's z; it is not
   written when either operand or o is infinity. */
static void jpt_add(jpt *o, const jpt *p, const jpt *q, uint64_t *tally,
                    int d, const uint64_t *am, const uint64_t *c0m,
                    const uint64_t *one, const uint64_t *N, uint64_t n0inv,
                    int w, uint64_t *num)
{
    uint64_t z1q[64], z2q[64], u1[64], u2[64], s1[64], s2[64];
    uint64_t h[64], r[64], t[64], u[64], z3[64];
    if (words_zero(p->z, d * w)) { jpt_copy(o, q, d, w); return; }
    if (words_zero(q->z, d * w)) { jpt_copy(o, p, d, w); return; }
    fe_mul(z1q, p->z, p->z, d, c0m, N, n0inv, w);
    fe_mul(z2q, q->z, q->z, d, c0m, N, n0inv, w);
    fe_mul(u1, p->x, z2q, d, c0m, N, n0inv, w);
    fe_mul(u2, q->x, z1q, d, c0m, N, n0inv, w);
    fe_mul(t, z2q, q->z, d, c0m, N, n0inv, w);
    fe_mul(s1, p->y, t, d, c0m, N, n0inv, w);
    fe_mul(t, z1q, p->z, d, c0m, N, n0inv, w);
    fe_mul(s2, q->y, t, d, c0m, N, n0inv, w);
    if (words_eq(u1, u2, d * w)) {
        if (words_eq(s1, s2, d * w))
            jpt_dbl(o, p, tally, d, am, c0m, one, N, n0inv, w, num);
        else
            jpt_set_inf(o, d, one, w);
        return;
    }
    fe_sub(h, u2, u1, d, N, w);
    fe_sub(r, s2, s1, d, N, w);
    if (num) words_copy(num, r, d * w);
    fe_mul(z3, p->z, q->z, d, c0m, N, n0inv, w);
    fe_mul(z3, h, z3, d, c0m, N, n0inv, w);       /* z3 = h*z1*z2 */
    fe_mul(t, h, h, d, c0m, N, n0inv, w);         /* h^2 */
    fe_mul(u1, u1, t, d, c0m, N, n0inv, w);       /* u1*h^2 */
    fe_mul(t, t, h, d, c0m, N, n0inv, w);         /* h^3 */
    fe_mul(s1, s1, t, d, c0m, N, n0inv, w);       /* s1*h^3 */
    fe_mul(u, r, r, d, c0m, N, n0inv, w);
    fe_sub(u, u, t, d, N, w);
    fe_add(t, u1, u1, d, N, w);
    fe_sub(u, u, t, d, N, w);                     /* x3 */
    fe_sub(t, u1, u, d, N, w);
    fe_mul(t, r, t, d, c0m, N, n0inv, w);
    fe_sub(o->y, t, s1, d, N, w);                 /* y3 */
    words_copy(o->x, u, d * w);
    words_copy(o->z, z3, d * w);
    tally[0]++;
}

void jac_dbl(uint64_t *out, uint64_t *tally, const uint64_t *x,
             const uint64_t *y, const uint64_t *z, size_t n, int d,
             const uint64_t *am, const uint64_t *c0m, const uint64_t *one,
             const uint64_t *N, uint64_t n0inv, int w)
{
    jpt p;
    for (size_t k = 0; k < n; k++) {
        jpt_load(&p, x, y, z, k, d, w);
        jpt_dbl(&p, &p, tally, d, am, c0m, one, N, n0inv, w, NULL);
        jpt_store(out, n, k, &p, d, w);
    }
}

void jac_add(uint64_t *out, uint64_t *tally, const uint64_t *x1,
             const uint64_t *y1, const uint64_t *z1, const uint64_t *x2,
             const uint64_t *y2, const uint64_t *z2, size_t n, int d,
             const uint64_t *am, const uint64_t *c0m, const uint64_t *one,
             const uint64_t *N, uint64_t n0inv, int w)
{
    jpt p, q;
    for (size_t k = 0; k < n; k++) {
        jpt_load(&p, x1, y1, z1, k, d, w);
        jpt_load(&q, x2, y2, z2, k, d, w);
        jpt_add(&p, &p, &q, tally, d, am, c0m, one, N, n0inv, w, NULL);
        jpt_store(out, n, k, &p, d, w);
    }
}

void bucket_fold(uint64_t *out, uint64_t *tally, const uint64_t *x,
                 const uint64_t *y, const uint64_t *z, size_t n, int d,
                 const uint64_t *am, const uint64_t *c0m, const uint64_t *one,
                 const uint64_t *N, uint64_t n0inv, int w)
{
    jpt running, total, b;
    jpt_set_inf(&running, d, one, w);
    jpt_set_inf(&total, d, one, w);
    for (size_t k = n; k-- > 0;) {
        jpt_load(&b, x, y, z, k, d, w);
        jpt_add(&running, &running, &b, tally, d, am, c0m, one, N, n0inv,
                w, NULL);
        jpt_add(&total, &total, &running, tally, d, am, c0m, one, N, n0inv,
                w, NULL);
    }
    jpt_store(out, 1, 0, &total, d, w);
}

/* windows: a windowed scalar multiplication per lane, its loop in here
   because one kernel call per doubling round costs more than python's
   own jdouble. Lane k reads row idx[k*nw + t] of the table planes x/y/z
   for each of its nw windows t, from the most significant (nw - 1) to
   0: acc = inf, then per window `doublings` jpt_dbl of acc and one
   jpt_add of the row. Nothing but jpt_dbl and jpt_add touches a field
   element. Every index was checked against the table's row count
   before the call; the kernel reads no other row. */
void windows(uint64_t *out, uint64_t *tally, const int64_t *idx,
             const uint64_t *x, const uint64_t *y, const uint64_t *z,
             size_t n, int d, const uint64_t *am, const uint64_t *c0m,
             const uint64_t *one, const uint64_t *N, uint64_t n0inv, int w,
             size_t nw, int doublings)
{
    jpt acc, row;
    for (size_t k = 0; k < n; k++) {
        jpt_set_inf(&acc, d, one, w);
        for (size_t t = nw; t-- > 0;) {
            for (int j = 0; j < doublings; j++)
                jpt_dbl(&acc, &acc, tally, d, am, c0m, one, N, n0inv, w,
                        NULL);
            jpt_load(&row, x, y, z, (size_t)idx[k * nw + t], d, w);
            jpt_add(&acc, &acc, &row, tally, d, am, c0m, one, N, n0inv, w,
                    NULL);
        }
        jpt_store(out, n, k, &acc, d, w);
    }
}

/* to_affine: the affine form of every Jacobian lane, (x/z^2, y/z^3)
   over fe_batch_inv's inverses of the z's (kept in out's x plane,
   which the second pass overwrites lane by lane). A z == 0 lane
   (infinity) comes back as (0, 0), the form a resident row gives a
   None point. am and tally ride along for the shared ABI. */
void to_affine(uint64_t *out, uint64_t *tally, const uint64_t *x,
               const uint64_t *y, const uint64_t *z, size_t n, int d,
               const uint64_t *am, const uint64_t *c0m, const uint64_t *one,
               const uint64_t *N, uint64_t n0inv, int w)
{
    uint64_t zi2[64], zi3[64];
    size_t wd = (size_t)d * w;
    uint64_t *X = out, *Y = out + n * wd;
    fe_batch_inv(X, z, n, d, c0m, one, N, n0inv, w);
    for (size_t k = 0; k < n; k++) {
        if (words_zero(z + k * wd, (int)wd)) {
            for (size_t c = 0; c < wd; c++) Y[k * wd + c] = 0;
            continue;
        }
        fe_mul(zi2, X + k * wd, X + k * wd, d, c0m, N, n0inv, w);
        fe_mul(zi3, zi2, X + k * wd, d, c0m, N, n0inv, w);
        fe_mul(X + k * wd, x + k * wd, zi2, d, c0m, N, n0inv, w);
        fe_mul(Y + k * wd, y + k * wd, zi3, d, c0m, N, n0inv, w);
    }
}

/* -- Point-merging ----------------------------------------------------------

   GZKP's point-merging kernel: bucket entries merged by a sorted
   log-depth tree of batch-affine additions, one call per merge, one
   round schedule over the degree-d field ops for both fields. */

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
void merge(uint64_t *out, uint64_t *tally, int64_t *ids, const uint64_t *x,
           const uint64_t *y, size_t n, int d, const uint64_t *am,
           const uint64_t *c0m, const uint64_t *one, const uint64_t *N,
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

/* -- The pairing: one extension product and the loops ----------------------

   An element of Fq[w]/(f) is d <= 12 Montgomery coefficients, low-order
   first, [c_0 words | ... | c_(d-1) words]. f is monic and sparse: fm
   holds d Montgomery rows m_j with w^d = sum_j m_j w^j (w^12 =
   18 w^6 - 82 on ALT-BN128), a zero row where f has no term. ext_mul is
   ExtElement's product on these rows: the schoolbook products, skipping
   zero coefficients (which keeps a line's product sparse), summed
   unreduced per slot — at most d full 2w-word products of canonical
   residues in a (2w+1)-word accumulator — then one Montgomery reduction
   per slot, and the high slots folded down through the nonzero m_j, the
   top slot first. ext_sqr takes the symmetric products only (each a_i^2
   once, each (2 a_i) a_j once). ext_map adds the image of a under a
   linear map of the flat basis — an untwist Fq2 -> Fq12, a
   q^k-Frobenius — given as din rows of dout Montgomery rows, row i the
   image of the i-th basis element. The body calls the Montgomery
   helpers — mont_mul_one, mod_add_one, mont_mul_wide, mont_redc — and
   the word moves, nothing else. ext_mul and ext_sqr may alias o with
   their operands; ext_map may not. */

/* acc += a * b: the full 2w-word product, unreduced, into a
   (2w+1)-word accumulator whose total must fit it. */
static inline __attribute__((always_inline)) void mont_mul_wide_w(
    uint64_t *acc, const uint64_t *a, const uint64_t *b, int w)
{
    uint64_t t[64];
    u128 c;
    for (int k = 0; k < 2 * w; k++) t[k] = 0;
#pragma GCC unroll 6
    for (int i = 0; i < w; i++) {
        c = 0;
#pragma GCC unroll 6
        for (int j = 0; j < w; j++) {
            c = (u128)a[i] * b[j] + t[i + j] + (uint64_t)(c >> 64);
            t[i + j] = (uint64_t)c;
        }
        t[i + w] = (uint64_t)(c >> 64);
    }
    c = 0;
#pragma GCC unroll 12
    for (int k = 0; k < 2 * w; k++) {
        c = (u128)acc[k] + t[k] + (uint64_t)(c >> 64);
        acc[k] = (uint64_t)c;
    }
    acc[2 * w] += (uint64_t)(c >> 64);
}

/* o = T R^-1 mod N, canonical, for a (2w+1)-word T (consumed): w
   Montgomery rounds add m N 2^(64i) so the low w words vanish, leaving
   (T + m N)/R < T/R + N in words w..2w, then N comes off while it fits.
   The rounds' sum must fit the 2w+1 words too. */
static inline __attribute__((always_inline)) void mont_redc_w(
    uint64_t *o, uint64_t *T, const uint64_t *N, uint64_t n0inv, int w)
{
    uint64_t *t = T + w, top = 0;  /* top: the carry out of word i + w */
#pragma GCC unroll 6
    for (int i = 0; i < w; i++) {
        uint64_t m = T[i] * n0inv;
        u128 c = 0;
#pragma GCC unroll 6
        for (int j = 0; j < w; j++) {
            c = (u128)m * N[j] + T[i + j] + (uint64_t)(c >> 64);
            T[i + j] = (uint64_t)c;
        }
        c = (u128)T[i + w] + (uint64_t)(c >> 64) + top;
        T[i + w] = (uint64_t)c;
        top = (uint64_t)(c >> 64);
    }
    T[2 * w] += top;
    for (;;) {
        int ge = t[w] != 0;
        if (!ge)
            for (int j = w - 1; j >= 0; j--) {
                if (t[j] != N[j]) { ge = t[j] > N[j]; break; }
                if (j == 0) ge = 1;
            }
        if (!ge) break;
        u128 borrow = 0;
        for (int j = 0; j < w; j++) {
            u128 d = (u128)t[j] - N[j] - (uint64_t)borrow;
            t[j] = (uint64_t)d;
            borrow = (d >> 64) ? 1 : 0;
        }
        t[w] -= (uint64_t)borrow;
    }
    words_copy(o, t, w);
}

/* Their width dispatch, as mont_mul_one's. */
static __attribute__((noinline)) void mont_mul_wide(
    uint64_t *acc, const uint64_t *a, const uint64_t *b, int w)
{
    switch (w) {
    case 4: mont_mul_wide_w(acc, a, b, 4); break;
    case 6: mont_mul_wide_w(acc, a, b, 6); break;
    default: mont_mul_wide_w(acc, a, b, w);
    }
}

static __attribute__((noinline)) void mont_redc(
    uint64_t *o, uint64_t *T, const uint64_t *N, uint64_t n0inv, int w)
{
    switch (w) {
    case 4: mont_redc_w(o, T, N, n0inv, 4); break;
    case 6: mont_redc_w(o, T, N, n0inv, 6); break;
    default: mont_redc_w(o, T, N, n0inv, w);
    }
}

static void ext_fold(uint64_t *o, uint64_t *prod, int d, const uint64_t *fm,
                     const uint64_t *N, uint64_t n0inv, int w)
{
    uint64_t t[32];
    for (int k = 2 * d - 2; k >= d; k--) {
        if (words_zero(prod + k * w, w)) continue;
        for (int j = 0; j < d; j++) {
            if (words_zero(fm + j * w, w)) continue;
            mont_mul_one(t, prod + k * w, fm + j * w, N, n0inv, w);
            mod_add_one(prod + (k - d + j) * w, prod + (k - d + j) * w, t,
                        N, w);
        }
    }
    words_copy(o, prod, d * w);
}

/* The 2d - 1 accumulators (2w+1 words each, zeroed by the caller) ->
   reduced slots -> the d coefficients of o. */
static void ext_reduce(uint64_t *o, uint64_t *acc, int d,
                       const uint64_t *fm, const uint64_t *N,
                       uint64_t n0inv, int w)
{
    uint64_t prod[23 * 32];
    for (int k = 0; k < 2 * d - 1; k++)
        mont_redc(prod + k * w, acc + k * (2 * w + 1), N, n0inv, w);
    ext_fold(o, prod, d, fm, N, n0inv, w);
}

static void ext_mul(uint64_t *o, const uint64_t *a, const uint64_t *b,
                    int d, const uint64_t *fm, const uint64_t *N,
                    uint64_t n0inv, int w)
{
    uint64_t acc[23 * 65];
    int aw = 2 * w + 1;
    for (int k = 0; k < (2 * d - 1) * aw; k++) acc[k] = 0;
    for (int j = 0; j < d; j++) {
        if (words_zero(b + j * w, w)) continue;
        for (int i = 0; i < d; i++) {
            if (words_zero(a + i * w, w)) continue;
            mont_mul_wide(acc + (i + j) * aw, a + i * w, b + j * w, w);
        }
    }
    ext_reduce(o, acc, d, fm, N, n0inv, w);
}

static void ext_sqr(uint64_t *o, const uint64_t *a, int d,
                    const uint64_t *fm, const uint64_t *N, uint64_t n0inv,
                    int w)
{
    uint64_t acc[23 * 65], a2[32];
    int aw = 2 * w + 1;
    for (int k = 0; k < (2 * d - 1) * aw; k++) acc[k] = 0;
    for (int i = 0; i < d; i++) {
        if (words_zero(a + i * w, w)) continue;
        mont_mul_wide(acc + 2 * i * aw, a + i * w, a + i * w, w);
        mod_add_one(a2, a + i * w, a + i * w, N, w);
        for (int j = i + 1; j < d; j++) {
            if (words_zero(a + j * w, w)) continue;
            mont_mul_wide(acc + (i + j) * aw, a2, a + j * w, w);
        }
    }
    ext_reduce(o, acc, d, fm, N, n0inv, w);
}

static void ext_map(uint64_t *o, const uint64_t *a, int din,
                    const uint64_t *rows, int dout, const uint64_t *N,
                    uint64_t n0inv, int w)
{
    uint64_t t[32];
    for (int i = 0; i < din; i++) {
        if (words_zero(a + i * w, w)) continue;
        for (int j = 0; j < dout; j++) {
            const uint64_t *c = rows + ((size_t)i * dout + j) * w;
            if (words_zero(c, w)) continue;
            mont_mul_one(t, a + i * w, c, N, n0inv, w);
            mod_add_one(o + j * w, o + j * w, t, N, w);
        }
    }
}

/* miller_lines: the line table of one G2 point q = (x | y), packed Fq2
   rows, without the untwist: PairingEngine._lines and
   MntTatePairing._lines alike. sched[s] says what step s adds to the
   running point R (which starts at q): 0 R itself (a doubling), 1 q,
   2 psi(q), 3 -psi^2(q), where psi(x, y) = (conj(x) psi_x, conj(y)
   psi_y) and psi holds (psi_x | psi_y) (NULL when no step names it).
   R walks in Jacobian coordinates through jpt_dbl / jpt_add, which hand
   out each slope's numerator; on a doubling and an addition alike the
   slope's denominator is the next point's z. So one fe_batch_inv over
   the walk's z's gives every affine value of pairing.chord's walk, bit
   for bit: lam_s = num_s / z_(s+1), x_s = X_s / z_s^2 and
   y_s = Y_s / z_s^3. Step s writes the row out + 6ws:
   (lam | y_s - lam x_s | x_(s+1)) and vert[s] = 0; or, for a vertical
   line (z_(s+1) == 0: a doubling of y = 0, an addition of -R),
   (x_s | 0 | 0) and vert[s] = 1, after which R is infinity. Returns 0,
   or s + 1 when step s finds R at infinity (pairing.chord's
   CurveError), the table then unwritten. scratch holds 5 (ns + 1) Fq2
   rows: the walk's X, Y and z, the numerators and the inverses. am is
   the curve's a (NULL when 0); Fq2 is Fq[i]/(i^2 + 1) on every curve,
   so its c0 row is NULL. */
int miller_lines(uint64_t *out, unsigned char *vert, uint64_t *scratch,
                 const uint64_t *q, const unsigned char *sched, size_t ns,
                 const uint64_t *psi, const uint64_t *am,
                 const uint64_t *one, const uint64_t *N, uint64_t n0inv,
                 int w)
{
    jpt r, o;
    uint64_t tally[2] = {0}, zi2[64], x[64], y[64], lam[64], t[64];
    uint64_t zero[64] = {0}, one2[64] = {0};
    const uint64_t *c0m = NULL;
    int w2 = 2 * w;
    size_t m = ns + 1;
    uint64_t *X = scratch, *Y = X + m * w2, *Z = Y + m * w2;
    uint64_t *num = Z + m * w2, *zi = num + m * w2;
    words_copy(one2, one, w);
    words_copy(r.x, q, w2);
    words_copy(r.y, q + w2, w2);
    words_copy(r.z, one2, w2);
    for (size_t s = 0;; s++) {
        words_copy(X + s * w2, r.x, w2);
        words_copy(Y + s * w2, r.y, w2);
        words_copy(Z + s * w2, r.z, w2);
        if (s == ns) break;
        if (words_zero(r.z, w2)) return (int)s + 1;
        if (sched[s] == 0) {
            jpt_dbl(&r, &r, tally, 2, am, c0m, one, N, n0inv, w,
                    num + s * w2);
            continue;
        }
        words_copy(o.x, q, w2);
        words_copy(o.y, q + w2, w2);
        words_copy(o.z, one2, w2);
        for (int k = 1; k < sched[s]; k++) {  /* psi, once or twice */
            mod_sub_one(o.x + w, zero, o.x + w, N, w);
            mod_sub_one(o.y + w, zero, o.y + w, N, w);
            fe_mul(o.x, o.x, psi, 2, c0m, N, n0inv, w);
            fe_mul(o.y, o.y, psi + w2, 2, c0m, N, n0inv, w);
        }
        if (sched[s] == 3) fe_sub(o.y, zero, o.y, 2, N, w);
        jpt_add(&r, &r, &o, tally, 2, am, c0m, one, N, n0inv, w,
                num + s * w2);
    }
    fe_batch_inv(zi + w2, Z + w2, ns, 2, c0m, one, N, n0inv, w);
    words_copy(x, q, w2);                 /* (x, y): R_s, affine */
    words_copy(y, q + w2, w2);
    for (size_t s = 0; s < ns; s++) {
        uint64_t *row = out + s * 3 * w2;
        const uint64_t *zn = zi + (s + 1) * w2;
        if (words_zero(Z + (s + 1) * w2, w2)) {
            vert[s] = 1;
            words_copy(row, x, w2);
            words_copy(row + w2, zero, w2);
            words_copy(row + 2 * w2, zero, w2);
            continue;
        }
        vert[s] = 0;
        fe_mul(lam, num + s * w2, zn, 2, c0m, N, n0inv, w);
        fe_mul(t, lam, x, 2, c0m, N, n0inv, w);
        fe_sub(row + w2, y, t, 2, N, w);
        words_copy(row, lam, w2);
        fe_mul(zi2, zn, zn, 2, c0m, N, n0inv, w);
        fe_mul(x, X + (s + 1) * w2, zi2, 2, c0m, N, n0inv, w);
        fe_mul(t, zi2, zn, 2, c0m, N, n0inv, w);
        fe_mul(y, Y + (s + 1) * w2, t, 2, c0m, N, n0inv, w);
        words_copy(row + 2 * w2, x, w2);
    }
    return 0;
}

/* miller_replay: f = the product of nl Miller values, loop l the replay
   of its line table tab + l*ns*6w (miller_lines' rows, vertical flags
   at vert + l*ns) at its G1 point g1 + 2lw (x | y, Fq rows). Every loop
   has the engine's one step schedule, so f is squared once per doubling
   step for all of them — a multi-Miller loop, whose value is exactly the
   product of the loops'. A line's value at (xt, yt) is
   xt U1(lam) + U3(y1 - lam x1) - yt, a vertical one's xt - U2(x1),
   where U_e is untw + 2(e-1)dw, the untwist map of PairingEngine
   (2 rows of d). No loop at all leaves f = 1. */
void miller_replay(uint64_t *f, const uint64_t *tab,
                   const unsigned char *vert, const uint64_t *g1, size_t nl,
                   const unsigned char *sched, size_t ns, int d,
                   const uint64_t *fm, const uint64_t *untw,
                   const uint64_t *one, const uint64_t *N, uint64_t n0inv,
                   int w)
{
    uint64_t line[12 * 32], xa[64];
    uint64_t zero[32] = {0};
    size_t dw = (size_t)d * w;
    for (size_t k = 0; k < dw; k++) f[k] = 0;
    words_copy(f, one, w);
    for (size_t s = 0; s < ns; s++) {
        if (sched[s] == 0) ext_sqr(f, f, d, fm, N, n0inv, w);
        for (size_t l = 0; l < nl; l++) {
            const uint64_t *row = tab + (l * ns + s) * 6 * w;
            const uint64_t *xt = g1 + 2 * l * w, *yt = xt + w;
            for (size_t k = 0; k < dw; k++) line[k] = 0;
            if (vert[l * ns + s]) {
                ext_map(line, row, 2, untw + 2 * dw, d, N, n0inv, w);
                for (int c = 0; c < d; c++)
                    mod_sub_one(line + c * w, zero, line + c * w, N, w);
                mod_add_one(line, line, xt, N, w);
            } else {
                mont_mul_one(xa, row, xt, N, n0inv, w);
                mont_mul_one(xa + w, row + w, xt, N, n0inv, w);
                ext_map(line, xa, 2, untw, d, N, n0inv, w);
                ext_map(line, row + 2 * w, 2, untw + 4 * dw, d, N, n0inv, w);
                mod_sub_one(line, line, yt, N, w);
            }
            ext_mul(f, f, line, d, fm, N, n0inv, w);
        }
    }
}

/* tate_replay: MntTatePairing._replay of nl loops at once, in Fq2: f
   gets (f_num | f_den), the products of the loops' numerators and of
   their denominators, whose quotient python takes. Loop l replays its
   table tab + l*ns*6w (miller_lines' rows, vertical flags at
   vert + l*ns) at its G1 point g1 + 2lw (x | y, Fq rows); both
   accumulators are squared once per doubling step of sched for all the
   loops. A line's value at (xt, yt) is yt - lam xt - (y1 - lam x1), a
   vertical one's xt - x1; a line that is not vertical also multiplies
   f_den by its vertical correction xt - x_(s+1). No loop at all leaves
   f = (1 | 1). */
void tate_replay(uint64_t *f, const uint64_t *tab, const unsigned char *vert,
                 const uint64_t *g1, size_t nl, const unsigned char *sched,
                 size_t ns, const uint64_t *one, const uint64_t *N,
                 uint64_t n0inv, int w)
{
    uint64_t line[64], t[64];
    uint64_t zero[32] = {0};
    const uint64_t *c0m = NULL;
    int w2 = 2 * w;
    uint64_t *num = f, *den = f + w2;
    for (int k = 0; k < 2 * w2; k++) f[k] = 0;
    words_copy(num, one, w);
    words_copy(den, one, w);
    for (size_t s = 0; s < ns; s++) {
        if (sched[s] == 0) {
            fe_mul(num, num, num, 2, c0m, N, n0inv, w);
            fe_mul(den, den, den, 2, c0m, N, n0inv, w);
        }
        for (size_t l = 0; l < nl; l++) {
            const uint64_t *row = tab + (l * ns + s) * 3 * w2;
            const uint64_t *xt = g1 + 2 * l * w, *yt = xt + w;
            if (vert[l * ns + s]) {
                mod_sub_one(line, xt, row, N, w);
                mod_sub_one(line + w, zero, row + w, N, w);
            } else {
                mont_mul_one(t, row, xt, N, n0inv, w);
                mod_sub_one(line, yt, t, N, w);
                mod_sub_one(line, line, row + w2, N, w);
                mont_mul_one(t, row + w, xt, N, n0inv, w);
                mod_sub_one(line + w, zero, t, N, w);
                mod_sub_one(line + w, line + w, row + w2 + w, N, w);
                mod_sub_one(t, xt, row + 2 * w2, N, w);
                mod_sub_one(t + w, zero, row + 2 * w2 + w, N, w);
                fe_mul(den, den, t, 2, c0m, N, n0inv, w);
            }
            fe_mul(num, num, line, 2, c0m, N, n0inv, w);
        }
    }
}

/* final_exp: o = f^((q^12 - 1)/r) for f != 0, given fi = 1/f (the one
   inversion stays in python), as PairingEngine.final_exponentiate: the
   easy part m = frob6(f) fi, m = frob2(m) m, then the hard part's chain
   over the 16 products of m, m^q, m^(q^2), m^(q^3) (entry i the product
   of those whose bit is set in i), built in table (16 rows of dw words,
   the caller's scratch): chain[0] names the first entry, every later
   chain[t] squares the accumulator and multiplies entry chain[t] in
   when it is not 0. frob holds the maps k = 1, 2, 3, 6, d rows of d
   each. */
void final_exp(uint64_t *o, uint64_t *table, const uint64_t *f,
               const uint64_t *fi, const uint64_t *frob,
               const unsigned char *chain, size_t nc, int d,
               const uint64_t *fm, const uint64_t *N, uint64_t n0inv, int w)
{
    uint64_t m[12 * 32], acc[12 * 32];
    size_t dw = (size_t)d * w, map = dw * d;
    for (size_t k = 0; k < 16 * dw; k++) table[k] = 0;
    for (size_t k = 0; k < dw; k++) m[k] = acc[k] = 0;
    ext_map(m, f, d, frob + 3 * map, d, N, n0inv, w);
    ext_mul(m, m, fi, d, fm, N, n0inv, w);
    ext_map(acc, m, d, frob + map, d, N, n0inv, w);
    ext_mul(table + dw, acc, m, d, fm, N, n0inv, w);
    for (int k = 0; k < 3; k++)
        ext_map(table + ((size_t)2 << k) * dw, table + dw, d,
                frob + k * map, d, N, n0inv, w);
    for (int i = 3; i < 16; i++)
        if (i & (i - 1))
            ext_mul(table + i * dw, table + (i & (i - 1)) * dw,
                    table + (i & -i) * dw, d, fm, N, n0inv, w);
    words_copy(acc, table + chain[0] * dw, (int)dw);
    for (size_t t = 1; t < nc; t++) {
        ext_sqr(acc, acc, d, fm, N, n0inv, w);
        if (chain[t])
            ext_mul(acc, acc, table + chain[t] * dw, d, fm, N, n0inv, w);
    }
    words_copy(o, acc, (int)dw);
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


#: the point kernels, which share one ABI and serve both coordinate
#: fields: op -> (exported function, operand planes it reads)
_POINT_KERNELS = {
    "dbl": ("jac_dbl", 3),
    "add": ("jac_add", 6),
    "fold": ("bucket_fold", 3),
    "merge": ("merge", 2),
    "affine": ("to_affine", 3),
    "windows": ("windows", 3),
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
    lib.mont_pow_batch.argtypes = [ptr, ptr, size, ptr, ptr, ptr, u64, i32]
    lib.mont_pow_batch.restype = None
    lib.ntt_stockham.argtypes = [ptr, ptr, ptr, size, i32, ptr, u64, i32]
    lib.ntt_stockham.restype = None
    # point kernels: out, tally, (merge: ids; windows: idx), the
    # operand planes, n, d, the curve's constant rows a and c0, one, N,
    # n0inv, w (windows: then its window count and doublings)
    for op, (name, n_planes) in _POINT_KERNELS.items():
        fn = getattr(lib, name)
        indexed = op in ("merge", "windows")
        fn.argtypes = ([ptr] * (2 + indexed + n_planes)
                       + [size, i32] + [ptr] * 4 + [u64, i32]
                       + ([size, i32] if op == "windows" else []))
        fn.restype = None
    # the pairing's loops (see the C source for their arguments)
    lib.miller_lines.argtypes = [ptr] * 5 + [size] + [ptr] * 4 + [u64, i32]
    lib.miller_lines.restype = i32
    lib.tate_replay.argtypes = [ptr] * 4 + [size, ptr, size] + [ptr] * 2 + [
        u64, i32]
    lib.tate_replay.restype = None
    lib.miller_replay.argtypes = ([ptr] * 4 + [size, ptr, size, i32]
                                  + [ptr] * 4 + [u64, i32])
    lib.miller_replay.restype = None
    lib.final_exp.argtypes = [ptr] * 6 + [size, i32, ptr, ptr, u64, i32]
    lib.final_exp.restype = None


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
                          "kernels; numpy runs as python")
        else:
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


def window_index(idx, rows: int) -> "_np.ndarray":
    """The index matrix of a windowed sum, checked before any pointer
    crosses into C: an ``(n, windows)`` int64 numpy array (any other
    type or dtype is refused, not converted) whose every entry names
    one of the table's ``rows``. Returns it C-contiguous; raises
    ``ValueError`` on the type, dtype or shape, ``IndexError`` on an
    entry outside ``[0, rows)``."""
    if not isinstance(idx, _np.ndarray) or idx.dtype != _np.int64 \
            or idx.ndim != 2:
        raise ValueError(
            "a windowed sum takes an (n, windows) int64 index array, got "
            f"{type(idx).__name__} {getattr(idx, 'dtype', '')} "
            f"{getattr(idx, 'shape', '')}")
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise IndexError(f"a window index is outside the table's {rows} "
                         "rows")
    return _np.ascontiguousarray(idx)


class NativeField:
    """Batched Montgomery-domain arithmetic over one prime modulus.

    Curve-path arrays (:meth:`point_op`) are C-contiguous ``(n, w)``
    uint64 rows of canonical Montgomery residues, or packed ``(n, 2w)``
    Fq2 rows;
    :meth:`to_mont`/:meth:`from_mont` move rows between the raw and the
    Montgomery domain and ``encode``/``decode`` add the int boundary —
    no curve kernel calls them. The
    NTT/pointwise row ops (:meth:`ntt_rows`, :meth:`mul_raw`, and
    :meth:`mul`/:meth:`mul_const` against :meth:`mont_ladder` /
    :meth:`encode_const` operands) work on *raw* canonical rows with
    the R factors folded into cached Montgomery constants; they never
    see a python int. The int <-> raw-row boundary
    (:meth:`words_from_ints` / :meth:`ints_from_words`) is crossed by
    :class:`~repro.backend.kernel_backend.KernelBackend` alone, once on
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
        #: kernels' infinity coordinate and their field inversion's
        #: starting value
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
        one resident point, where a kernel call is not worth it)."""
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

    def pow(self, a: "_np.ndarray", exponent: int,
            out: Optional["_np.ndarray"] = None) -> "_np.ndarray":
        """Every Montgomery row of ``a`` to one power ``exponent`` in
        [0, 2^(64w)), square-and-multiply in C; ``out`` may be ``a``."""
        a = self._prep(a)
        if out is None:
            out = _np.empty_like(a)
        for rows in (a, out):
            if rows.dtype != _np.uint64 or rows.shape != (a.shape[0], self.w) \
                    or not rows.flags.c_contiguous:
                raise ValueError(f"pow takes (n, {self.w}) uint64 rows")
        e = self._row(exponent)
        self.lib.mont_pow_batch(out.ctypes.data, a.ctypes.data, a.shape[0],
                                e.ctypes.data, self.mont_one.ctypes.data,
                                self._n_words.ctypes.data, self.n0inv,
                                self.w)
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

    # -- point kernels over Montgomery rows -----------------------------------
    #
    # One caller for the lane loops, the sequential fold, the windowed
    # sum, the merge and the affine normalisation: they share one ABI
    # (see the C source).
    # Operand rows are only read; the result planes and the tally are
    # allocated here, per call (buckets are witness-derived).

    def point_op(self, op: str, degree: int, planes, a_row=None,
                 c0_row=None, ids=None, doublings=0):
        """Run one point kernel: ``op`` is ``"dbl"`` (3 operand planes
        x, y, z: every lane doubled), ``"add"`` (6 planes: lanes added
        pairwise), ``"fold"`` (3 planes: the bucket-reduction
        sum_j (j+1)*B_j as one point), ``"merge"`` (2 planes x, y of
        affine lanes whose bucket ``ids`` ascend: the point-merging
        tree), ``"affine"`` (3 planes: every lane's affine x, y, with
        one shared field inversion; a z = 0 lane comes back as (0, 0))
        or ``"windows"`` (3 planes x, y, z of a table; ``ids`` an
        ``(n, nw)`` int64 array of table rows, :func:`window_index`:
        lane k is sum_t 2^(doublings*t) * table[ids[k, t]]);
        ``degree`` 1 takes ``(n, w)`` Montgomery rows over Fp, 2 packed
        ``(n, 2w)`` rows over Fq2. ``a_row``/``c0_row`` are the
        Montgomery rows of the curve's a (packed for Fq2; ``None`` when
        a == 0) and of the Fq2 non-residue c0 (``None`` when c0 == 1,
        and always over Fp). Infinity, P == Q and P == -Q are routed in
        C per lane. Returns ``(out, n_padd, n_pdbl)``: ``out[0]``/
        ``out[1]``(/``out[2]``) are the result's x/y(/z) planes — n
        rows, or the fold's one — and the tallies are what the scalar
        formulas would have booked; for the merge ``out`` is
        ``(ids, x, y)`` of the surviving lanes, at most one per bucket,
        and the tallies are the tree schedule's.

        Every operand's shape is checked before a pointer crosses: C is
        told one lane count and one row width and reads exactly that
        much of each plane, and a table row only where an index names
        it."""
        name, n_planes = _POINT_KERNELS[op]
        if degree not in (1, 2) or (degree == 1 and c0_row is not None):
            raise ValueError("point kernels run over Fp (degree 1, no c0) "
                             "or Fq2 (degree 2)")
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
        merge, lanes = op == "merge", n
        if merge:  # the kernel compacts the survivors' ids into this copy
            ids = _np.array(ids, dtype=_np.int64)
            if ids.shape != (n,) or (ids[1:] < ids[:-1]).any():
                raise ValueError("the merge takes one ascending bucket id "
                                 "per lane")
        if op == "windows":
            ids = window_index(ids, n)
            lanes = ids.shape[0]
            if not 0 <= doublings < 1 << 16:
                raise ValueError(f"doublings must be in [0, 2^16), got "
                                 f"{doublings}")
        consts = ((a_row, width), (c0_row, self.w))
        if any(row is not None and (
                row.shape != (words,) or row.dtype != _np.uint64
                or not row.flags.c_contiguous) for row, words in consts):
            raise ValueError(
                "curve constant rows are contiguous uint64 word rows of "
                "the kernel's width")
        out = _np.empty((2 if op in ("merge", "affine") else 3,
                         1 if op == "fold" else lanes, width), dtype="<u8")
        tally = _np.zeros(3, dtype="<u8")
        getattr(self.lib, name)(
            out.ctypes.data, tally.ctypes.data,
            *([ids.ctypes.data] if op in ("merge", "windows") else []),
            *(pl.ctypes.data for pl in planes), lanes, degree,
            *(None if row is None else row.ctypes.data for row, _ in consts),
            self.mont_one.ctypes.data, self._n_words.ctypes.data,
            self.n0inv, self.w,
            *((ids.shape[1], doublings) if op == "windows" else ()))
        if merge:
            live = int(tally[2])
            if live > n:
                raise MemoryError("the merge kernel's scratch allocation "
                                  "failed")
            out = ids[:live], out[0, :live], out[1, :live]
        return out, int(tally[0]), int(tally[1])

    # -- the pairing's loops over Fq2 and Fq[w]/(f) ------------------------------
    #
    # Everything crossing is Montgomery rows, (n, w) uint64: an Fq2 value
    # is 2 rows, an element of the degree-d extension d rows, a linear
    # map (an untwist, a Frobenius) one row per (input, output)
    # coefficient pair, input-major. Fq2 is Fq[i]/(i^2 + 1) on all three
    # curves the loops serve. Every shape is checked before a pointer
    # crosses; results and scratch are allocated per call.

    def _pairing_rows(self, arr, rows: int, what: str) -> "_np.ndarray":
        if not isinstance(arr, _np.ndarray) or arr.dtype != _np.uint64 \
                or arr.shape != (rows, self.w) \
                or not arr.flags.c_contiguous:
            raise ValueError(
                f"{what} takes a contiguous ({rows}, {self.w}) uint64 "
                f"array, got {type(arr).__name__} "
                f"{getattr(arr, 'dtype', '')} {getattr(arr, 'shape', '')}")
        return arr

    @staticmethod
    def _pairing_bytes(arr, limit: int, what: str) -> "_np.ndarray":
        if not isinstance(arr, _np.ndarray) or arr.dtype != _np.uint8 \
                or arr.ndim != 1 or not arr.flags.c_contiguous \
                or (arr.size and int(arr.max()) >= limit):
            raise ValueError(f"{what} takes a contiguous 1-D uint8 array "
                             f"of entries below {limit}")
        return arr

    @staticmethod
    def _pairing_chain(chain) -> "_np.ndarray":
        chain = NativeField._pairing_bytes(chain, 16, "the hard chain")
        if not chain.size or not chain[0]:
            raise ValueError("the hard chain starts at a table entry "
                             "that is not 0")
        return chain

    @staticmethod
    def _pairing_degree(fm: "_np.ndarray") -> int:
        d = fm.shape[0] if isinstance(fm, _np.ndarray) and fm.ndim else 0
        if not 1 <= d <= 12:
            raise ValueError(f"the extension degree must be in [1, 12], "
                             f"got {d}")
        return d

    def _pairing_loops(self, tables, verts, g1, ns: int) -> int:
        """Check a replay's stacked tables, vertical flags and G1 points
        against their layout and ``ns`` steps; return the loop count."""
        w = self.w
        n = len(tables)
        if not (isinstance(tables, _np.ndarray)
                and tables.dtype == _np.uint64
                and tables.shape == (n, ns, 6 * w)
                and tables.flags.c_contiguous
                and isinstance(verts, _np.ndarray)
                and verts.dtype == _np.uint8 and verts.shape == (n, ns)
                and verts.flags.c_contiguous):
            raise ValueError("the replay takes (n, steps, 6w) uint64 line "
                             "tables and (n, steps) uint8 vertical flags "
                             "of the schedule's length")
        self._pairing_rows(g1, 2 * n, "the G1 points")
        return n

    def miller_lines(self, q, sched, psi=None, a=None):
        """The line table of the G2 point ``q`` (4 rows: x, then y) on
        y^2 = x^3 + a x + b over the step schedule ``sched`` (one uint8
        per step: 0 doubles the running point, 1 adds q, 2 psi(q),
        3 -psi^2(q); ``psi`` is the 4 rows of psi_x then psi_y, needed
        only by a schedule that names 2 or 3; ``a`` is 2 rows, ``None``
        for a = 0). Returns ``(table, vert)``: step s's line as the Fq2
        triple ``table[s] = (lam | y1 - lam x1 | x')``, x' the abscissa
        of the point the step leads to, or, where ``vert[s]`` is 1, a
        vertical line's ``(x1 | 0 | 0)``. Raises :class:`CurveError`
        naming the step at which the loop runs into the point at
        infinity."""
        w = self.w
        q = self._pairing_rows(q, 4, "a G2 point")
        if psi is not None:
            psi = self._pairing_rows(psi, 4, "psi").ctypes.data
        if a is not None:
            a = self._pairing_rows(a, 2, "the curve's a").ctypes.data
        sched = self._pairing_bytes(sched, 2 if psi is None else 4,
                                    "a step schedule")
        ns = sched.shape[0]
        table = _np.zeros((ns, 6 * w), dtype=_np.uint64)
        vert = _np.zeros(ns, dtype=_np.uint8)
        scratch = _np.empty((5 * (ns + 1), 2 * w), dtype=_np.uint64)
        failed = self.lib.miller_lines(
            table.ctypes.data, vert.ctypes.data, scratch.ctypes.data,
            q.ctypes.data, sched.ctypes.data, ns, psi, a,
            self.mont_one.ctypes.data, self._n_words.ctypes.data,
            self.n0inv, w)
        if failed:
            raise CurveError("Miller loop ran into the point at infinity "
                             f"at step {failed - 1}")
        return table, vert

    def miller_replay(self, tables, verts, g1, sched, fm, untwist):
        """The product of the Miller values of n loops, as d rows: loop
        l replays ``tables[l]``/``verts[l]`` (:meth:`miller_lines`'
        output, stacked to ``(n, steps, 6w)`` / ``(n, steps)``) at the G1
        point ``g1[2l], g1[2l + 1]`` (``(2n, w)`` rows), one shared
        squaring per doubling step of ``sched``. ``fm`` is the d rows of
        the extension's fold (w^d = sum_j fm[j] w^j), ``untwist`` the
        three untwist maps, each 2 x d rows (``(6d, w)``)."""
        w = self.w
        d = self._pairing_degree(fm)
        self._pairing_rows(fm, d, "the fold")
        self._pairing_rows(untwist, 6 * d, "the untwist maps")
        sched = self._pairing_bytes(sched, 4, "a step schedule")
        ns = sched.shape[0]
        n = self._pairing_loops(tables, verts, g1, ns)
        f = _np.empty((d, w), dtype=_np.uint64)
        self.lib.miller_replay(
            f.ctypes.data, tables.ctypes.data, verts.ctypes.data,
            g1.ctypes.data, n, sched.ctypes.data, ns, d, fm.ctypes.data,
            untwist.ctypes.data, self.mont_one.ctypes.data,
            self._n_words.ctypes.data, self.n0inv, w)
        return f

    def tate_replay(self, tables, verts, g1, sched):
        """The Tate engine's multi-loop replay in Fq2: 4 rows, the
        numerator then the denominator of the product of n Miller
        values, loop l replaying ``tables[l]``/``verts[l]``
        (:meth:`miller_lines`' output, stacked as for
        :meth:`miller_replay`) at the G1 point ``g1[2l], g1[2l + 1]``,
        one shared squaring of each per doubling step of ``sched``
        (0 doubles, 1 adds)."""
        w = self.w
        sched = self._pairing_bytes(sched, 2, "a Tate step schedule")
        ns = sched.shape[0]
        n = self._pairing_loops(tables, verts, g1, ns)
        f = _np.empty((4, w), dtype=_np.uint64)
        self.lib.tate_replay(
            f.ctypes.data, tables.ctypes.data, verts.ctypes.data,
            g1.ctypes.data, n, sched.ctypes.data, ns,
            self.mont_one.ctypes.data, self._n_words.ctypes.data,
            self.n0inv, w)
        return f

    def final_exp(self, f, f_inv, frobenius, chain, fm):
        """f^((q^12 - 1)/r) as d rows, given f != 0 and its inverse:
        the easy part over the q^6- and q^2-Frobenius, then the hard
        part's ``chain`` (uint8 indices into the 16 products of m, m^q,
        m^(q^2), m^(q^3); the first one not 0). ``frobenius`` stacks
        the maps k = 1, 2, 3, 6, d x d rows each (``(4d^2, w)``)."""
        w = self.w
        d = self._pairing_degree(fm)
        self._pairing_rows(fm, d, "the fold")
        self._pairing_rows(f, d, "f")
        self._pairing_rows(f_inv, d, "1/f")
        self._pairing_rows(frobenius, 4 * d * d, "the Frobenius maps")
        chain = self._pairing_chain(chain)
        out = _np.empty((d, w), dtype=_np.uint64)
        table = _np.empty((16 * d, w), dtype=_np.uint64)
        self.lib.final_exp(
            out.ctypes.data, table.ctypes.data, f.ctypes.data,
            f_inv.ctypes.data, frobenius.ctypes.data, chain.ctypes.data,
            chain.shape[0], d, fm.ctypes.data, self._n_words.ctypes.data,
            self.n0inv, w)
        return out

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

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<NativeField w={self.w} p~2^{self.p.bit_length()}>"
