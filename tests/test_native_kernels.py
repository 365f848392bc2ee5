"""Native kernel loader + NTT/vmul kernel tests.

Kernel parity is asserted at both levels that exist since the
``*_ints`` shims went away: the row-level ``NativeField`` ops
(``ntt_rows`` / ``mul_raw`` / ``mul`` x ``mont_ladder`` / ``mul_const``
over ``words_from_ints`` rows) and the ``numpy`` backend's int-in /
int-out ops that wrap them.

The loader scenarios (corrupt cached artifact, compile failure, the
two-process first-compile race, a default cache directory someone else
can write) run in subprocesses with a private ``REPRO_NATIVE_CACHE``
or ``TMPDIR``: the parent test process keeps its own loaded
library untouched, and — crucially — no test ever truncates a ``.so``
that is dlopen'd in its own process (that is a SIGBUS, not a test).
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import get_backend, native
from repro.ff.params import BASE_FIELDS, SCALAR_FIELDS
from repro.ff.primefield import PrimeField
from repro.ntt.reference import intt, ntt

pytestmark = pytest.mark.skipif(
    not native.native_available(), reason="no C compiler available")

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

CURVE_NAMES = sorted(SCALAR_FIELDS)


def _run_py(code: str, env_extra: dict, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=300, env=env, cwd=cwd,
    )


# -- loader regressions (subprocess, private cache) ----------------------------


def test_corrupt_cached_so_self_heals(tmp_path):
    """A corrupt persistent-cache artifact present *before* first load
    must cost one recompile, never disable native for the process."""
    cdir = tmp_path / native._source_digest()
    cdir.mkdir(parents=True)
    (cdir / "kernels.so").write_bytes(b"this is not an ELF object\n")
    code = """
import json
from repro.backend import native
ok = native.native_available()
print(json.dumps({"ok": ok, "events": [e["kind"] for e in native.kernel_events()]}))
"""
    proc = _run_py(code, {"REPRO_NATIVE_CACHE": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr
    import json

    out = json.loads(proc.stdout)
    assert out["ok"] is True
    assert "native-kernel-cache-corrupt" in out["events"]
    assert "native-kernel-compile" in out["events"]
    # the healed artifact is a real shared object now
    assert (cdir / "kernels.so").stat().st_size > 1000


def test_compile_failure_is_reported_not_silent(tmp_path):
    """A failing compiler yields a one-time warning + telemetry event
    carrying the compiler stderr, and leaves no temp litter behind."""
    bindir = tmp_path / "bin"
    bindir.mkdir()
    for name in ("cc", "gcc", "clang"):
        fake = bindir / name
        fake.write_text("#!/bin/sh\necho 'doom: bad flag' >&2\nexit 1\n")
        fake.chmod(0o755)
    cache = tmp_path / "cache"
    code = """
import json, warnings
from repro.backend import native
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    ok = native.native_available()
evs = native.kernel_events()
fail = [e for e in evs if e["kind"] == "native-kernel-compile-failed"]
print(json.dumps({
    "ok": ok,
    "stderr": fail[0].get("stderr", "") if fail else "",
    "warned": any("compile failed" in str(w.message) for w in caught),
}))
"""
    proc = _run_py(code, {
        "REPRO_NATIVE_CACHE": str(cache),
        "PATH": f"{bindir}:{os.environ.get('PATH', '')}",
    })
    assert proc.returncode == 0, proc.stderr
    import json

    out = json.loads(proc.stdout)
    assert out["ok"] is False
    assert "doom: bad flag" in out["stderr"]
    assert out["warned"] is True
    cdir = cache / native._source_digest()
    leftovers = [p for p in os.listdir(cdir)
                 if p.startswith(".kernels-")] if cdir.is_dir() else []
    assert leftovers == []


def test_two_process_first_compile_race(tmp_path):
    """Two fresh processes racing the first compile against one shared
    cache directory must both end up with working kernels and a single
    complete published artifact."""
    code = """
import json
from repro.backend import native
from repro.ff.params import SCALAR_FIELDS
p = SCALAR_FIELDS["ALT-BN128"].modulus
f = native.get_native_field(p)
xs = [(i * 7919 + 13) % p for i in range(64)]
ys = [(i * 104729 + 3) % p for i in range(64)]
out = f.ints_from_words(f.mul_raw(f.words_from_ints(xs),
                                  f.words_from_ints(ys)))
assert out == [(x * y) % p for x, y in zip(xs, ys)]
print(json.dumps({"ok": True,
                  "events": [e["kind"] for e in native.kernel_events()]}))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env["REPRO_NATIVE_CACHE"] = str(tmp_path)
    procs = [subprocess.Popen([sys.executable, "-c", code],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env)
             for _ in range(2)]
    results = [p.communicate(timeout=300) for p in procs]
    import json

    for proc, (out, err) in zip(procs, results):
        assert proc.returncode == 0, err
        assert json.loads(out)["ok"] is True
    sopath = tmp_path / native._source_digest() / "kernels.so"
    assert sopath.stat().st_size > 1000


def test_env_flip_resets_loader_in_process(monkeypatch):
    """Toggling REPRO_NATIVE in-process must be honoured on the next
    lookup (the service's per-worker env overrides rely on this)."""
    assert native.native_available()
    monkeypatch.setenv(native.NATIVE_ENV_VAR, "0")
    native.drain_kernel_events()
    assert not native.native_available()
    assert any(e["kind"] == "native-kernel-disabled"
               for e in native.kernel_events())
    monkeypatch.delenv(native.NATIVE_ENV_VAR)
    assert native.native_available()


def test_reset_native_clears_state():
    native.reset_native()
    assert native._LIB is None and not native._LOAD_ATTEMPTED
    assert native.native_available()
    p = SCALAR_FIELDS["ALT-BN128"].modulus
    assert native.get_native_field(p) is not None


@pytest.mark.parametrize("family", ["Fr", "Fq"])
@pytest.mark.parametrize("curve", CURVE_NAMES)
def test_montgomery_constants_satisfy_their_definitions(curve, family):
    fields = SCALAR_FIELDS if family == "Fr" else BASE_FIELDS
    p = fields[curve].modulus
    f = native.get_native_field(p)
    assert f.w == (p.bit_length() + 63) // 64
    assert f.r == (1 << (64 * f.w)) % p
    assert f.r * f._rinv % p == 1
    assert f._r2 == f.r * f.r % p
    assert (f.n0inv * p + 1) % (1 << 64) == 0 and 0 < f.n0inv < 1 << 64


def test_fresh_cache_holds_exactly_the_two_kernel_files(tmp_path):
    """``$REPRO_NATIVE_CACHE`` holds one kind of artefact: after every
    modulus has its field, the tree is the digest-keyed source and
    shared object and nothing else."""
    code = """
from repro.backend import native
from repro.ff.params import BASE_FIELDS, SCALAR_FIELDS
for fields in (SCALAR_FIELDS, BASE_FIELDS):
    for params in fields.values():
        assert native.get_native_field(params.modulus) is not None
"""
    proc = _run_py(code, {"REPRO_NATIVE_CACHE": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr
    tree = sorted(os.path.relpath(os.path.join(root, name), tmp_path)
                  for root, _dirs, files in os.walk(tmp_path)
                  for name in files)
    digest = native._source_digest()
    assert tree == [f"{digest}/kernels.c", f"{digest}/kernels.so"]


def test_untrusted_default_cache_dir_is_not_loaded(tmp_path):
    """With ``REPRO_NATIVE_CACHE`` unset or empty the cache sits under a
    guessable name in the shared temp dir. A pre-made directory there
    that others can write is never compiled into or ``dlopen``-ed
    from: the planted ``kernels.so`` stays as it was, the kernels come
    from a process-private directory, and the event says so."""
    base = tmp_path / f"repro-native-{os.getuid()}"
    planted = base / native._source_digest() / "kernels.so"
    planted.parent.mkdir(parents=True)
    planted.write_bytes(b"planted by someone else\n")
    base.chmod(0o777)
    code = """
import json, os, warnings
from repro.backend import native
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    ok = native.native_available()
    base = native.cache_base_dir()
print(json.dumps({
    "ok": ok, "base": base, "mode": os.stat(base).st_mode & 0o777,
    "events": [e["kind"] for e in native.kernel_events()],
    "warned": [str(w.message) for w in caught],
}))
"""
    proc = _run_py(code, {"TMPDIR": str(tmp_path), "REPRO_NATIVE_CACHE": ""})
    assert proc.returncode == 0, proc.stderr
    import json

    out = json.loads(proc.stdout)
    assert out["ok"] is True
    assert out["events"].count("native-kernel-cache-untrusted") == 1
    assert "native-kernel-compile" in out["events"]
    assert "native-kernel-cache-corrupt" not in out["events"]
    assert len(out["warned"]) == 1 and str(base) in out["warned"][0]
    assert planted.read_bytes() == b"planted by someone else\n"
    assert sorted(os.listdir(planted.parent)) == ["kernels.so"]
    # the stand-in is this process' own, private, and gone with it
    assert out["base"] != str(base) and out["mode"] == 0o700
    assert os.path.dirname(out["base"]) == str(tmp_path)
    assert not os.path.exists(out["base"])


def test_forked_child_leaves_the_private_cache_dir(tmp_path):
    """The process-private stand-in for an untrusted default cache dir
    is removed at exit by the process that made it, not by a bare
    ``os.fork`` child leaving through ``sys.exit`` (a forked service
    worker would otherwise delete its parent's loaded kernels)."""
    base = tmp_path / f"repro-native-{os.getuid()}"
    base.mkdir()
    base.chmod(0o777)
    code = """
import json, os, sys, warnings
from repro.backend import native
warnings.simplefilter("ignore")
assert native.native_available()
so = os.path.join(native.cache_base_dir(), native._source_digest(),
                  "kernels.so")
pid = os.fork()
if pid == 0:
    sys.exit(0)
_, status = os.waitpid(pid, 0)
print(json.dumps({"status": status, "so": so, "alive": os.path.exists(so)}))
"""
    proc = _run_py(code, {"TMPDIR": str(tmp_path), "REPRO_NATIVE_CACHE": ""})
    assert proc.returncode == 0, proc.stderr
    import json

    out = json.loads(proc.stdout)
    assert out["status"] == 0 and out["alive"] is True
    # ... and the owner still cleans up after itself
    assert not os.path.exists(os.path.dirname(os.path.dirname(out["so"])))


def test_compile_flags_are_part_of_the_cache_key(tmp_path, monkeypatch):
    """A flag-only change must compile into a new digest directory,
    never ``dlopen`` the object built under the old flags."""
    seen = []

    def fake_compile(cdir, sopath):
        seen.append(os.path.relpath(cdir, tmp_path))
        return False  # nothing is built: the loader gives up cleanly

    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.setattr(native, "_compile", fake_compile)
    assert native._compile_and_load() is None
    monkeypatch.setattr(native, "_CFLAGS", (*native._CFLAGS, "-DFLAG_PROBE"))
    assert native._compile_and_load() is None
    assert seen[0] != seen[1] == native._source_digest()


def test_compile_command_is_the_flag_constant(tmp_path, monkeypatch):
    calls = []

    def fake_run(cmd, **_kwargs):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 1, b"", b"probe")

    monkeypatch.setattr(native.subprocess, "run", fake_run)
    monkeypatch.setattr(native, "_WARNED", True)  # keep the warning quiet
    monkeypatch.setattr(native, "_EVENTS", [])  # and the event log clean
    assert not native._compile(str(tmp_path / "d"), str(tmp_path / "d.so"))
    assert calls[0][1:-3] == list(native._CFLAGS)
    assert "-march=native" not in native._CFLAGS


def test_default_cache_dir_is_created_private(tmp_path):
    """The trusted case: an absent default directory is created
    ``0o700`` and used, with no untrusted event."""
    code = """
import json
from repro.backend import native
ok = native.native_available()
print(json.dumps({"ok": ok, "base": native.cache_base_dir(),
                  "events": [e["kind"] for e in native.kernel_events()]}))
"""
    proc = _run_py(code, {"TMPDIR": str(tmp_path), "REPRO_NATIVE_CACHE": ""})
    assert proc.returncode == 0, proc.stderr
    import json

    out = json.loads(proc.stdout)
    base = tmp_path / f"repro-native-{os.getuid()}"
    assert out["ok"] is True and out["base"] == str(base)
    assert "native-kernel-cache-untrusted" not in out["events"]
    assert base.stat().st_mode & 0o777 == 0o700
    assert (base / native._source_digest() / "kernels.so").exists()


# -- kernel correctness --------------------------------------------------------


@pytest.mark.parametrize("curve", CURVE_NAMES)
@pytest.mark.parametrize("n", [2, 8, 64, 256])
def test_ntt_matches_reference(curve, n):
    field = PrimeField(SCALAR_FIELDS[curve].modulus)
    nf = native.get_native_field(field.modulus)
    assert nf is not None
    p = field.modulus
    vals = [(i * 2654435761 + 17) % p for i in range(n)]
    omega = field.root_of_unity(n)
    rows = nf.words_from_ints(vals)
    got = nf.ints_from_words(nf.ntt_rows(field, rows, omega))
    want = ntt(field, vals, backend="python")
    assert got == want
    # the sweep ran on a copy: the operand rows still hold the input
    assert nf.ints_from_words(rows) == vals
    assert get_backend("numpy").ntt(field, vals) == want


@pytest.mark.parametrize("curve", CURVE_NAMES)
def test_ntt_roundtrip_through_reference_intt(curve):
    field = PrimeField(SCALAR_FIELDS[curve].modulus)
    nf = native.get_native_field(field.modulus)
    p = field.modulus
    vals = [(i * i + 5) % p for i in range(128)]
    fwd = nf.ints_from_words(nf.ntt_rows(field, nf.words_from_ints(vals),
                                         field.root_of_unity(128)))
    assert intt(field, fwd, backend="python") == vals


@pytest.mark.parametrize("curve", CURVE_NAMES)
def test_pointwise_kernels(curve):
    field = PrimeField(SCALAR_FIELDS[curve].modulus)
    p = field.modulus
    nf = native.get_native_field(p)
    be = get_backend("numpy")
    xs = [(i * 7 + 1) % p for i in range(33)]
    ys = [(p - 1 - i * 3) % p for i in range(33)]
    a, b = nf.words_from_ints(xs), nf.words_from_ints(ys)
    want = [(x * y) % p for x, y in zip(xs, ys)]
    assert nf.ints_from_words(nf.mul_raw(a, b)) == want
    assert be.vmul(field, xs, ys) == want
    g = 22222222222
    want = [(x * pow(g, i, p)) % p for i, x in enumerate(xs)]
    assert nf.ints_from_words(nf.mul(a, nf.mont_ladder(g, 33))) == want
    assert be.vmul_powers(field, xs, g) == want
    k = p - 12345
    want = [(x * k) % p for x in xs]
    assert nf.ints_from_words(nf.mul_const(a, nf.encode_const(k))) == want
    assert be.vscale(field, xs, k) == want
    # no row op wrote into its operands
    assert nf.ints_from_words(a) == xs and nf.ints_from_words(b) == ys


def test_pairwise_row_ops_reject_mismatched_row_counts():
    """C is told the first operand's row count; a shorter second
    operand used to be read past its end."""
    nf = native.get_native_field(SCALAR_FIELDS["ALT-BN128"].modulus)
    a = nf.words_from_ints(list(range(1, 9)))
    b = nf.words_from_ints([3, 5])
    for op in (nf.mul, nf.sub, nf.add, nf.mul_raw):
        with pytest.raises(ValueError):
            op(a, b)
    # The point kernels' one caller tells C one lane count and one row
    # width; every plane must have exactly that shape. (The per-kernel
    # wrappers it replaced took 40 lanes from the first operand and
    # read 37 rows past a 3-row second one.)
    x = nf.encode(list(range(1, 41)))
    for op, degree, planes in (
            ("add", 1, (x, x, x, x[:3], x[:3], x[:3])),  # shorter operand
            ("add", 1, (x, x, x, x, x, x[:1])),          # 1-row plane
            ("dbl", 1, (x, x, x[:, :2])),                # narrower rows
            ("dbl", 2, (x, x, x)),                       # Fp rows at degree 2
            ("fold", 1, (x, x)),                         # a plane short
            ("dbl", 1, (x, x, x.astype("<u4")))):        # not 64-bit words
        with pytest.raises(ValueError):
            nf.point_op(op, degree, planes)
    for a_row in (x[0, :2], x[:nf.w, 0]):  # too narrow; strided
        with pytest.raises(ValueError):
            nf.point_op("dbl", 1, (x, x, x), a_row=a_row)
    # one body serves d = 1 and 2 on [64]-word scratch; Fp has no c0
    for degree, c0_row in ((1, x[0]), (3, None), (0, None)):
        with pytest.raises(ValueError):
            nf.point_op("dbl", degree, (x, x, x), c0_row=c0_row)
    out, n_padd, n_pdbl = nf.point_op("add", 1, (x, x, x, x, x, x))
    assert out.shape == (3, 40, nf.w) and (n_padd, n_pdbl) == (40, 40)


def test_no_dead_kernels():
    """Every exported C function is bound with ``argtypes`` and called
    from a ``NativeField`` method, and every ``static`` one is used by
    another function — a kernel nothing can reach is deleted, not
    kept."""
    import inspect
    import re

    code = re.sub(r"/\*.*?\*/", "", native._C_SOURCE, flags=re.S)
    defs = re.findall(
        r"^(static\s+(?:inline\s+)?"
        r"(?:__attribute__\(\((?:always_inline|noinline)\)\)\s+)?)?"
        r"(?:void|int)\s+(\w+)\(", code, flags=re.M)
    exported = {name for static, name in defs if not static}
    helpers = {name for static, name in defs if static}
    assert exported and helpers and len(defs) == len(exported | helpers)
    # one body per point formula serves G1 and G2 alike
    assert exported == {
        "mont_mul_batch", "mont_mul_const_batch", "mod_sub_batch",
        "mod_add_batch", "mont_powers", "mont_pow_batch", "ntt_stockham",
        "jac_dbl",
        "jac_add", "bucket_fold", "merge", "to_affine", "windows",
        "miller_lines", "miller_replay", "tate_replay", "final_exp"}
    lib = native._get_lib()
    for name in exported:
        assert getattr(lib, name).argtypes, f"{name} bound without argtypes"
    called = set(re.findall(r"\blib\.(\w+)",
                            inspect.getsource(native.NativeField)))
    via_point_op = {name for name, _ in native._POINT_KERNELS.values()}
    assert "_POINT_KERNELS" in inspect.getsource(native.NativeField.point_op)
    assert called | via_point_op == exported
    for name in helpers:
        uses = len(re.findall(rf"\b{name}\(", code))
        assert uses >= 2, f"static {name} is never called"


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_encode_decode_roundtrip_property(data):
    """Montgomery encode/decode round-trips for arbitrary residues on
    all three scalar moduli — including the boundary values 0, 1, p-1."""
    for curve in CURVE_NAMES:
        p = SCALAR_FIELDS[curve].modulus
        nf = native.get_native_field(p)
        vals = data.draw(st.lists(
            st.one_of(st.sampled_from([0, 1, p - 1]),
                      st.integers(min_value=0, max_value=p - 1)),
            min_size=1, max_size=16))
        arr = nf.encode(vals)
        assert nf.decode(arr) == vals


#: one modulus per instantiated width of the primitives (4 and 6 words)
#: plus the generic body at 12 words and at a width nothing names (the
#: 9-word Mersenne prime 2^521 - 1)
WIDTH_MODULI = {4: BASE_FIELDS["ALT-BN128"].modulus,
                6: BASE_FIELDS["BLS12-381"].modulus,
                12: BASE_FIELDS["MNT4753"].modulus,
                9: (1 << 521) - 1}


def _boundary_operands(p: int, w: int):
    """0, 1, p - 1, R mod p, and pairs that sit on each primitive's
    conditional correction: a + b == p exactly (the add's pre-subtract
    is p), a == b (the sub's zero), and a product whose CIOS
    pre-subtract is p + 1, the nearest value to p it can take (p itself
    would need a * b == 0 mod p)."""
    R = 1 << (64 * w)
    singles = [0, 1, p - 1, R % p]
    pairs = [(1, p - 1), (p - 1, 1), (p // 2, p - p // 2), (R % p, p - R % p),
             (p - 1, p - 1), (R % p, R % p)]
    pinv = pow(p, -1, R)
    for a in range(2, 400):  # b = R / a: the product's canonical value is 1
        b = R * pow(a, -1, p) % p
        t = (a * b + (-a * b * pinv % R) * p) // R
        if t == p + 1:
            pairs.append((a, b))
            break
    return singles, pairs


@pytest.mark.parametrize("w", sorted(WIDTH_MODULI))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_primitives_match_python_ints_on_every_width(w, data):
    """``NativeField.mul``/``add``/``sub`` (the CIOS product, the
    canonical add and sub under every kernel) against python ints on
    each width the primitives are instantiated for and on the generic
    body, boundary operands included."""
    p = WIDTH_MODULI[w]
    nf = native.get_native_field(p)
    assert nf.w == w
    singles, pairs = _boundary_operands(p, w)
    value = st.one_of(st.sampled_from(singles), st.integers(0, p - 1))
    drawn = data.draw(st.lists(st.tuples(value, value), max_size=12))
    xs, ys = zip(*(pairs + [(a, b) for a in singles for b in singles]
                   + drawn))
    a, b = nf.words_from_ints(xs), nf.words_from_ints(ys)
    rinv = pow(1 << (64 * w), -1, p)
    assert nf.ints_from_words(nf.mul(a, b)) == [
        x * y * rinv % p for x, y in zip(xs, ys)]
    assert nf.ints_from_words(nf.add(a, b)) == [
        (x + y) % p for x, y in zip(xs, ys)]
    assert nf.ints_from_words(nf.sub(a, b)) == [
        (x - y) % p for x, y in zip(xs, ys)]


@pytest.mark.parametrize("w", sorted(WIDTH_MODULI))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_pow_matches_python_pow_on_every_width(w, data):
    """``NativeField.pow`` (``mont_pow_batch`` over ``fp_pow``, the body
    the inversion calls too) against python's ``pow`` on each width:
    exponents 0, 1, p - 2, (p + 1) / 4 and drawn ones up to the widest
    the w words hold, bases 0, 1, p - 1 and drawn ones, and the result
    written over its input. An exponent the words cannot hold, and an
    ``out`` that is not (n, w) C-contiguous uint64 rows, are refused
    before the call."""
    p = WIDTH_MODULI[w]
    nf = native.get_native_field(p)
    assert nf.w == w
    bases = [0, 1, p - 1] + data.draw(st.lists(st.integers(0, p - 1),
                                               max_size=4))
    exponents = [0, 1, p - 2, (p + 1) // 4,
                 data.draw(st.integers(0, p - 1)),
                 data.draw(st.integers(0, (1 << (64 * w)) - 1))]
    rows = nf.encode(bases)
    for e in exponents:
        assert nf.decode(nf.pow(rows, e)) == [pow(x, e, p) for x in bases]
    e = exponents[-1]
    assert nf.pow(rows, e, out=rows) is rows
    assert nf.decode(rows) == [pow(x, e, p) for x in bases]
    for bad in (-1, 1 << (64 * w)):
        with pytest.raises(OverflowError):
            nf.pow(rows, bad)
    for bad_out in (rows[:-1].copy(), rows.astype(np.int64),
                    np.empty_like(rows, order="F")):
        with pytest.raises(ValueError):
            nf.pow(rows, 1, out=bad_out)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_vmul_property(data):
    for curve in CURVE_NAMES:
        field = PrimeField(SCALAR_FIELDS[curve].modulus)
        p = field.modulus
        n = data.draw(st.integers(min_value=1, max_value=12))
        xs = data.draw(st.lists(st.integers(0, p - 1),
                                min_size=n, max_size=n))
        ys = data.draw(st.lists(st.integers(0, p - 1),
                                min_size=n, max_size=n))
        assert get_backend("numpy").vmul(field, xs, ys) == \
            [(x * y) % p for x, y in zip(xs, ys)]


def test_drain_kernel_events_clears():
    native.kernel_events()  # may be non-empty
    native.drain_kernel_events()
    assert native.kernel_events() == []
