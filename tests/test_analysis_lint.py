"""Repo lint rules R001–R005, R010 and R011: one failing fixture per
rule, the suppression syntax, repo cleanliness at HEAD, and CLI exit
codes."""

from pathlib import Path
from typing import List

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.analysis.lint import all_rules, module_name_for, run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent

R001_SRC = """\
def reduce_all(values, field):
    return [v % field.modulus for v in values]


def exp(base, e, field):
    return pow(base, e, field.modulus)
"""

R002_SRC = """\
def run(task, group, stats):
    group.counter = task.counter
    stats.counter.merge(task.counter)


def dispatch(pool, task, group, stats):
    return pool.submit(run, task, group, stats)
"""

R003_SRC = """\
def bad(telemetry):
    sp = telemetry.span("phase")
    sp._start()
    try:
        return 1
    finally:
        sp._stop()
"""

R004_SRC = """\
import time


def kernel(values):
    t0 = time.perf_counter()
    return values, time.perf_counter() - t0
"""

R005_SRC = """\
from repro.backend.base import ComputeBackend


class BrokenBackend(ComputeBackend):
    def vadd(self, field, wrong, ys):
        return [field.add(x, y) for x, y in zip(wrong, ys)]
"""

R011_SRC = """\
def ntt(field, values, counter=None):
    return values


class Engine:
    def compute(self, values, *, counter):
        return values


BOOK = lambda counter, op: counter.count(op)
"""

#: rule -> (relative fixture path, source, expected finding count)
FIXTURES = {
    "R001": ("repro/msm/helper.py", R001_SRC, 2),
    "R002": ("repro/snark/dispatch.py", R002_SRC, 2),
    "R003": ("repro/service/spans.py", R003_SRC, 3),
    "R004": ("repro/ntt/clocked.py", R004_SRC, 2),
    "R005": ("repro/backend/broken.py", R005_SRC, 2),
    "R011": ("repro/ntt/counted.py", R011_SRC, 3),
}


def _write(tmp_path: Path, rel: str, src: str) -> Path:
    f = tmp_path / rel
    f.parent.mkdir(parents=True, exist_ok=True)
    f.write_text(src)
    return f


def test_rule_registry_is_complete():
    assert [r.code for r in all_rules()] == [
        "R001", "R002", "R003", "R004", "R005", "R010", "R011"]


def test_module_name_for():
    assert module_name_for(Path("src/repro/msm/gzkp.py")) == "repro.msm.gzkp"
    assert module_name_for(Path("src/repro/ff/__init__.py")) == "repro.ff"
    assert module_name_for(Path("tests/test_x.py")) == "test_x"


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_each_rule_fires_on_its_fixture(tmp_path, code):
    rel, src, expected = FIXTURES[code]
    f = _write(tmp_path, rel, src)
    findings = run_lint([str(f)])
    assert [fi.code for fi in findings] == [code] * expected
    assert all(fi.path == str(f) and fi.line > 0 for fi in findings)


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_cli_exits_nonzero_on_each_rule_fixture(tmp_path, code, capsys):
    rel, src, _ = FIXTURES[code]
    f = _write(tmp_path, rel, src)
    assert analysis_main([str(f), "--no-bounds"]) == 1
    assert code in capsys.readouterr().out


def test_suppression_same_line(tmp_path):
    src = ("def f(v, field):\n"
           "    return v % field.modulus  # repro: allow[R001]\n")
    f = _write(tmp_path, "repro/msm/ok.py", src)
    assert run_lint([str(f)]) == []


def test_suppression_preceding_line_and_lists(tmp_path):
    src = ("def f(v, field):\n"
           "    # repro: allow[R001, R004]\n"
           "    return v % field.modulus\n")
    f = _write(tmp_path, "repro/msm/ok2.py", src)
    assert run_lint([str(f)]) == []


def test_suppression_is_per_rule(tmp_path):
    src = ("def f(v, field):\n"
           "    return v % field.modulus  # repro: allow[R004]\n")
    f = _write(tmp_path, "repro/msm/wrong_code.py", src)
    assert [fi.code for fi in run_lint([str(f)])] == ["R001"]


def test_r001_exempt_inside_ff_and_backend(tmp_path):
    for rel in ("repro/ff/inner.py", "repro/backend/inner.py"):
        f = _write(tmp_path, rel, R001_SRC)
        assert run_lint([str(f)]) == []


def test_r002_quiet_under_lock(tmp_path):
    src = """\
def run(task, group, stats):
    with group.lock:
        group.counter = task.counter


def dispatch(pool, task, group, stats):
    return pool.submit(run, task, group, stats)
"""
    f = _write(tmp_path, "repro/snark/locked.py", src)
    assert run_lint([str(f)]) == []


def test_r003_quiet_with_context_manager(tmp_path):
    src = """\
def good(telemetry):
    with telemetry.span("phase"):
        return 1
"""
    f = _write(tmp_path, "repro/service/ok_spans.py", src)
    assert run_lint([str(f)]) == []


def test_r004_quiet_outside_kernel_modules(tmp_path):
    f = _write(tmp_path, "repro/service/timed.py", R004_SRC)
    assert run_lint([str(f)]) == []


def test_r005_quiet_on_conforming_backend(tmp_path):
    src = """\
from repro.backend.base import ComputeBackend


class FineBackend(ComputeBackend):
    name = "fine"

    def vadd(self, field, xs, ys, chunk=None):
        return [field.add(x, y) for x, y in zip(xs, ys)]
"""
    f = _write(tmp_path, "repro/backend/fine.py", src)
    assert run_lint([str(f)]) == []


def test_r011_quiet_on_the_scope_and_outside_the_package(tmp_path):
    scope = _write(tmp_path, "repro/ff/opcount.py",
                   "def counting(counter=None, phase=None):\n"
                   "    return counter\n")
    bench = _write(tmp_path, "benchmarks/ledger/stations.py", R011_SRC)
    test = _write(tmp_path, "tests/test_counted.py", R011_SRC)
    other = _write(tmp_path, "repro/msm/named.py",
                   "def compute(values, counters=None, op_counter=None):\n"
                   "    return values\n")
    assert run_lint([str(scope), str(bench), str(test), str(other)]) == []


def test_r011_counting_is_exempt_only_in_opcount(tmp_path):
    f = _write(tmp_path, "repro/msm/common.py",
               "def counting(group, counter, phase=None):\n"
               "    return group\n")
    assert [(fi.code, fi.line) for fi in run_lint([str(f)])] == [
        ("R011", 1)]


def test_r011_allow_comment_on_the_signature_suppresses(tmp_path):
    src = ("def verify(proof, public_inputs,\n"
           "           # repro: allow[R011] the perf ledger passes it\n"
           "           counter=None):\n"
           "    return True\n")
    f = _write(tmp_path, "repro/snark/ledger_api.py", src)
    assert run_lint([str(f)]) == []


def _r010_tree(tmp_path: Path) -> List[str]:
    """A src/ package whose one module only a test imports, through the
    package's re-export; returns the paths to lint."""
    _write(tmp_path, "src/repro/pkg/__init__.py",
           "from repro.pkg.model import Model\n")
    _write(tmp_path, "src/repro/pkg/model.py",
           '"""A model."""\n\n\nclass Model:\n    pass\n')
    _write(tmp_path, "tests/test_model.py", "from repro.pkg import Model\n")
    return [str(tmp_path / d) for d in ("src", "tests", "benchmarks")]


def test_r010_flags_a_module_only_tests_import(tmp_path):
    findings = run_lint(_r010_tree(tmp_path))
    assert [(f.code, Path(f.path).name, f.line) for f in findings] == [
        ("R010", "model.py", 1)]
    assert "repro.pkg.model" in findings[0].message


def test_r010_quiet_when_a_benchmark_imports_it(tmp_path):
    paths = _r010_tree(tmp_path)
    _write(tmp_path, "benchmarks/bench_model.py",
           "from repro.pkg import Model\n\nMODEL = Model()\n")
    assert run_lint(paths) == []


def test_r010_quiet_when_the_package_init_uses_the_name(tmp_path):
    paths = _r010_tree(tmp_path)
    _write(tmp_path, "src/repro/pkg/__init__.py",
           "from repro.pkg.model import Model\n\nREGISTRY = {'m': Model}\n")
    assert run_lint(paths) == []


def test_r010_follows_a_lazy_getattr_map(tmp_path):
    paths = _r010_tree(tmp_path)
    _write(tmp_path, "src/repro/pkg/__init__.py",
           "_LAZY = {'Model': 'repro.pkg.model'}\n")
    _write(tmp_path, "benchmarks/bench_model.py",
           "from repro.pkg import Model\n")
    assert run_lint(paths) == []


def test_r010_allow_comment_suppresses(tmp_path):
    paths = _r010_tree(tmp_path)
    model = tmp_path / "src/repro/pkg/model.py"
    model.write_text("# repro: allow[R010] the tests' reference model\n"
                     + model.read_text())
    assert run_lint(paths) == []


def test_unparseable_file_is_reported(tmp_path):
    f = _write(tmp_path, "repro/msm/syntax_err.py", "def f(:\n")
    findings = run_lint([str(f)])
    assert [fi.code for fi in findings] == ["R000"]


def test_repo_is_clean_at_head():
    paths = [str(REPO_ROOT / d)
             for d in ("src", "tests", "benchmarks", "examples")
             if (REPO_ROOT / d).exists()]
    findings = run_lint(paths)
    assert findings == [], [f.render() for f in findings]


def test_cli_exits_zero_on_clean_tree(tmp_path, capsys):
    f = _write(tmp_path, "repro/service/clean.py", "X = 1\n")
    assert analysis_main([str(f), "--no-bounds"]) == 0
    capsys.readouterr()


def test_cli_bounds_only_passes_and_writes_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert analysis_main(["--no-lint", str(tmp_path / "nothing"),
                          "--json", str(out)]) == 0
    capsys.readouterr()
    import json

    data = json.loads(out.read_text())
    assert data["ok"] is True
    assert len(data["certificates"]) == 12


def test_cli_fails_on_bound_violation(tmp_path, monkeypatch, capsys):
    from repro.analysis import __main__ as cli
    from repro.analysis.bounds import certify_native_mont

    even = certify_native_mont("even", (1 << 64) - 2)
    monkeypatch.setattr(cli, "certify_all", lambda: [even])
    assert cli.main(["--no-lint", str(tmp_path / "nothing")]) == 1
    assert "VIOLATION" in capsys.readouterr().out
