"""Tests for the witness-taint analysis (rules R006–R009).

Three layers:

* fixture suites — each rule fires on a minimal positive and stays
  quiet on the sanitized/declassified negative, exercised through the
  public ``run_taint`` entry point on tiny synthetic ``repro.*``
  modules;
* suppression edge cases — ``# repro: allow[...]`` on decorator lines,
  inside multi-line statements, and on the line above a finding;
* the runtime mirror — telemetry export scrubs witness-like payloads,
  and the repo itself is clean at HEAD.
"""

import random
import textwrap
from pathlib import Path

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.analysis.lint import ModuleInfo
from repro.analysis.taint import TAINT_RULE_CODES, run_taint
from repro.circuits import CircuitBuilder
from repro.errors import CircuitError
from repro.ff import ALT_BN128_R
from repro.service.telemetry import SCRUBBED, Telemetry, scrub_payload

REPO_ROOT = Path(__file__).resolve().parents[1]


def _taint(tmp_path, source, sub="service", rules=None):
    """Run the taint engine over one synthetic ``repro.<sub>`` module."""
    pkg = tmp_path / "repro" / sub
    pkg.mkdir(parents=True, exist_ok=True)
    f = pkg / "fx.py"
    f.write_text(textwrap.dedent(source))
    return run_taint([str(f)], rules=rules)


def _codes(findings):
    return sorted({f.code for f in findings})


# -- R006: secret -> string sink ----------------------------------------------------


class TestR006StringSink:
    def test_fires_on_witness_in_exception_message(self, tmp_path):
        findings = _taint(tmp_path, """
            def check(witness):
                raise ValueError(f"bad witness {witness}")
        """)
        assert "R006" in _codes(findings)

    def test_quiet_when_only_shape_is_reported(self, tmp_path):
        findings = _taint(tmp_path, """
            def check(witness):
                raise ValueError(f"bad witness of length {len(witness)}")
        """)
        assert findings == []

    def test_fires_through_a_helper(self, tmp_path):
        findings = _taint(tmp_path, """
            def ident(x):
                return x

            def check(witness):
                raise ValueError(str(ident(witness)))
        """)
        assert "R006" in _codes(findings)


# -- R007: secret-dependent control flow in kernels ---------------------------------


class TestR007KernelControlFlow:
    SOURCE = """
        def reduce_once(witness):
            if witness > 17:
                return witness - 17
            return witness
    """

    def test_fires_inside_kernel_module(self, tmp_path):
        findings = _taint(tmp_path, self.SOURCE, sub="ff")
        assert "R007" in _codes(findings)

    def test_quiet_outside_kernel_modules(self, tmp_path):
        assert _taint(tmp_path, self.SOURCE, sub="service") == []

    def test_fires_on_secret_loop_bound(self, tmp_path):
        findings = _taint(tmp_path, """
            def spin(witness):
                acc = 0
                for _ in range(witness):
                    acc += 1
                return acc
        """, sub="msm")
        assert "R007" in _codes(findings)


# -- R008: secret container index/key ----------------------------------------------


class TestR008SecretIndex:
    def test_fires_on_secret_index(self, tmp_path):
        findings = _taint(tmp_path, """
            def lookup(witness, table):
                return table[witness]
        """)
        assert "R008" in _codes(findings)

    def test_quiet_on_shape_derived_index(self, tmp_path):
        findings = _taint(tmp_path, """
            def lookup(witness, table):
                return table[len(witness)]
        """)
        assert findings == []

    def test_fires_interprocedurally(self, tmp_path):
        findings = _taint(tmp_path, """
            def ident(x):
                return x

            def lookup(witness, table):
                return table[ident(witness)]
        """)
        assert "R008" in _codes(findings)


class TestFixedBaseGather:
    """The window-table read of ``repro.msm.fixed_base`` in miniature:
    a digit of a secret scalar picks the table row. Undeclared it is an
    R008 finding, raised where the index meets the table; the boundary
    ``FixedBaseTable.multiples`` carries (DESIGN.md section 7) is what
    accepts it — not the MSM front-end's, which this path never asked
    to stand behind."""

    SOURCE = """
        from repro.analysis.declass import declassify

        def gather_points(row, idx):
            return [row[i] for i in idx]

        {decorator}
        def multiples(rows, witness, window):
            mask = (1 << window) - 1
            terms = []
            for t in range(len(rows)):
                column = [(s >> (t * window)) & mask for s in witness]
                terms.append(gather_points(rows[t], column))
            return terms
    """

    def test_undeclared_gather_fires(self, tmp_path):
        findings = _taint(tmp_path, self.SOURCE.format(decorator=""),
                          sub="msm")
        assert _codes(findings) == ["R008"]

    def test_its_own_boundary_accepts_it(self, tmp_path):
        findings = _taint(tmp_path, self.SOURCE.format(
            decorator='@declassify("fixture: the ladder this replaces '
                      'already branches on every secret bit")'), sub="msm")
        assert findings == []

    def test_the_real_boundary_is_declared_with_its_own_reason(self):
        from repro.backend.base import ComputeBackend
        from repro.msm.fixed_base import FixedBaseTable

        own = FixedBaseTable.multiples.__declassified__["reason"]
        assert "fixed-base window gather" in own
        assert own != ComputeBackend.digits_matrix.__declassified__["reason"]

    def test_the_variable_base_gather_has_its_own_reason(self):
        """``batch_scalar_mul`` reads per-lane multiples by digits of
        zk masks and RLC coefficients: its own boundary, not the
        fixed-base one's."""
        from repro.msm.fixed_base import FixedBaseTable, batch_scalar_mul

        own = batch_scalar_mul.__declassified__["reason"]
        assert "variable-base window gather" in own
        assert own != FixedBaseTable.multiples.__declassified__["reason"]


# -- R009: secret on a long-lived object --------------------------------------------


class TestR009LongLivedStore:
    def test_fires_on_long_lived_class_attribute(self, tmp_path):
        findings = _taint(tmp_path, """
            class ShardStats:
                def remember(self, witness):
                    self.last_witness = witness
        """)
        assert "R009" in _codes(findings)

    def test_quiet_on_job_scoped_class(self, tmp_path):
        findings = _taint(tmp_path, """
            class JobScratch:
                def remember(self, witness):
                    self.buffer = witness
        """)
        assert findings == []

    def test_fires_on_module_global(self, tmp_path):
        findings = _taint(tmp_path, """
            _CACHE = {}

            def stash(witness):
                global _CACHE
                _CACHE = witness
        """)
        assert "R009" in _codes(findings)


# -- escapes: declassify + rule selection -------------------------------------------


class TestEscapes:
    def test_declassify_is_a_boundary(self, tmp_path):
        findings = _taint(tmp_path, """
            from repro.analysis.declass import declassify

            @declassify("fixture: the return is public by construction")
            def mask(witness):
                return witness

            def lookup(witness, table):
                return table[mask(witness)]
        """)
        assert findings == []

    def test_rules_filter_restricts_codes(self, tmp_path):
        src = """
            def check(witness):
                raise ValueError(f"bad {witness}")
        """
        assert _taint(tmp_path, src, rules=["R007"]) == []
        assert "R006" in _codes(_taint(tmp_path, src, rules=["R006"]))


# -- suppression edge cases ---------------------------------------------------------


class TestSuppression:
    def test_allow_on_finding_line(self, tmp_path):
        findings = _taint(tmp_path, """
            def lookup(witness, table):
                return table[witness]  # repro: allow[R008]
        """)
        assert findings == []

    def test_allow_on_line_above(self, tmp_path):
        findings = _taint(tmp_path, """
            def lookup(witness, table):
                # repro: allow[R008]
                return table[witness]
        """)
        assert findings == []

    def test_allow_inside_multi_line_statement(self, tmp_path):
        findings = _taint(tmp_path, """
            def check(witness):
                raise ValueError(  # repro: allow[R006]
                    "prefix "
                    f"{witness}"
                )
        """)
        assert findings == []

    def test_wrong_code_does_not_suppress(self, tmp_path):
        findings = _taint(tmp_path, """
            def lookup(witness, table):
                return table[witness]  # repro: allow[R006]
        """)
        assert "R008" in _codes(findings)

    def test_decorator_line_span_covers_the_header_only(self):
        src = ("@decorator  # repro: allow[R007]\n"
               "def f(a,\n"
               "      b):\n"
               "    x = a\n")
        mi = ModuleInfo(Path("repro/ff/fx.py"), src)
        # the decorator's allow covers the whole def header...
        assert mi.suppressed("R007", 2)
        assert mi.suppressed("R007", 3)
        # ...but never leaks into the body
        assert not mi.suppressed("R007", 4)


# -- CLI ----------------------------------------------------------------------------


class TestCli:
    def _fixture(self, tmp_path):
        pkg = tmp_path / "repro" / "service"
        pkg.mkdir(parents=True)
        f = pkg / "fx.py"
        f.write_text("def check(witness):\n"
                     "    raise ValueError(f'bad {witness}')\n")
        return f

    def test_taint_subcommand_exits_nonzero_on_findings(self, tmp_path,
                                                        capsys):
        f = self._fixture(tmp_path)
        assert analysis_main(["taint", str(f)]) == 1
        assert "R006" in capsys.readouterr().out

    def test_list_rules_covers_the_taint_catalog(self, capsys):
        assert analysis_main(["taint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in TAINT_RULE_CODES:
            assert code in out

    def test_baseline_silences_known_findings_only(self, tmp_path,
                                                   capsys):
        f = self._fixture(tmp_path)
        report = tmp_path / "baseline.json"
        assert analysis_main(["taint", str(f), "--json",
                              str(report)]) == 1
        capsys.readouterr()
        # the same findings, baselined, no longer fail the run
        assert analysis_main(["taint", str(f), "--baseline",
                              str(report)]) == 0
        assert "baselined" in capsys.readouterr().out
        # a new finding still fails against the old baseline
        f.write_text(f.read_text() +
                     "\ndef lookup(witness, table):\n"
                     "    return table[witness]\n")
        assert analysis_main(["taint", str(f), "--baseline",
                              str(report)]) == 1


# -- the repo itself is clean at HEAD -----------------------------------------------


def test_repo_src_tree_is_taint_clean():
    findings = run_taint([str(REPO_ROOT / "src")])
    assert findings == [], "\n".join(f.render() for f in findings)


# -- satellite regressions: builder errors hide witness values ----------------------


class TestBuilderErrorHygiene:
    FIELD = ALT_BN128_R

    def test_boolean_witness_reports_index_not_value(self):
        b = CircuitBuilder(self.FIELD)
        secret = 123456789
        expected_index = b.r1cs.n_variables
        with pytest.raises(CircuitError) as ei:
            b.boolean_witness(secret)
        msg = str(ei.value)
        assert str(secret) not in msg
        assert str(expected_index) in msg

    def test_decompose_bits_reports_index_not_value(self):
        b = CircuitBuilder(self.FIELD)
        secret = 987654321
        var = b.witness(secret)
        with pytest.raises(CircuitError) as ei:
            b.decompose_bits(var, 8)
        msg = str(ei.value)
        assert str(secret) not in msg
        assert f"index {var}" in msg
        assert "8 bits" in msg


# -- satellite regressions: telemetry export scrubs witness payloads ----------------


def _values_in(obj):
    """Every scalar reachable in an exported telemetry dict."""
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _values_in(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _values_in(v)
    else:
        yield obj


class TestTelemetryScrub:
    def test_scrub_payload_replaces_witness_like_keys(self):
        scrubbed = scrub_payload({
            "witness": [1, 2, 3],
            "full_assignment": [4, 5],
            "Trapdoor_dump": 7,
            "n_constraints": 9,
        })
        assert scrubbed == {
            "witness": SCRUBBED,
            "full_assignment": SCRUBBED,
            "Trapdoor_dump": SCRUBBED,
            "n_constraints": 9,
        }

    def test_span_meta_and_events_are_scrubbed_at_export(self):
        secrets = [1234567891011, 987654321]
        t = Telemetry()
        with t.span("prove", witness=list(secrets), size=2) as sp:
            # a caller mutating meta after the span opened is caught by
            # the export-time re-scrub
            sp.meta["assignment_tail"] = secrets[1]
            t.record_event("debug", witness_head=secrets[0], n=2)
        exported = t.to_dict()
        leaked = set(secrets) & set(
            v for v in _values_in(exported) if isinstance(v, int))
        assert not leaked
        assert exported["spans"][0]["meta"]["witness"] == SCRUBBED
        assert exported["spans"][0]["meta"]["size"] == 2
        assert exported["events"][0]["witness_head"] == SCRUBBED

    def test_proof_run_telemetry_never_exports_witness_ints(self):
        from repro.curves import CURVES
        from repro.snark import Groth16Prover, setup
        from repro.snark.r1cs import R1CS

        curve = CURVES["ALT-BN128"]
        r1cs = R1CS(field=curve.fr, n_public=2)
        x = r1cs.new_variable()
        y = r1cs.new_variable()
        r1cs.add_constraint({x: 1}, {y: 1}, {1: 1})
        r1cs.add_constraint({x: 1, y: 1}, {0: 1}, {2: 1})
        # witness values chosen large enough that no operational count
        # (sizes, window widths...) could collide with them
        wx, wy = 982451653, 961748927
        assignment = [1, (wx * wy) % curve.fr.modulus, wx + wy, wx, wy]
        keys = setup(r1cs, curve, random.Random(7))
        t = Telemetry()
        prover = Groth16Prover(r1cs, keys.proving_key, curve,
                               backend="python")
        prover.prove(assignment, rng=random.Random(11), telemetry=t)
        exported = t.to_dict()
        leaked = {wx, wy} & set(
            v for v in _values_in(exported) if isinstance(v, int))
        assert not leaked
