"""Self-test of the perf ledger.  Not part of tier-1 (``testpaths`` is
``tests``); run it explicitly:

    python -m pytest benchmarks/ledger

It drives ``run.py --quick`` (domain 2^8, 6 service jobs) in child
processes and checks the schema, the naming limits, the interaction
table, the exactness of counted work and the shape of the span dump.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER_DIR))

import ledger  # after the path line above

RUN_PY = LEDGER_DIR / "run.py"
MANIFEST = json.loads((ledger.REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _quick(tmp_path: Path, tag: str, seed: int) -> dict:
    out = tmp_path / f"{tag}.json"
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--quick", "--seed", str(seed),
         "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two quick runs under one seed and a third under another."""
    tmp = tmp_path_factory.mktemp("ledger")
    spans = {}
    first = _quick(tmp, "first", 7)
    for name in ledger.WORKLOADS:
        spans[name] = json.loads(
            (ledger.RESULTS_DIR / f"{name}.spans.json").read_text())
    return first, _quick(tmp, "again", 7), _quick(tmp, "other", 8), spans


def test_manifest_matches_the_tables():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/ledger"]
    assert MANIFEST["command"][-1] == "benchmarks/ledger/run.py"
    assert {(m["name"], m["unit"], m["better"], m["bound"])
            for m in MANIFEST["end_to_end"]} == {
        (name, *spec) for name, spec in ledger.END_TO_END.items()}
    assert {(m["name"], m["unit"], m["better"])
            for m in MANIFEST["per_layer"]} == {
        (name, unit, better)
        for name, (unit, better, _) in ledger.PER_LAYER.items()}
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (w.name, w.why) for w in ledger.WORKLOADS.values()]


def test_names_and_limits():
    names = (list(ledger.WORKLOADS) + list(ledger.END_TO_END)
             + list(ledger.PER_LAYER))
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(ledger.WORKLOADS) <= 8
    assert len(ledger.END_TO_END) <= 16 and len(ledger.PER_LAYER) <= 128
    assert all(len(w.why) <= 200 for w in ledger.WORKLOADS.values())
    assert all(0 < bound <= 0.25 for _, _, bound in ledger.END_TO_END.values())
    assert ledger.END_TO_END["setup_s"] == ("s", "lower", max(
        bound for _, _, bound in ledger.END_TO_END.values()))


def test_every_layer_metric_names_what_it_feeds():
    health = {"host_speed_ratio", "trace_overhead_ratio",
              "reconcile_residual_ratio"}
    losing_tiers = {n for n in ledger.PER_LAYER
                    if n.endswith(("_limb_s", "_python_s"))}
    for name, (_, _, feeds) in ledger.PER_LAYER.items():
        assert set(feeds) <= set(ledger.END_TO_END), name
        assert feeds or name in health | losing_tiers, name


def test_quick_run_reports_every_metric_on_every_workload(quick_runs):
    first = quick_runs[0]
    assert set(first["env"]) >= {"commit", "nproc", "python", "numpy",
                                 "compiler", "native_available",
                                 "backend_tier"}
    assert [r["workload"] for r in first["runs"]] == list(ledger.WORKLOADS)
    for run in first["runs"]:
        assert list(run["end_to_end"]) == list(ledger.END_TO_END)
        assert list(run["per_layer"]) == list(ledger.PER_LAYER)
        assert all(cell["value"] > 0 for cell in run["end_to_end"].values())
        assert run["failed"] == 0 and run["attempted"] >= 1


def test_counted_work_repeats_exactly_under_one_seed(quick_runs):
    first, again, other, _ = quick_runs

    def ops(result):
        return {(r["workload"], name): cell["value"]
                for r in result["runs"]
                for name, cell in r["per_layer"].items()
                if name.startswith("ops.")}

    def digests(result):
        return [r["proof_digest"] for r in result["runs"]]

    assert ops(first) == ops(again)
    assert digests(first) == digests(again)
    # another seed: other scalars, so other bucket collisions, and other
    # witnesses, trapdoors and masks, so other proofs
    assert ops(first) != ops(other)
    assert all(a != b for a, b in zip(digests(first), digests(other)))


def test_spans_form_a_tree_per_run(quick_runs):
    for name, dump in quick_runs[3].items():
        spans = dump["spans"]
        assert spans, name
        by_id = {s["id"]: s for s in spans}
        assert len(by_id) == len(spans)
        for span in spans:
            assert span["run"] == dump["run"]
            assert span["end"] >= span["start"]
            parent = span["parent"]
            if parent is not None:
                assert parent < span["id"]
                assert by_id[parent]["start"] <= span["start"]
                assert span["end"] <= by_id[parent]["end"]
        for tree in dump["program_trees"]:
            assert tree["under"] in by_id and tree["run"] == dump["run"]


def test_compare_flags_a_regression(quick_runs, capsys):
    first = quick_runs[0]
    slower = json.loads(json.dumps(first))
    for run in slower["runs"]:
        run["end_to_end"]["prove_s"]["value"] *= 2.0
        run["end_to_end"]["prove_s"]["iqr"] = 0.0
    for run in first["runs"]:
        run["end_to_end"]["prove_s"]["iqr"] = 0.0
    assert ledger.compare(first, slower) == len(ledger.WORKLOADS)
    assert "regressed" in capsys.readouterr().out
    assert ledger.compare(first, first, out=lambda line: None) == 0


def test_run_refuses_a_tree_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the ledger the
    command must fail without printing a result."""
    bare = tmp_path / "benchmarks" / "ledger"
    bare.mkdir(parents=True)
    for path in LEDGER_DIR.glob("*.py"):
        (bare / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload",
         "service_churn_bn128", "--seed", "1", "--seconds", "1",
         "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
