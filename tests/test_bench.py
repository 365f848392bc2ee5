"""Tests for the bench harness itself: regenerator structure, report
rendering, the CLI, and EXPERIMENTS.md generation."""

from pathlib import Path

import pytest

from repro.bench import (
    figure8_ntt_breakdown,
    figure9_msm_memory,
    fmt_cell,
    paper_data,
    render_figure_rows,
    render_scale_table,
    render_workload_table,
    table2_zksnark,
    table5_ntt_v100,
    zcash_like_scalars,
)
from repro.bench.__main__ import main as bench_cli
from repro.bench.experiments_md import generate_experiments_md


class TestPaperData:
    def test_table_scales_consistent(self):
        assert set(paper_data.TABLE5_V100) == {14, 16, 18, 20, 22, 24, 26}
        assert set(paper_data.TABLE7_V100) == {14, 16, 18, 20, 22, 24, 26}
        assert set(paper_data.TABLE6_1080TI) == {14, 16, 18, 20, 22, 24}

    def test_mina_oom_cells_marked(self):
        assert paper_data.TABLE7_V100[24][0] is None
        assert paper_data.TABLE7_V100[22][0] is not None

    def test_workload_names_match_registry(self):
        from repro.circuits import ZCASH_WORKLOADS, ZKSNARK_WORKLOADS

        assert set(paper_data.TABLE2) == set(ZKSNARK_WORKLOADS)
        assert set(paper_data.TABLE3) == set(ZCASH_WORKLOADS)
        assert set(paper_data.TABLE4) == set(ZCASH_WORKLOADS)


class TestRegenerators:
    def test_table2_structure(self):
        rows = table2_zksnark()
        assert len(rows) == 6
        for row in rows:
            assert set(row) == {"workload", "vector_size", "paper", "model"}
            assert row["model"]["gz_msm"] > 0

    def test_table5_structure(self):
        rows = table5_ntt_v100()
        assert [r["log_scale"] for r in rows] == [14, 16, 18, 20, 22, 24, 26]

    def test_figure8_structure(self):
        rows = figure8_ntt_breakdown(log_scales=(18, 22))
        assert len(rows) == 2
        assert set(rows[0]["ms"]) == {
            "BG", "BG w. lib", "GZKP-no-GM-shuffle", "GZKP"
        }

    def test_figure9_oom_none(self):
        rows = figure9_msm_memory(log_scales=[24])
        assert rows[0]["gib"]["MINA"] is None


class TestScalarGenerator:
    def test_deterministic(self):
        assert zcash_like_scalars(100) == zcash_like_scalars(100)
        assert zcash_like_scalars(100, seed=1) != zcash_like_scalars(
            100, seed=2
        )

    def test_profile(self):
        scalars = zcash_like_scalars(4000)
        zeros = sum(1 for s in scalars if s == 0) / len(scalars)
        ones = sum(1 for s in scalars if s == 1) / len(scalars)
        assert 0.25 < zeros < 0.45
        assert 0.15 < ones < 0.35


class TestRendering:
    def test_fmt_cell(self):
        assert fmt_cell(None) == "OOM"
        assert fmt_cell(0) == "0"
        assert fmt_cell(123.4) == "123"
        assert fmt_cell(1.234) == "1.23"
        assert fmt_cell(0.01234) == "0.012"

    def test_workload_table_renders(self):
        text = render_workload_table(
            "T", table2_zksnark(), ["gz_poly", "gz_msm"]
        )
        assert "AES" in text and "Auction" in text
        assert "paper/model" in text

    def test_scale_table_renders(self):
        text = render_scale_table("T", table5_ntt_v100(), ["gz_256"], "ms")
        assert "2^14" in text and "2^26" in text

    def test_figure_rows_render(self):
        text = render_figure_rows("F", figure8_ntt_breakdown(
            log_scales=(18,)), "ms", "ms")
        assert "GZKP" in text


class TestCli:
    def test_single_experiment(self, capsys):
        assert bench_cli(["figure8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "GZKP" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            bench_cli(["tableX"])

    def test_write_experiments_md(self, tmp_path, capsys):
        target = tmp_path / "EXPERIMENTS.md"
        assert bench_cli(["figure9", "--write", str(target)]) == 0
        content = target.read_text()
        assert "Table 2" in content
        assert "Figure 10" in content
        capsys.readouterr()


class TestExperimentsMd:
    @pytest.fixture(scope="class")
    def content(self):
        return generate_experiments_md()

    def test_all_sections_present(self, content):
        for section in ("Table 2", "Table 3", "Table 4", "Table 5",
                        "Table 6", "Table 7", "Table 8", "Figure 6",
                        "Figure 8", "Figure 9", "Figure 10"):
            assert section in content

    def test_paper_model_pairs(self, content):
        # Table 7's MINA OOM cells render as paper-OOM / model-OOM.
        assert "OOM / OOM" in content

    def test_claims_quantified(self, content):
        assert "consolidation" in content
        assert "2.85" in content  # Figure 6's spread

    def test_committed_experiments_md_is_generated(self, content):
        committed = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
        assert committed.read_text() == content, (
            "EXPERIMENTS.md is stale: run "
            "`python -m repro.bench --write EXPERIMENTS.md`")
