"""Generate EXPERIMENTS.md: paper-vs-model for every table and figure.

Invoked by ``python -m repro.bench`` (see ``__main__``). The document is
the reproduction's scorecard: every cell the paper reports next to what
the calibrated model produces, plus the shape claims and whether they
hold.
"""

from __future__ import annotations

import io

from repro.bench import figures, paper_data, tables
from repro.bench.report import fmt_cell

__all__ = ["generate_experiments_md"]


def _md_workload_table(out, rows, columns, headers):
    out.write("| workload | vector | " + " | ".join(headers) + " |\n")
    out.write("|---" * (2 + len(headers)) + "|\n")
    for row in rows:
        cells = [
            f"{fmt_cell(row['paper'][c])} / {fmt_cell(row['model'][c])}"
            for c in columns
        ]
        out.write(
            f"| {row['workload']} | {row['vector_size']} | "
            + " | ".join(cells) + " |\n"
        )
    out.write("\n")


def _md_scale_table(out, rows, columns, headers):
    out.write("| scale | " + " | ".join(headers) + " |\n")
    out.write("|---" * (1 + len(headers)) + "|\n")
    for row in rows:
        cells = [
            f"{fmt_cell(row['paper'][c])} / {fmt_cell(row['model'][c])}"
            for c in columns
        ]
        out.write(f"| 2^{row['log_scale']} | " + " | ".join(cells) + " |\n")
    out.write("\n")


def generate_experiments_md() -> str:
    out = io.StringIO()
    out.write(
        "# EXPERIMENTS — paper vs model\n\n"
        "Regenerated by `python -m repro.bench`. Every cell shows\n"
        "**paper / model**. The model runs the reproduced algorithms'\n"
        "counted work through the calibrated V100/GTX1080Ti/Xeon device\n"
        "models (see DESIGN.md §2 and §6 for the substitution story and\n"
        "the calibration anchors). The reproduction's claim is *shape*\n"
        "fidelity — who wins, by roughly what factor, where crossovers\n"
        "and OOM points fall — not absolute nanoseconds.\n\n"
        "Every cell here is modeled; none is measured. Measured numbers\n"
        "live in one place: the workloads and per-metric bounds declared in\n"
        "`BENCHMARK.json`, run by `python3 benchmarks/ledger/run.py`\n"
        "(see `benchmarks/ledger/README.md`).\n\n"
    )

    out.write("## Table 2 — zkSNARK workloads (MNT4753, 1x V100), seconds\n\n")
    _md_workload_table(
        out, tables.table2_zksnark(),
        ["bc_poly", "bc_msm", "bg_msm", "gz_poly", "gz_msm",
         "speedup_cpu", "speedup_gpu"],
        ["CPU POLY", "CPU MSM", "MINA MSM", "GZKP POLY", "GZKP MSM",
         "speedup vs CPU", "speedup vs GPU"],
    )
    out.write(
        "Shape check: GZKP wins every workload by >10x (CPU) and >5x\n"
        "(MINA); MINA's improvement over the CPU stays small on these\n"
        "sparse real-world inputs, exactly as §5.2 reports.\n\n"
    )

    out.write("## Table 3 — Zcash workloads (BLS12-381, 1x V100), seconds\n\n")
    _md_workload_table(
        out, tables.table3_zcash(),
        ["bc_poly", "bc_msm", "bg_poly", "bg_msm", "gz_poly", "gz_msm",
         "speedup_cpu", "speedup_gpu"],
        ["bellman POLY", "bellman MSM", "bellperson POLY", "bellperson MSM",
         "GZKP POLY", "GZKP MSM", "speedup vs CPU", "speedup vs GPU"],
    )

    out.write("## Table 4 — Zcash workloads (4x V100), seconds\n\n")
    _md_workload_table(
        out, tables.table4_multigpu(),
        ["bg_poly", "bg_msm", "gz_poly", "gz_msm", "speedup"],
        ["bellperson POLY", "bellperson MSM", "GZKP POLY", "GZKP MSM",
         "speedup"],
    )

    out.write("## Table 5 — single NTT, V100, milliseconds\n\n")
    _md_scale_table(
        out, tables.table5_ntt_v100(),
        ["bc_753", "gz_753", "bg_256", "gz_256"],
        ["libsnark 753-bit", "GZKP 753-bit", "bellperson 256-bit",
         "GZKP 256-bit"],
    )
    out.write(
        "Shape check: the baseline's latency jumps at 2^18 and 2^26 —\n"
        "the batch-boundary/block-division pathology Figure 8 discusses —\n"
        "while GZKP scales near-linearly; the 753-bit CPU speedup stays\n"
        "in the hundreds.\n\n"
    )

    out.write("## Table 6 — single NTT, GTX 1080 Ti, milliseconds\n\n")
    _md_scale_table(
        out, tables.table6_ntt_1080ti(),
        ["bc_753", "gz_753", "bg_256", "gz_256"],
        ["libsnark 753-bit", "GZKP 753-bit", "bellperson 256-bit",
         "GZKP 256-bit"],
    )

    out.write("## Table 7 — single G1 MSM, V100, seconds\n\n")
    _md_scale_table(
        out, tables.table7_msm_v100(),
        ["mina_753", "gz_753", "bp_381", "gz_381", "cpu_256", "gz_256"],
        ["MINA 753", "GZKP 753", "bellperson 381", "GZKP 381",
         "libsnark 256", "GZKP 256"],
    )
    out.write(
        "Shape check: MINA OOMs above 2^22 (Straus table > 32 GB);\n"
        "GZKP leads every column at every scale.\n\n"
    )

    out.write("## Table 8 — single G1 MSM, GTX 1080 Ti, seconds\n\n")
    _md_scale_table(
        out, tables.table8_msm_1080ti(),
        ["mina_753", "gz_753", "bp_381", "gz_381", "cpu_256", "gz_256"],
        ["MINA 753", "GZKP 753", "bellperson 381", "GZKP 381",
         "libsnark 256", "GZKP 256"],
    )

    f6 = figures.figure6_bucket_distribution()
    out.write("## Figure 6 — point-merging workload distribution\n\n")
    out.write(
        f"Zcash-like MSM, scale 2^17, 256-bit scalars, window 8:\n\n"
        f"* non-empty buckets: {len(f6['histogram'])}\n"
        f"* max/min load spread across regular buckets: "
        f"**{f6['max_spread_regular_buckets']:.2f}x** "
        f"(paper: {paper_data.FIGURE6_MAX_SPREAD}x)\n"
        f"* bucket 1 (literal-1 scalars): {f6['bucket1_load']} points\n"
        f"* schedule quality with Figure 7's proportional warp mapping: "
        f"{f6['schedule_quality_mapped']:.2f} vs "
        f"{f6['schedule_quality_one_warp_each']:.3f} for naive "
        f"one-warp-per-task\n\n"
    )

    out.write("## Figure 8 — NTT breakdown (BLS12-381, V100), ms\n\n")
    rows = figures.figure8_ntt_breakdown()
    series = list(rows[0]["ms"])
    out.write("| scale | " + " | ".join(series) + " |\n")
    out.write("|---" * (1 + len(series)) + "|\n")
    for row in rows:
        out.write(f"| 2^{row['log_scale']} | "
                  + " | ".join(fmt_cell(row["ms"][s]) for s in series)
                  + " |\n")
    at22 = next(r["ms"] for r in rows if r["log_scale"] == 22)
    out.write(
        f"\nAt 2^22: library gain {at22['BG'] / at22['BG w. lib']:.2f}x "
        f"(paper {paper_data.FIGURE8_CLAIMS['lib_speedup']}x), full GZKP "
        f"over BG w. lib {at22['BG w. lib'] / at22['GZKP']:.2f}x "
        f"(paper {paper_data.FIGURE8_CLAIMS['gzkp_over_lib']}x).\n\n"
    )

    out.write("## Figure 9 — MSM memory usage (V100), GiB\n\n")
    rows = figures.figure9_msm_memory()
    series = list(rows[0]["gib"])
    out.write("| scale | " + " | ".join(series) + " |\n")
    out.write("|---" * (1 + len(series)) + "|\n")
    for row in rows:
        out.write(f"| 2^{row['log_scale']} | "
                  + " | ".join(fmt_cell(row["gib"][s]) for s in series)
                  + " |\n")
    out.write(
        "\nShape check: MINA's Straus table OOMs past 2^22; GZKP-BLS\n"
        "grows sub-linearly past 2^22 (Algorithm 1 raises the checkpoint\n"
        "interval once the preprocessing budget saturates).\n\n"
    )

    out.write("## Figure 10 — MSM breakdown (BLS12-381, V100), seconds\n\n")
    rows = figures.figure10_msm_breakdown()
    series = list(rows[0]["seconds"])
    out.write("| scale | " + " | ".join(series) + " |\n")
    out.write("|---" * (1 + len(series)) + "|\n")
    for row in rows:
        out.write(f"| 2^{row['log_scale']} | "
                  + " | ".join(fmt_cell(row["seconds"][s]) for s in series)
                  + " |\n")
    at22 = next(r["seconds"] for r in rows if r["log_scale"] == 22)
    out.write(
        f"\nAt 2^22: consolidation "
        f"{at22['BG'] / at22['GZKP-no-LB']:.2f}x (paper "
        f"{paper_data.FIGURE10_CLAIMS['no_lb_over_bg']}x), library "
        f"{at22['GZKP-no-LB'] / at22['GZKP-no-LB w. lib']:.2f}x (paper "
        f"{paper_data.FIGURE10_CLAIMS['lib_gain']}x), full "
        f"{at22['BG'] / at22['GZKP']:.2f}x (paper "
        f"{paper_data.FIGURE10_CLAIMS['full_over_bg']}x).\n"
    )
    return out.getvalue()
