#!/usr/bin/env python3
"""The perf ledger's one command.

    python3 benchmarks/ledger/run.py [--workload W] [--seed N] [--seconds S]
                                     [--trace 0|1|both] [--quick] [--out FILE]
    python3 benchmarks/ledger/run.py sweep --out FILE [--seeds 10] [...]
    python3 benchmarks/ledger/run.py spread FILE
    python3 benchmarks/ledger/run.py compare A.json B.json

A run makes every input from ``--seed`` in this one process, drives the
program through its public functions, prints every metric by name with
its unit, checks the outputs, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics for ``--trace 0``, the per-layer metrics for ``--trace 1``.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
SRC_DIR = LEDGER_DIR.parent.parent / "src"
sys.path.insert(0, str(LEDGER_DIR))

import ledger  # after the path line above
from ledger import END_TO_END, PER_LAYER, RESULTS_DIR, WORKLOADS

DEFAULT_SECONDS = 10


def _load_program() -> None:
    """Put the checkout's ``src`` on the path and keep the compiled
    kernels and autotune profiles inside the ledger's own (gitignored)
    results directory, so a run reads and writes nothing outside its
    checkout and set-up cost repeats from run to run."""
    if not (SRC_DIR / "repro").is_dir():
        sys.exit(f"ledger: no program to measure: {SRC_DIR}/repro is missing")
    sys.path.insert(0, str(SRC_DIR))
    os.environ["REPRO_NATIVE_CACHE"] = str(RESULTS_DIR / "native_cache")


def _peak_rss_mib() -> float:
    """ru_maxrss of this process plus its largest waited-for child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_workload(workload: ledger.Workload, seed: int, run_seconds: float,
                 trace: str) -> dict:
    """One run of one workload; returns its result record."""
    import stations
    from repro.backend import coverage
    from repro.backend.native import get_native_field, native_available
    from repro.curves.params import CURVES

    started = stations.now()
    want_e2e, want_layers = trace in ("0", "both"), trace in ("1", "both")
    tag = f"ledger:{workload.name}:{seed}"
    h = stations.Harness()
    rec = ledger.Recorder(f"{workload.name}:{seed}")
    curve = CURVES[workload.curve]

    # untimed priming: compiled kernels and per-modulus constant blocks
    def prime():
        native_available()
        for field in (curve.fr, curve.fq):
            get_native_field(field.modulus)

    kernel_load = h.timed(prime)[0]
    coverage.reset()

    with rec.span("setup"):
        kernels = stations.KernelStation(workload.kernels, workload.curve,
                                         tag, h)
        lifecycle = stations.LifecycleStation(workload.lifecycle,
                                              workload.curve, tag, h)
    setup_s = kernels.setup_seconds + lifecycle.setup_seconds

    cells, layers = {}, {}
    if want_e2e:
        samples = kernels.measure(run_seconds)
        samples.update(lifecycle.measure(run_seconds))
        chain = samples.pop("chain_s")
        if not workload.pooled_service:
            # no pool on this workload: the job is the in-process chain
            # witness -> proof -> bytes -> verified, one closed-loop client
            samples["job_latency_p50_s"] = chain
            cells["jobs_per_s"] = {"value": len(chain) / sum(chain),
                                   "unit": "jobs/s", "iqr": 0.0,
                                   "n": len(chain)}
    if want_layers:
        layers["backend.kernel_load_s"] = kernel_load
        layers.update(kernels.trace(rec, seed))
        layers.update(lifecycle.trace(rec))
        # read before the inline service resets the counters per job
        layers["backend.native_dispatch_ratio"] = (
            stations.native_dispatch_ratio())
    if workload.pooled_service or want_layers:
        service = stations.ServiceStation(workload.service, workload.curve,
                                          seed, h)
        try:
            service_samples, service_layers = service.run(rec)
        finally:
            service.close()
        if workload.pooled_service:
            setup_s += service.setup_seconds
            if want_e2e:
                samples.update(service_samples)
        layers.update(service_layers)

    record = {"workload": workload.name, "seed": seed,
              "seconds": run_seconds, "trace": trace,
              "wall_s": stations.now() - started,
              "attempted": h.attempted, "failed": h.failed,
              "failures": h.failures, "correct": h.failed == 0,
              "host_speed": ledger.summary(h.speeds, "ratio"),
              "proof_digest": lifecycle.proof_digest}
    if want_e2e:
        for name, values in samples.items():
            cells[name] = ledger.summary(values, END_TO_END[name][0])
        cells["setup_s"] = ledger.summary([setup_s], "s")
        cells["peak_rss_mb"] = ledger.summary([_peak_rss_mib()], "MiB")
        record["end_to_end"] = {name: cells[name] for name in END_TO_END}
    if want_layers:
        layers["host_speed_ratio"] = ledger.median(h.speeds)
        record["per_layer"] = {
            name: {"value": layers[name], "unit": PER_LAYER[name][0]}
            for name in PER_LAYER}
        rec.dump(RESULTS_DIR / f"{workload.name}.spans.json")
    return record


def _print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"seconds={record['seconds']}  wall={record['wall_s']:.1f}s  "
          f"host_speed={record['host_speed']['value']:.2f}  "
          f"ops_attempted={record['attempted']}  "
          f"ops_failed={record['failed']}")
    for name, cell in record.get("end_to_end", {}).items():
        _, better, bound = END_TO_END[name]
        print(f"  {name:<28}{cell['value']:>14.6g} {cell['unit']:<7}"
              f"iqr {cell['iqr']:<11.3g} n={cell['n']:<4} "
              f"{better} is better, bound {bound}")
    for name, cell in record.get("per_layer", {}).items():
        feeds = ", ".join(PER_LAYER[name][2]) or "-"
        print(f"  {name:<36}{cell['value']:>14.6g} {cell['unit']:<6} "
              f"-> {feeds}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def _last_line(records: list) -> str:
    metrics = {}
    for record in records:
        for section in ("end_to_end", "per_layer"):
            for name, cell in record.get(section, {}).items():
                metrics[name] = {"value": cell["value"], "unit": cell["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics})


def cmd_run(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", default="both", choices=["0", "1", "both"])
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes (domain 2^8, 6 service jobs)")
    parser.add_argument("--out", type=Path, help="write the result JSON here")
    args = parser.parse_args(argv)
    _load_program()
    import stations
    from repro.backend.native import native_available

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        workload = WORKLOADS[name]
        if args.quick:
            workload = ledger.quick(workload)
        record = run_workload(workload, args.seed,
                              1.0 if args.quick else args.seconds, args.trace)
        record["quick"] = args.quick
        _print_record(record)
        records.append(record)
    if args.out is not None:
        env = ledger.environment(native_available(), stations.BACKEND)
        ledger.write_results(args.out, env, records)
    print(_last_line(records))
    return 0 if all(r["correct"] for r in records) else 1


def cmd_sweep(argv: list) -> int:
    """Ten fresh processes per workload, one per seed, as the driver
    runs them, plus one traced run; collected into one result file."""
    parser = argparse.ArgumentParser(prog="run.py sweep")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    part = RESULTS_DIR / f"sweep-part-{os.getpid()}.json"
    env, runs, failed = None, [], 0
    for name in names:
        plan = [(args.seed + i, "0") for i in range(args.seeds)]
        plan.append((args.seed, "1"))
        for seed, trace in plan:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed), "--seconds",
                   str(args.seconds), "--trace", trace, "--out", str(part)]
            if args.quick:
                cmd.append("--quick")
            done = subprocess.run(cmd, capture_output=True, text=True)
            if not part.exists():
                sys.stderr.write(done.stdout + done.stderr)
                return 2
            data = json.loads(part.read_text())
            part.unlink()
            env = data["env"]
            runs.extend(data["runs"])
            failed += done.returncode != 0
            print(f"{name} seed={seed} trace={trace} exit={done.returncode}",
                  flush=True)
    ledger.write_results(args.out, env, runs)
    return 1 if failed else 0


def cmd_compare(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", type=Path, help="base result file")
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    regressed = ledger.compare(json.loads(args.a.read_text()),
                               json.loads(args.b.read_text()))
    print(f"{regressed} regressed")
    return 1 if regressed else 0


def cmd_spread(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="run.py spread")
    parser.add_argument("file", type=Path, help="a result file from sweep")
    args = parser.parse_args(argv)
    worst = ledger.spread_report(json.loads(args.file.read_text()))
    print(f"largest spread is {worst:.2f} of its bound")
    return 0 if worst <= 1.0 else 1


def main(argv: list) -> int:
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    if argv and argv[0] == "spread":
        return cmd_spread(argv[1:])
    if argv and argv[0] == "sweep":
        return cmd_sweep(argv[1:])
    if argv and argv[0] == "ladder-child":
        _load_program()
        import stations
        curve, log_n, lanes, seed = argv[1:]
        stations.ladder_child_main(curve, int(log_n), int(lanes), int(seed))
        return 0
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
