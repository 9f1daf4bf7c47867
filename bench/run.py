"""Run one workload of the saflab benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload seed fixes the generated
dataset, so the same seed gives the same inputs.  With ``--trace 0`` the
run measures the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
runs the workload untraced for half the time and traced for the other half
and reports the per-layer metrics, the tracing overhead among them.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller report (provenance,
sample counts, tail percentiles, output digests, failures) goes to
``.bench_work/<workload>-seed<N>-trace<T>/report.json``.

The exit status is 0 when a result was printed, 1 on bad arguments and 2
when the benchmark could not run (saflab missing from ``src/``, say).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_saflab():
    """Import saflab from this checkout's src/ only, then the harness."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import saflab

    if not Path(saflab.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"saflab was imported from {saflab.__file__}, not from {src}")
    import harness
    import tracing

    return harness, tracing


def run(args, harness, tracing, import_s: float) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in harness.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(harness.WORKLOADS)}")
    os.environ["SAF_LAB_THREADS"] = str(harness.fan_out_threads())
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    inputs, setup_times, failures = harness.timed_setup(args.workload, args.seed, work)
    clock = harness.StepClock()
    patcher = tracing.Patcher()
    report = {"provenance": harness.provenance(ROOT, args.workload, args.seed),
              "seconds": args.seconds, "trace": args.trace,
              "import_s": import_s, "input_build_s": setup_times}
    try:
        clock.install(patcher)
        if args.trace == 0:
            units = harness.measure(args.workload, inputs, work, "unit", args.seconds, 2,
                                    clock, None)
            measured = units
            rss_mb = harness.peak_rss_mb()
            probes = [harness.import_probe_s(ROOT) for _ in range(harness.SETUP_REPEATS)]
            report["import_probe_s"] = probes
            setup_s = statistics.median(probes) + statistics.median(setup_times)
            metrics = harness.end_to_end(units, clock, setup_s, rss_mb)
            report["steps"] = harness.samples_summary(clock.steps)
            report["evals"] = harness.samples_summary(clock.evals)
            wanted = spec["end_to_end"]
        else:
            half = args.seconds / 2.0
            plain = harness.measure(args.workload, inputs, work, "plain", half, 1, clock, None)
            tracer = tracing.Tracer()
            report["missing_targets"] = tracing.install(tracer, patcher)
            traced = harness.measure(args.workload, inputs, work, "traced", half, 1, clock,
                                     plain[0].digests, round_trip_first=False)
            units = plain + traced
            measured = traced
            metrics = tracing.per_layer_metrics(tracer)
            metrics["trace.overhead_ratio"] = (statistics.median(u.wall for u in traced)
                                               / statistics.median(u.wall for u in plain))
            report["untraced_wall_s"] = [u.wall for u in plain]
            report["traced_wall_s"] = [u.wall for u in traced]
            wanted = spec["per_layer"]
    finally:
        patcher.restore()

    for u in units:
        failures += u.failures
    attempted = sum(u.seed_runs for u in units)
    failed = min(attempted, sum(u.failed_runs for u in units))
    report.update({
        "unit_wall_s": [u.wall for u in measured],
        "digests": units[0].digests,
        "tgt_acc": units[0].tgt_accs,
        "failures": failures[:100],
        "metrics": metrics,
    })
    (work / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    for m in wanted:
        print(f"{m['name']:<36} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"report: {(work / 'report.json').relative_to(ROOT)}")
    return {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    os.environ.update(PINNED_ENV)  # before numpy is imported
    try:
        harness, tracing = import_saflab()
    except ImportError as exc:
        print(f"bench: cannot import saflab: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    try:
        result = run(args, harness, tracing, import_s)
    except Exception:  # report why no result could be produced
        traceback.print_exc()
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
