"""Run the benchmark over many seeds and summarise each metric.

    python3 bench/sweep.py --seeds 1..10 [--workloads a,b] [--seconds 30]
                           [--trace 0|1] [--out FILE]

Runs ``bench/run.py`` once per (seed, workload), one after another, with the
workloads interleaved so that slow drift of the machine spreads over all of
them.  For every metric it reports the ten values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  With ``--trace 0``
each spread is compared with the metric's bound in BENCHMARK.json.  The
summary goes to standard output and, with ``--out``, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_range(raw: str) -> list[int]:
    if ".." in raw:
        lo, hi = raw.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(p) for p in raw.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = ROOT / ".bench_work" / f"{workload}-seed{seed}-trace{trace}" / "report.json"
    result["digests"] = json.loads(report.read_text(encoding="utf-8"))["digests"]
    return result


def summarise(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) < 2:
        return out
    q1, _, q3 = statistics.quantiles(values, n=4)
    out.update({"q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None})
    if bound is not None:
        out["bound"] = bound
        out["within_third_of_bound"] = out["spread"] is not None and out["spread"] < bound / 3
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(prog="bench/sweep.py")
    p.add_argument("--seeds", default="1..10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in parse_range(args.seeds):
        for w in workloads:
            res = run_once(w, seed, args.seconds, args.trace)
            res["seed"] = seed
            runs[w].append(res)
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", file=sys.stderr, flush=True)

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for w, results in runs.items():
        per_metric = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            per_metric[m["name"]] = summarise(values, m.get("bound"))
            per_metric[m["name"]]["unit"] = m["unit"]
        summary["workloads"][w] = {
            "seeds": [r["seed"] for r in results],
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "digests": {str(r["seed"]): r["digests"] for r in results},
            "metrics": per_metric,
        }
        print(f"== {w}: all correct {summary['workloads'][w]['all_correct']}")
        for name, s in per_metric.items():
            spread = "-" if s.get("spread") is None else f"{s['spread']:.3f}"
            bound = f"  bound {s['bound']}" if "bound" in s else ""
            print(f"  {name:<36} median {s['median']:<12.6g} spread {spread}{bound}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
