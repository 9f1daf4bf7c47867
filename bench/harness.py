"""Workloads, inputs, output checks and end-to-end metrics of the saflab benchmark.

Every workload is a closed loop in one process: one *unit* (one
``run_experiment`` call, or one ``saflab ablate`` command) starts only after
the previous one has finished and been checked, and units repeat until the
run's time is used up.  All units of a run use the same inputs, so their
outputs must be byte-identical.  saflab is reached only through its public
functions, looked up on their modules at call time so that wrappers
installed by this package are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import saflab.cli
import saflab.config
import saflab.networks
import saflab.runs
import saflab.training

import tracing

# Units are sized so that a 30 s run holds at least 4 of the slowest kind.
WORKLOADS = {
    # training-bound: one evaluate at the end of each run (acceptance cadence)
    "train_mdd_saf": {"backbone": "mdd", "iterations": 300, "eval_every": 300},
    # evaluation-bound: dann skips mdd's pseudo-label passes, evaluate every 10 steps
    "eval_dense_dann_saf": {"backbone": "dann", "iterations": 100, "eval_every": 10},
    # fan-out-bound: the ten-variant ablation over two seeds through the CLI
    "ablate_fanout": {"backbone": "mdd", "iterations": 40, "eval_every": 40, "seeds": (0, 1)},
}
SETUP_REPEATS = 5
PERCENTILES = (50, 90, 99, 99.9)
TRAIN_SEED = 0


def derive_data_seed(seed: int) -> int:
    """The dataset seed a workload seed stands for."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0] % (2**31))


def fan_out_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float | None:
    """Highest of PERCENTILES with at least 10 of n samples beyond it."""
    best = None
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            best = p
    return best


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    directory: Path
    config_path: Path
    config: object  # saflab.config.FileConfig
    source: object  # saflab.data.Batch
    target: object


def config_text(workload: str) -> str:
    w = WORKLOADS[workload]
    return (
        "[data]\nsource = source.csv\ntarget = target.csv\n"
        f"[model]\nbackbone = {w['backbone']}\n"
        f"[train]\niterations = {w['iterations']}\neval_every = {w['eval_every']}\n"
        f"saf = on\nseed = {TRAIN_SEED}\n"
    )


def make_inputs(workload: str, seed: int, directory: Path) -> Inputs:
    """Two-moons CSVs written by ``saflab gen-data`` plus the workload config."""
    argv = ["gen-data", "--kind", "two_moons", "--samples", "400", "--noise", "0.15",
            "--rotation", "35", "--seed", str(derive_data_seed(seed)), "--out", str(directory)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = saflab.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"gen-data exited {rc}")
    config_path = directory / "lab.cfg"
    config_path.write_text(config_text(workload), encoding="utf-8")
    config = saflab.config.parse_config(config_path.read_text(encoding="utf-8"))
    source, target = saflab.runs.load_datasets(config, directory)
    return Inputs(directory, config_path, config, source, target)


INPUT_FILES = ("source.csv", "target.csv", "lab.cfg")


def timed_setup(workload: str, seed: int, work: Path) -> tuple[Inputs, list[float], list[str]]:
    """Build the inputs SETUP_REPEATS times; all builds must be byte-identical."""
    times, builds = [], []
    for i in range(SETUP_REPEATS):
        d = work / f"inputs_{i}"
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        builds.append(make_inputs(workload, seed, d))
        times.append(time.perf_counter() - t0)
    problems = [f"setup build {i} differs in {name}"
                for i, b in enumerate(builds[1:], start=1) for name in INPUT_FILES
                if sha256(b.directory / name) != sha256(builds[0].directory / name)]
    return builds[-1], times, problems


# ---------------------------------------------------------------------------
# the untraced instrumentation: one clock read on each side of each call


class StepClock:
    """Durations of every train_step and evaluate call, from any thread."""

    def __init__(self):
        self.steps: list[float] = []
        self.evals: list[float] = []
        self.nonfinite: list[str] = []

    def install(self, patcher: tracing.Patcher) -> None:
        train_step = saflab.training.train_step
        evaluate = saflab.training.evaluate
        clock = time.perf_counter
        steps, evals, nonfinite = self.steps, self.evals, self.nonfinite

        def timed_train_step(*args, **kwargs):
            t0 = clock()
            out = train_step(*args, **kwargs)
            steps.append(clock() - t0)
            if not all(math.isfinite(v) for v in out.values()):
                nonfinite.append(f"train_step returned {out}")
            return out

        def timed_evaluate(*args, **kwargs):
            t0 = clock()
            out = evaluate(*args, **kwargs)
            evals.append(clock() - t0)
            return out

        patcher.patch_function(train_step, timed_train_step)
        patcher.patch_function(evaluate, timed_evaluate)


# ---------------------------------------------------------------------------
# units and their checks


@dataclass
class UnitResult:
    wall: float
    steps: int
    seed_runs: int
    digests: dict[str, str] = field(default_factory=dict)
    tgt_accs: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed_runs: int = 0


def check_run_dir(run_dir: Path, train_cfg) -> tuple[float | None, list[str]]:
    """Final tgt_acc of a run directory and what is wrong with it."""
    header, *rows = (run_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()
    problems = []
    if header != saflab.training.METRICS_HEADER:
        problems.append(f"{run_dir}: unexpected metrics header")
    expected = train_cfg.total_iterations // train_cfg.eval_every
    if len(rows) != expected:
        problems.append(f"{run_dir}: {len(rows)} metrics rows, expected {expected}")
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row.split(",")):
            problems.append(f"{run_dir}: non-finite metric in row {row}")
    acc = float(rows[-1].split(",")[header.split(",").index("tgt_acc")]) if rows else None
    return acc, problems


def check_round_trip(run_dir: Path, train_cfg, work: Path) -> list[str]:
    """load_params must restore exactly the arrays save_params wrote."""
    bundle = saflab.networks.build_bundle(train_cfg, np.random.default_rng(12345))
    bundle.load_params(run_dir / "model.txt")
    again = work / "model.roundtrip.txt"
    bundle.save_params(again)
    same = again.read_bytes() == (run_dir / "model.txt").read_bytes()
    again.unlink()
    return [] if same else [f"{run_dir}: model.txt does not round-trip through load_params"]


def run_dirs(workload: str, unit_dir: Path, inputs: Inputs) -> list[tuple[Path, object]]:
    """(run directory, TrainConfig) for each seed run a unit wrote."""
    if "seeds" not in WORKLOADS[workload]:
        return [(unit_dir, inputs.config.train)]
    out = []
    for variant in saflab.runs.ABLATION_VARIANTS:
        cfg = saflab.runs.ablation_config(inputs.config, variant).train
        for d in sorted((unit_dir / variant).glob("seed_*")):
            out.append((d, cfg))
    return out


def run_unit(workload: str, inputs: Inputs, unit_dir: Path, clock: StepClock,
             round_trip: bool) -> UnitResult:
    w = WORKLOADS[workload]
    n_steps, n_bad = len(clock.steps), len(clock.nonfinite)
    failures: list[str] = []
    t0 = time.perf_counter()
    try:
        if "seeds" in w:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = saflab.cli.main(["ablate", "--config", str(inputs.config_path),
                                      "--seeds", ",".join(map(str, w["seeds"])),
                                      "--out", str(unit_dir)])
            printed = out.getvalue()
        else:
            saflab.training.run_experiment(inputs.config.train, inputs.source, inputs.target,
                                           unit_dir)
            rc, printed = 0, ""
    except Exception as exc:  # a failed unit is counted, the run goes on
        failures.append(f"unit raised {type(exc).__name__}: {exc}")
        rc = None
    wall = time.perf_counter() - t0
    res = UnitResult(wall, len(clock.steps) - n_steps, 0)
    failures += clock.nonfinite[n_bad:]
    if "seeds" in w:
        seeds_per_variant = len(w["seeds"])
        res.seed_runs = seeds_per_variant * len(saflab.runs.ABLATION_VARIANTS)
        if rc != 0:
            failures.append(f"ablate exited {rc}")
        else:
            table = (unit_dir / "ablation.csv").read_text(encoding="utf-8")
            if printed != table:
                failures.append("ablate printed a table other than ablation.csv")
            rows = table.splitlines()[1:]
            bad = [r for r in rows if not r.endswith(",ok")]
            res.failed_runs += seeds_per_variant * len(bad)
            failures += [f"ablation row not ok: {r}" for r in bad]
            if len(rows) != len(saflab.runs.ABLATION_VARIANTS):
                failures.append(f"ablation.csv has {len(rows)} rows")
            res.digests["ablation.csv"] = sha256(unit_dir / "ablation.csv")
    else:
        res.seed_runs = 1
    if rc == 0:
        for run_dir, cfg in run_dirs(workload, unit_dir, inputs):
            rel = run_dir.relative_to(unit_dir).as_posix()
            try:
                acc, problems = check_run_dir(run_dir, cfg)
                for name in ("model.txt", "metrics.csv"):
                    res.digests[f"{rel}/{name}"] = sha256(run_dir / name)
                if round_trip:
                    problems += check_round_trip(run_dir, cfg, unit_dir)
            except (OSError, ValueError, IndexError) as exc:
                acc, problems = None, [f"{run_dir}: unreadable output ({exc})"]
            if acc is not None:
                res.tgt_accs.append(acc)
            if problems:
                res.failed_runs += 1
                failures += problems
    if rc != 0 or clock.nonfinite[n_bad:]:
        res.failed_runs = res.seed_runs
    res.failures = failures
    return res


def measure(workload: str, inputs: Inputs, work: Path, tag: str, seconds: float,
            min_units: int, clock: StepClock, reference: dict[str, str] | None,
            round_trip_first: bool = True) -> list[UnitResult]:
    """Run units until the next one would overrun ``seconds``; at least ``min_units``.

    Every unit's digests must equal ``reference`` (or, without one, the first
    unit's).  Unit directories are removed once checked.
    """
    units: list[UnitResult] = []
    start = time.perf_counter()
    while True:
        unit_dir = work / f"{tag}_{len(units)}"
        res = run_unit(workload, inputs, unit_dir, clock,
                       round_trip=round_trip_first and not units)
        expect = reference if reference is not None else (units[0].digests if units else None)
        if expect is not None and res.digests != expect:
            res.failures.append(f"{tag} unit {len(units)}: output digests differ from "
                                f"{'the reference run' if reference is not None else 'unit 0'}")
            res.failed_runs = res.seed_runs
        units.append(res)
        shutil.rmtree(unit_dir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if len(units) >= min_units and elapsed + statistics.median(u.wall for u in units) > seconds:
            return units


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for child.

    Read before any import probe runs, so the only children it can see are
    those saflab itself started.
    """
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def import_probe_s(root: Path) -> float:
    """Wall time of a fresh interpreter that imports saflab's CLI from src/."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import saflab.cli"], cwd=root, env=env,
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def end_to_end(units: list[UnitResult], clock: StepClock, setup_s: float,
               rss_mb: float) -> dict[str, float]:
    walls = [u.wall for u in units]
    steps = sorted(clock.steps)
    evals = sorted(clock.evals)
    total = sum(walls)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "steps_per_s": sum(u.steps for u in units) / total,
        "step_ms_p50": 1e3 * percentile(steps, 50),
        "eval_ms_p50": 1e3 * percentile(evals, 50),
        "runs_per_s": sum(u.seed_runs for u in units) / total,
        "tgt_acc_mean": statistics.fmean(units[0].tgt_accs),
        "peak_rss_mb": rss_mb,
    }


def samples_summary(values: list[float]) -> dict:
    """Sample count, median and the tail percentile the sample count supports."""
    s = sorted(values)
    tail = tail_percentile(len(s))
    out = {"n": len(s), "p50_ms": 1e3 * percentile(s, 50) if s else None}
    if tail is not None:
        out["tail"] = {"percentile": tail, "ms": 1e3 * percentile(s, tail)}
    return out


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_head(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "workload_seed": seed,
        "data_seed": derive_data_seed(seed),
        "unit": WORKLOADS[workload],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_head": _git_head(root),
        "env": {k: os.environ.get(k) for k in
                ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "SAF_LAB_THREADS")},
    }
