"""In-process A/B timing of the working tree against a parent saflab tree.

    OMP_NUM_THREADS=1 python tools/ab.py --parent HEAD~1
        [--blocks 60] [--calls 30] [--repeats 3] [--numerics-change] [--out ab.json]

Both trees are imported into this one process (``tools/trees.py``): the
parent (a git revision or a directory) as ``saflab_parent``, the working
tree as ``saflab_change``.  Each target builds the same config, data and
seed on both sides, and then, in every repeat, runs N blocks of M calls per
side.  The side that goes first flips every block, so slow drifts of the
host hit both sides alike.  A block's
ratio is the change's time for its M calls over the parent's.  After every
block the two sides' parameter buffers (values, velocity and batch-norm
statistics) and last outputs must be equal by bytes; ``--numerics-change``
drops that check for a change that moves numbers on purpose, and the report
says so.

For each target and repeat the JSON report holds the median ratio, a
bootstrap 95 % interval of that median over the blocks, and the share of
blocks the change was faster in; it also records the machine, the versions
and both revisions.  A repeat's interval shows only the block-to-block
noise of one setup.  Each repeat builds both sides afresh, and a setup
shifts its ratio by up to about 2 % (an A/A run's repeats miss 1.0 far more
often than 5 % of the time), so each target also gets a 95 % interval
across the repeats: Student's t on the logs of the repeats' median ratios.

Decision rule:

- a gain is claimed only if the across-repeat interval's upper end, and
  every repeat's, is below 0.97;
- a slowdown is an across-repeat or a repeat interval whose lower end is
  above 1.03;
- anything else resolves no change.

This rule judges an in-step change finely; the benchmark's end-to-end
verdict on a change is separate and unaffected by it.

Both trees share one process, and so one heap and one allocator.  A change
at the allocator level, such as the glibc trim threshold that importing
saflab pins, acts on both sides at once and is invisible here.  Such a
change is judged only by interleaved pairs of separate benchmark runs.

Exit status: 0 when the report is written, 1 on bad arguments or an
unknown revision, 2 when the two sides' bytes differ.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import trees

GAIN_BELOW = 0.97
SLOWDOWN_ABOVE = 1.03
BOOTSTRAP = 2000
# Student's t 0.975 quantiles for 1..10 degrees of freedom, so 2..11 repeats
T975 = (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228)


class BytesDiffer(RuntimeError):
    """The two sides' parameters or outputs differ after a block."""


def _moons(mod):
    """Two-moons source and 35-degree rotated target, 400 rows each."""
    data = mod.data
    spec = data.DomainSpec(n_samples=400, noise_sd=0.15, seed=0)
    return (data.gen_two_moons(spec),
            data.gen_two_moons(replace(spec, rotation_deg=35.0), domain_tag=data.TARGET_TAG))


def _state_bytes(bundle) -> bytes:
    return (b"".join(a.tobytes() for _, a in bundle.named_arrays())
            + bundle.buffer.velocity.tobytes())


def _train_step(backbone):
    """``train_step`` of a saf run, fed and seeded as ``run_experiment`` does."""
    def make(mod, workdir):
        cfg = mod.training.TrainConfig(backbone=backbone)
        source, target = _moons(mod)
        init_ss, src_ss, tgt_ss, step_ss = np.random.SeedSequence(cfg.seed).spawn(4)
        bundle = mod.networks.build_bundle(cfg, np.random.default_rng(init_ss))
        src = mod.data.cycle_batches(source, cfg.batch_size, np.random.default_rng(src_ss))
        tgt = mod.data.cycle_batches(target.without_labels(), cfg.batch_size,
                                     np.random.default_rng(tgt_ss))
        rng, t, last = np.random.default_rng(step_ss), itertools.count(), [None]

        def call():
            last[0] = mod.training.train_step(bundle, next(src), next(tgt), cfg, next(t), rng)

        return call, lambda: _state_bytes(bundle) + repr(last[0]).encode()
    return make


def _evaluate(mod, workdir):
    """``evaluate`` of a dann+saf bundle on all 400 + 400 rows."""
    cfg = mod.training.TrainConfig(backbone="dann")
    source, target = _moons(mod)
    bundle = mod.networks.build_bundle(cfg, np.random.default_rng(cfg.seed))
    last = [None]

    def call():
        last[0] = mod.training.evaluate(bundle, source, target, cfg)

    return call, lambda: _state_bytes(bundle) + repr(last[0]).encode()


def _save_params(mod, workdir):
    """``save_params`` of an mdd+saf bundle, each side to its own file."""
    cfg = mod.training.TrainConfig()
    bundle = mod.networks.build_bundle(cfg, np.random.default_rng(cfg.seed))
    path = Path(workdir) / f"{mod.__name__}.txt"
    return lambda: bundle.save_params(path), path.read_bytes


TARGETS = {
    "mdd_saf_step": _train_step("mdd"),
    "dann_saf_step": _train_step("dann"),
    "evaluate": _evaluate,
    "save_params": _save_params,
}


def _time_block(call, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        call()
    return time.perf_counter() - start


def summarize(times: np.ndarray, calls: int) -> dict:
    """One repeat's figures from its blocks x (parent, change) seconds."""
    ratio = times[:, 1] / times[:, 0]
    resampled = ratio[np.random.default_rng(0).integers(0, ratio.size, (BOOTSTRAP, ratio.size))]
    lo, hi = np.percentile(np.median(resampled, axis=1), [2.5, 97.5])
    parent_ms, change_ms = np.median(times, axis=0) / calls * 1e3
    return {"median_ratio": float(np.median(ratio)), "ci95": [float(lo), float(hi)],
            "change_won_share": float((ratio < 1.0).mean()),
            "parent_ms_per_call": float(parent_ms), "change_ms_per_call": float(change_ms)}


def across_repeats(repeats: list[dict]) -> dict:
    """The geometric mean of the repeats' median ratios and its t interval."""
    logs = np.log([r["median_ratio"] for r in repeats])
    half = T975[logs.size - 2] * logs.std(ddof=1) / np.sqrt(logs.size)
    return {"ratio": float(np.exp(logs.mean())),
            "ci95": [float(np.exp(logs.mean() - half)), float(np.exp(logs.mean() + half))]}


def verdict(overall: dict, repeats: list[dict]) -> str:
    """The decision rule of the module docstring over one target's intervals."""
    intervals = [overall["ci95"]] + [r["ci95"] for r in repeats]
    if all(hi < GAIN_BELOW for _, hi in intervals):
        return "gain"
    if any(lo > SLOWDOWN_ABOVE for lo, _ in intervals):
        return "slowdown"
    return "no change resolved"


def run(parent, change, workdir, *, targets=tuple(TARGETS), blocks=60, calls=30, repeats=3,
        check_bytes=True) -> dict:
    """Target name -> its per-repeat summaries, across-repeat interval and
    verdict.  Raises :class:`BytesDiffer` when ``check_bytes`` and the sides
    disagree."""
    if not 2 <= repeats <= len(T975) + 1:
        raise ValueError(f"repeats must be in [2, {len(T975) + 1}], got {repeats}")
    results = {}
    for name in targets:
        summaries = []
        for rep in range(repeats):
            sides = [TARGETS[name](mod, workdir) for mod in (parent, change)]
            for call, _ in sides:  # warm-up, untimed
                _time_block(call, calls)
            times = np.empty((blocks, 2))
            for block in range(blocks):
                for s in ((0, 1) if block % 2 == 0 else (1, 0)):
                    times[block, s] = _time_block(sides[s][0], calls)
                if check_bytes and sides[0][1]() != sides[1][1]():
                    raise BytesDiffer(f"{name}, repeat {rep}, block {block}: the parent's and "
                                      "the change's parameters or outputs differ")
            summaries.append(summarize(times, calls))
        overall = across_repeats(summaries)
        results[name] = {"repeats": summaries, "across_repeats": overall,
                         "verdict": verdict(overall, summaries)}
    return results


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _int_in(low: int, high: int | None = None):
    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"must be in [{low}, {high or 'inf'}], got {value}")
        return value
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(prog="tools/ab.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision or directory of the parent")
    p.add_argument("--blocks", type=_int_in(1), default=60)
    p.add_argument("--calls", type=_int_in(1), default=30)
    p.add_argument("--repeats", type=_int_in(2, len(T975) + 1), default=3)
    p.add_argument("--numerics-change", action="store_true",
                   help="skip the bytes check, for a change that moves numbers on purpose")
    p.add_argument("--out", type=Path, default=Path("ab.json"))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        revisions = {"parent": trees.describe(args.parent), "change": trees.describe(trees.ROOT)}
        parent = trees.load(args.parent, "saflab_parent")
        change = trees.load(trees.ROOT, "saflab_change")
    except ValueError as exc:
        print(f"tools/ab.py: error: {exc}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="saflab-ab-") as workdir:
        try:
            results = run(parent, change, workdir, blocks=args.blocks, calls=args.calls,
                          repeats=args.repeats, check_bytes=not args.numerics_change)
        except BytesDiffer as exc:
            print(f"tools/ab.py: bytes differ: {exc}", file=sys.stderr)
            return 2
    report = {
        "parent": {"source": args.parent, "revision": revisions["parent"]},
        "change": {"source": "working tree", "revision": revisions["change"]},
        "protocol": {"blocks": args.blocks, "calls": args.calls, "repeats": args.repeats,
                     "bootstrap": BOOTSTRAP, "bytes_checked": not args.numerics_change},
        "numerics_change": args.numerics_change,
        "decision": {"gain_if_every_upper_below": GAIN_BELOW,
                     "slowdown_if_any_lower_above": SLOWDOWN_ABOVE},
        "machine": {"cpu_model": _cpu_model(), "nproc": os.cpu_count(),
                    "affinity": len(os.sched_getaffinity(0)), "platform": platform.platform()},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")},
        "targets": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, res in results.items():
        for i, r in enumerate(res["repeats"]):
            lo, hi = r["ci95"]
            print(f"{name:14s} repeat {i}: ratio {r['median_ratio']:.3f} [{lo:.3f}, {hi:.3f}], "
                  f"change won {r['change_won_share']:.0%}")
        lo, hi = res["across_repeats"]["ci95"]
        print(f"{name:14s} across repeats: ratio {res['across_repeats']['ratio']:.3f} "
              f"[{lo:.3f}, {hi:.3f}], verdict: {res['verdict']}")
    if args.numerics_change:
        print("bytes not checked (--numerics-change)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
