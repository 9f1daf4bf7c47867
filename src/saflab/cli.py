"""Command-line surface: dataset generation, training, evaluation,
ablation sweeps, and 2-D embedding export.

Exit status: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import documented_default_text, read_config
from .data import (
    DomainSpec,
    SOURCE_TAG,
    TARGET_TAG,
    csv_text,
    gen_gaussian_blobs,
    gen_two_moons,
    write_all,
)
from .embed import export_embeddings
from .exceptions import SafLabError
from .networks import build_bundle
from .runs import load_datasets, load_fitted, run_ablation, run_with_seeds
from .training import METRICS_HEADER, evaluate

USAGE_EXIT = 1
RUNTIME_EXIT = 2
MAX_SEEDS = 10_000  # each seed is a whole training run

_BLOB_CENTERS = [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.5)]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we promise 1.  A negative
    number in exponent form (``-1e3``, ``-.5E-2``) or a negative ``inf``,
    ``infinity`` or ``nan`` in any case is a value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _parse_seeds(raw: str) -> list[int]:
    """`lo..hi` (inclusive, at most MAX_SEEDS of them) or `a,b,c`: a non-empty
    list of unique seeds >= 0."""
    try:
        if ".." in raw:
            lo, hi = (int(p) for p in raw.split("..", 1))
            if hi - lo >= MAX_SEEDS:
                raise argparse.ArgumentTypeError(f"{raw!r} spans more than {MAX_SEEDS} seeds")
            seeds = list(range(lo, hi + 1))
        else:
            seeds = [int(p) for p in raw.split(",") if p.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers as lo..hi or a,b,c, got {raw!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"{raw!r} names no seeds")
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"{raw!r} repeats a seed")
    if min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"seeds must be >= 0, got {raw!r}")
    return seeds


def cmd_gen_data(args) -> int:
    if args.kind == "two_moons" and args.classes is not None:
        args.parser.error("argument --classes: not allowed with --kind two_moons, "
                          "which has 2 classes")
    src_spec = DomainSpec(
        generator=args.kind,
        n_samples=args.samples,
        noise_sd=args.noise,
        seed=args.seed,
    )
    tgt_spec = replace(
        src_spec,
        rotation_deg=args.rotation,
        translation=(args.translate_x, args.translate_y),
        scale=args.scale,
    )
    out = Path(args.out)
    manifest = {
        "source": asdict(src_spec),
        "target": asdict(tgt_spec),
        "files": {"source": "source.csv", "target": "target.csv"},
    }
    if args.kind == "two_moons":
        src = gen_two_moons(src_spec, SOURCE_TAG)
        tgt = gen_two_moons(tgt_spec, TARGET_TAG)
    else:
        manifest["centers"] = centers = _BLOB_CENTERS[: args.classes or 2]
        src = gen_gaussian_blobs(src_spec, centers, SOURCE_TAG)
        tgt = gen_gaussian_blobs(tgt_spec, centers, TARGET_TAG)
    write_all({
        out / "source.csv": csv_text(src),
        out / "target.csv": csv_text(tgt),
        out / "data_manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    })
    print(f"wrote {out / 'source.csv'}, {out / 'target.csv'}, {out / 'data_manifest.json'}")
    return 0


def cmd_train(args) -> int:
    cfg = read_config(args.config)
    seeds, out = args.seeds or [cfg.train.seed], Path(args.out)
    source, target = load_datasets(cfg, Path(args.config).parent)
    agg = run_with_seeds(cfg, seeds, out, source, target)["aggregate"]
    print(f"{len(seeds)} runs -> {out}: mean tgt acc "
          f"{agg['mean_target_accuracy']:.4f} (sd {agg['sd_target_accuracy']:.4f})")
    return 0


def _load_model(args):
    """The config, both labeled datasets and the saved model that ``args`` name."""
    cfg = read_config(args.config)
    src = load_fitted(cfg.train, args.source, SOURCE_TAG)
    tgt = load_fitted(cfg.train, args.target, TARGET_TAG)
    bundle = build_bundle(cfg.train, np.random.default_rng(cfg.train.seed))
    bundle.load_params(args.model)
    return cfg, src, tgt, bundle


def cmd_eval(args) -> int:
    cfg, src, tgt, bundle = _load_model(args)
    rec = evaluate(bundle, src, tgt, cfg.train)
    print(METRICS_HEADER)
    print(rec.csv_row())
    return 0


def cmd_ablate(args) -> int:
    cfg = read_config(args.config)
    table = run_ablation(cfg, args.seeds, Path(args.out), Path(args.config).parent)
    print(table.read_text(encoding="utf-8"), end="")
    return 0


def cmd_export_embeddings(args) -> int:
    _, src, tgt, bundle = _load_model(args)
    out = Path(args.out)
    export_embeddings(bundle, src, tgt, out / "embeddings.csv", out / "embeddings.svg")
    print(f"wrote {out / 'embeddings.csv'} and {out / 'embeddings.svg'}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="saflab", description=__doc__)
    parser.add_argument("--print-config", action="store_true",
                        help="print the documented default config and exit")
    sub = parser.add_subparsers(dest="command")

    g = sub.add_parser("gen-data", help="generate a shifted source/target dataset pair")
    spec = DomainSpec()
    g.add_argument("--kind", choices=["two_moons", "gaussian_blobs"], default=spec.generator)
    g.add_argument("--samples", type=int, default=spec.n_samples)
    g.add_argument("--noise", type=float, default=spec.noise_sd)
    g.add_argument("--rotation", type=float, default=35.0)
    g.add_argument("--translate-x", type=float, default=spec.translation[0])
    g.add_argument("--translate-y", type=float, default=spec.translation[1])
    g.add_argument("--scale", type=float, default=spec.scale)
    g.add_argument("--classes", type=int, choices=range(2, len(_BLOB_CENTERS) + 1),
                   help="gaussian_blobs class count (default 2); refused with two_moons")
    g.add_argument("--seed", type=int, default=spec.seed)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data, parser=g)

    t = sub.add_parser("train", help="run one configuration, optionally over several seeds")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seeds", type=_parse_seeds, help="e.g. 0..4 or 0,1,2; default: train.seed")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a saved model on labeled datasets")
    e.add_argument("--config", required=True)
    e.add_argument("--model", required=True)
    e.add_argument("--source", required=True)
    e.add_argument("--target", required=True)
    e.set_defaults(fn=cmd_eval)

    a = sub.add_parser("ablate", help="run the ten-variant modification grid")
    a.add_argument("--config", required=True)
    a.add_argument("--seeds", type=_parse_seeds, default="0..4")
    a.add_argument("--out", required=True)
    a.set_defaults(fn=cmd_ablate)

    x = sub.add_parser("export-embeddings", help="project bottleneck activations to 2-D")
    x.add_argument("--config", required=True)
    x.add_argument("--model", required=True)
    x.add_argument("--source", required=True)
    x.add_argument("--target", required=True)
    x.add_argument("--out", required=True)
    x.set_defaults(fn=cmd_export_embeddings)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_config:
        print(documented_default_text(), end="")
        return 0
    if getattr(args, "fn", None) is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    try:
        return args.fn(args)
    except (SafLabError, OSError) as exc:
        print(f"saflab: error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
