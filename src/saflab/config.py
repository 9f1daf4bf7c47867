"""Flat `key = value` config files with sections, parsed strictly.

Unknown sections or keys are rejected by name; `#` starts a comment.  One
table, :data:`TABLE`, drives parsing, defaults, default documentation
(`--print-config`) and canonical serialization for run-directory snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Any, Callable, NamedTuple

from .data import read_text
from .exceptions import ConfigError
from .mixup import MixupPolicy
from .training import TrainConfig


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ConfigError(f"expected on/off, got {raw!r}")


def _parse_widths(raw: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(p) for p in raw.split(",") if p.strip() != "")
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from None
    if not widths:
        raise ConfigError("need at least one width")
    return widths


def _parse_threshold(raw: str):
    if raw.strip().lower() == "auto":
        return None
    return float(raw)


def _fmt_bool(v: bool) -> str:
    return "on" if v else "off"


def _fmt_widths(v) -> str:
    return ",".join(str(w) for w in v)


def _fmt_threshold(v) -> str:
    return "auto" if v is None else repr(float(v))


class Key(NamedTuple):
    """One config key: where it lives in the file and in the dataclasses."""

    section: str
    key: str
    owner: str  # "file" (FileConfig), "train" (TrainConfig) or "mixup" (MixupPolicy)
    attr: str
    parse: Callable[[str], Any]
    fmt: Callable[[Any], str]
    comment: str = ""


# serialization order; each section's keys must stay contiguous (_render groups them)
TABLE = (
    Key("data", "source", "file", "source_path", str, str, "labeled source CSV"),
    Key("data", "target", "file", "target_path", str, str,
        "labeled target CSV (labels used for evaluation only)"),
    Key("model", "backbone", "train", "backbone", str, str, "dann | mdd"),
    Key("model", "input_dim", "train", "input_dim", int, str, "feature width of the raw data"),
    Key("model", "f_widths", "train", "f_widths", _parse_widths, _fmt_widths,
        "extractor layer widths, last = feature dim"),
    Key("model", "bottleneck_dim", "train", "bottleneck_dim", int, str),
    Key("model", "saf_dim", "train", "saf_dim", int, str, "mixup bottleneck output width"),
    Key("model", "num_classes", "train", "num_classes", int, str),
    Key("model", "saf_bottlenecks", "train", "saf_bottlenecks", int, str,
        "parallel mixup bottlenecks (2 = standard)"),
    Key("model", "dropout", "train", "dropout", float, repr,
        "rate used in bottleneck/classifier/adversary"),
    Key("train", "iterations", "train", "total_iterations", int, str, "total optimization steps"),
    Key("train", "batch_size", "train", "batch_size", int, str),
    Key("train", "base_lr", "train", "base_lr", float, repr,
        "extractor/adversary rate; bottleneck/classifier/mixup run 10x"),
    Key("train", "momentum", "train", "momentum", float, repr, "Nesterov momentum"),
    Key("train", "lambda_d_max", "train", "lambda_d_max", float, repr, "adversarial ramp ceiling"),
    Key("train", "lambda_m_max", "train", "lambda_m_max", float, repr, "mixup ramp ceiling"),
    Key("train", "margin_gamma", "train", "margin_gamma", float, repr,
        "source-term weight of the mdd adversary loss"),
    Key("train", "saf", "train", "saf_enabled", _parse_bool, _fmt_bool,
        "enable the mixup supervision branch"),
    Key("train", "eval_every", "train", "eval_every", int, str, "evaluation cadence in steps"),
    Key("train", "seed", "train", "seed", int, str),
    Key("mixup", "mode", "mixup", "mode", str, str, "saf | beta | constant"),
    Key("mixup", "beta_alpha", "mixup", "beta_alpha", float, repr,
        "Beta(alpha, alpha) used in beta mode"),
    Key("mixup", "constant_eta", "mixup", "constant_eta", float, repr,
        "weight used in constant mode"),
    Key("mixup", "entropy_filter", "mixup", "entropy_filter", str, str,
        "none | only_uncertain | only_certain"),
    Key("mixup", "entropy_threshold", "mixup", "entropy_threshold", _parse_threshold,
        _fmt_threshold, "auto = half the maximum entropy log(K)"),
    Key("mixup", "include_source", "mixup", "include_source", _parse_bool, _fmt_bool,
        "append source rows to the mixing pool"),
    Key("mixup", "after_bottleneck", "train", "mixup_after_bottleneck", _parse_bool, _fmt_bool,
        "mix bottleneck outputs instead of extractor outputs"),
)

_KEYS = {(k.section, k.key): k for k in TABLE}
_SECTIONS = {k.section for k in TABLE}


@dataclass
class FileConfig:
    """A parsed config file: dataset paths plus the training configuration."""

    source_path: str
    target_path: str
    train: TrainConfig

    def pairs(self) -> dict[tuple[str, str], str]:
        """Formatted `(section, key) -> value` for every key, in file order."""
        owners = {"file": self, "train": self.train, "mixup": self.train.mixup}
        return {(k.section, k.key): k.fmt(getattr(owners[k.owner], k.attr)) for k in TABLE}


def default_config() -> FileConfig:
    return FileConfig("source.csv", "target.csv", TrainConfig())


def parse_pairs(text: str) -> dict[tuple[str, str], str]:
    """Raw `(section, key) -> value` pairs; strict about names and shape."""
    pairs: dict[tuple[str, str], str] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, value = (p.strip() for p in line.split("=", 1))
        if (section, key) not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")
        pairs[(section, key)] = value
    return pairs


def build_config(pairs: dict[tuple[str, str], str]) -> FileConfig:
    """Defaults overlaid with the given pairs, validated by the dataclasses;
    every :class:`ConfigError` names its ``section.key``."""
    merged = default_config().pairs()
    merged.update(pairs)
    kwargs: dict[str, dict[str, Any]] = {"file": {}, "train": {}, "mixup": {}}
    for k in TABLE:
        try:
            value = k.parse(merged[(k.section, k.key)])
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"must be finite, got {value}")
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{k.section}.{k.key}: {exc}") from None
        kwargs[k.owner][k.attr] = value
    try:
        train = TrainConfig(mixup=MixupPolicy(**kwargs["mixup"]), **kwargs["train"])
    except ConfigError as exc:  # its message starts with the field's name
        k = next(k for k in TABLE if k.attr == str(exc).split(" ", 1)[0])
        raise ConfigError(f"{k.section}.{k.key}: {exc}") from None
    return FileConfig(train=train, **kwargs["file"])


def parse_config(text: str) -> FileConfig:
    return build_config(parse_pairs(text))


def read_config(path) -> FileConfig:
    """The config at ``path``, refused if it never evaluates; each error starts with the path."""
    text = read_text(path, ConfigError)
    try:
        if (cfg := parse_config(text)).train.eval_every > cfg.train.total_iterations:
            raise ConfigError(f"train.eval_every: {cfg.train.eval_every} exceeds train.iterations"
                              f" = {cfg.train.total_iterations}, so the run writes no evaluation row")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return cfg


def _render(cfg: FileConfig, comments: bool) -> str:
    pairs = cfg.pairs()
    lines = []
    for section, keys in groupby(TABLE, key=attrgetter("section")):
        lines.append(f"[{section}]")
        for k in keys:
            entry = f"{k.key} = {pairs[(section, k.key)]}"
            lines.append(f"{entry}  # {k.comment}" if comments and k.comment else entry)
        lines.append("")
    return "\n".join(lines)


def serialize_config(cfg: FileConfig) -> str:
    """Canonical text form: every key in table order, no comments."""
    return _render(cfg, comments=False)


def documented_default_text() -> str:
    """Default config with one comment per documented key (--print-config)."""
    return _render(default_config(), comments=True)
