"""Strict config parsing, defaults, round-trips and overrides."""

import pytest
from hypothesis import given, strategies as st

from saflab import ConfigError, MixupPolicy, TrainConfig
from saflab.config import (
    TABLE,
    FileConfig,
    build_config,
    default_config,
    documented_default_text,
    parse_config,
    parse_pairs,
    serialize_config,
)
from saflab.mixup import ENTROPY_FILTERS, MIX_MODES


def _parses_floats(key) -> bool:
    try:
        return isinstance(key.parse("0.5"), float)
    except (ValueError, ConfigError):
        return False


_FLOAT_KEYS = [k for k in TABLE if _parses_floats(k)]


class TestParsing:
    def test_defaults_round_trip(self):
        cfg = default_config()
        text = serialize_config(cfg)
        again = parse_config(text)
        assert serialize_config(again) == text

    def test_documented_text_parses_to_defaults(self):
        cfg = parse_config(documented_default_text())
        assert serialize_config(cfg) == serialize_config(default_config())

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="train.warmup"):
            parse_config("[train]\nwarmup = 5\n")

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match=r"\[optimizer\]"):
            parse_config("[optimizer]\nlr = 1\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("seed = 3\n")

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="train.batch_size"):
            parse_config("[train]\nbatch_size = many\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# top\n[train]\nseed = 9  # inline\n\n[model]\nbackbone = dann\n")
        assert cfg.train.seed == 9
        assert cfg.train.backbone == "dann"

    def test_partial_file_overlays_defaults(self):
        cfg = parse_config("[train]\niterations = 77\n")
        assert cfg.train.total_iterations == 77
        assert cfg.train.batch_size == default_config().train.batch_size

    def test_mixup_section_flows_through(self):
        cfg = parse_config(
            "[mixup]\nmode = beta\nentropy_filter = only_uncertain\n"
            "entropy_threshold = 0.25\ninclude_source = on\nafter_bottleneck = on\n"
        )
        assert cfg.train.mixup.mode == "beta"
        assert cfg.train.mixup.entropy_filter == "only_uncertain"
        assert cfg.train.mixup.entropy_threshold == 0.25
        assert cfg.train.mixup.include_source is True
        assert cfg.train.mixup_after_bottleneck is True

    def test_auto_threshold_serializes_as_auto(self):
        cfg = default_config()
        assert "entropy_threshold = auto" in serialize_config(cfg)

    def test_override_pairs_beat_file(self):
        pairs = parse_pairs("[train]\nsaf = on\n")
        pairs[("train", "saf")] = "off"
        cfg = build_config(pairs)
        assert cfg.train.saf_enabled is False

    def test_float_keys(self):
        assert {k.key for k in _FLOAT_KEYS} == {
            "dropout", "base_lr", "momentum", "lambda_d_max", "lambda_m_max", "margin_gamma",
            "beta_alpha", "constant_eta", "entropy_threshold"}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", _FLOAT_KEYS, ids=lambda k: f"{k.section}.{k.key}")
    def test_non_finite_float_rejected_naming_key(self, key, value):
        with pytest.raises(ConfigError) as exc:
            build_config({(key.section, key.key): value})
        assert str(exc.value) == f"{key.section}.{key.key}: must be finite, got {value}"

    @pytest.mark.parametrize("changes", [
        {"dropout": 1.0}, {"dropout": -0.1}, {"dropout": float("nan")}, {"f_widths": ()},
    ])
    def test_train_config_rejects_bad_layer_values(self, changes):
        with pytest.raises(ConfigError):
            TrainConfig(**changes)

    def test_invalid_semantic_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[train]\nbatch_size = 1\n")
        with pytest.raises(ConfigError):
            parse_config("[mixup]\nmode = lottery\n")


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


_policies = st.builds(
    MixupPolicy,
    mode=st.sampled_from(MIX_MODES),
    beta_alpha=_floats(0.0, 100.0, exclude_min=True),
    constant_eta=_floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    entropy_filter=st.sampled_from(ENTROPY_FILTERS),
    entropy_threshold=st.none() | _floats(0.0, 10.0),
    include_source=st.booleans(),
)

_train_configs = st.builds(
    TrainConfig,
    backbone=st.sampled_from(("dann", "mdd")),
    total_iterations=st.integers(1, 10**6),
    batch_size=st.integers(2, 1024),
    base_lr=_floats(0.0, 10.0, exclude_min=True),
    momentum=_floats(0.0, 1.0),
    lambda_d_max=_floats(0.0, 1.0),
    lambda_m_max=_floats(0.0, 1.0),
    margin_gamma=_floats(1.0, 100.0, exclude_min=True),
    saf_enabled=st.booleans(),
    eval_every=st.integers(1, 10**4),
    seed=st.integers(0, 2**32 - 1),
    mixup=_policies,
    input_dim=st.integers(1, 64),
    f_widths=st.lists(st.integers(1, 256), min_size=1, max_size=4).map(tuple),
    bottleneck_dim=st.integers(1, 64),
    saf_dim=st.integers(1, 64),
    num_classes=st.integers(2, 10),
    saf_bottlenecks=st.integers(1, 8),
    dropout=_floats(0.0, 1.0, exclude_max=True),
    mixup_after_bottleneck=st.booleans(),
)

_paths = st.from_regex(r"[A-Za-z0-9_./-]{1,24}", fullmatch=True)


@given(st.builds(FileConfig, source_path=_paths, target_path=_paths, train=_train_configs))
def test_serialize_parse_round_trip(cfg):
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text
