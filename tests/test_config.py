"""Strict config parsing, defaults, round-trips and overrides."""

import math
from unittest import mock

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
    read_config,
    serialize_config,
)
from saflab.mixup import ENTROPY_FILTERS, MIX_MODES
from saflab.networks import MLP, parameter_counts
from saflab.training import MAX_BOTTLENECKS, MAX_ITERATIONS, MAX_PARAMETERS, MAX_WIDTH


def _parses_floats(key) -> bool:
    try:
        return isinstance(key.parse("0.5"), float)
    except (ValueError, ConfigError):
        return False


_FLOAT_KEYS = [k for k in TABLE if _parses_floats(k)]


def _parses_ints(key) -> bool:
    try:
        return type(key.parse("3")) in (int, tuple)  # f_widths: a tuple of ints
    except (ValueError, ConfigError):
        return False


_INT_KEYS = [k for k in TABLE if _parses_ints(k)]


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

    @pytest.mark.parametrize("text, message", [
        ("[train]\nbatch_size = 1\n", "train.batch_size: batch_size must be >= 2, got 1"),
        ("[train]\nwarmup = 5\n", "line 2: unknown key train.warmup"),
        ("[train]\niterations = 4\n\n[model]\nbackbone = dann\n[train]\niterations = 6\n",
         "line 7: train.iterations is already set on line 2"),
        ("[model]\nbackbone = dann\n# again\n[model]\nbackbone = mdd\n",
         "line 5: model.backbone is already set on line 2"),
    ])
    def test_read_config_errors_start_with_the_path(self, tmp_path, text, message):
        path = tmp_path / "lab.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            read_config(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_repeated_section_with_new_keys_is_legal(self):
        cfg = parse_config("[train]\nseed = 9\n[model]\nbackbone = dann\n"
                           "[train]\niterations = 6\n")
        assert (cfg.train.seed, cfg.train.backbone, cfg.train.total_iterations) == (9, "dann", 6)

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

    def test_int_keys(self):
        assert {k.key for k in _INT_KEYS} == {
            "input_dim", "f_widths", "bottleneck_dim", "saf_dim", "num_classes",
            "saf_bottlenecks", "iterations", "batch_size", "eval_every", "seed"}

    def test_size_caps_are_inclusive(self):
        # each field at its own cap, alone where the parameter cap allows it: a bottleneck
        # at MAX_WIDTH feeds two MAX_WIDTH-square layers, so the parameter cap refuses it
        caps = {("model", "input_dim"): MAX_WIDTH, ("model", "saf_dim"): MAX_WIDTH,
                ("model", "num_classes"): MAX_WIDTH, ("model", "f_widths"): MAX_WIDTH,
                ("model", "saf_bottlenecks"): MAX_BOTTLENECKS,
                ("train", "iterations"): MAX_ITERATIONS}
        for key, cap in caps.items():
            assert build_config({key: str(cap)}).pairs()[key] == str(cap)
        with pytest.raises(ConfigError, match="^model.bottleneck_dim: .* above the cap of "):
            build_config({("model", "bottleneck_dim"): str(MAX_WIDTH)})
        # the parameter cap's own boundary, with no layer built: a model of exactly
        # MAX_PARAMETERS passes, and one more F input (MAX_WIDTH more weights) does not
        at_cap = {"input_dim": 4, "f_widths": MAX_WIDTH, "bottleneck_dim": 1, "saf_dim": 4088,
                  "saf_bottlenecks": 1}
        with mock.patch.object(MLP, "__init__", side_effect=AssertionError("built a layer")):
            train = build_config({("model", k): str(v) for k, v in at_cap.items()}).train
            assert sum(parameter_counts(train).values()) == MAX_PARAMETERS
            at_cap["input_dim"] += 1
            with pytest.raises(ConfigError) as exc:
                build_config({("model", k): str(v) for k, v in at_cap.items()})
        assert str(exc.value) == (f"model.saf_dim: saf_dim sizes the largest share of the "
                                  f"model's {MAX_PARAMETERS + MAX_WIDTH} parameters, above the "
                                  f"cap of {MAX_PARAMETERS}")

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

    @pytest.mark.parametrize("key, value", [
        ("model.backbone", "resnet"), ("model.input_dim", "0"), ("model.f_widths", "4,0"),
        ("model.bottleneck_dim", "0"), ("model.saf_dim", "0"), ("model.num_classes", "1"),
        ("model.saf_bottlenecks", "0"), ("model.dropout", "1.0"), ("train.iterations", "0"),
        ("train.batch_size", "1"), ("train.base_lr", "-0.0"), ("train.momentum", "-1e-9"),
        ("train.lambda_d_max", "-1e308"), ("train.lambda_m_max", "-1.0"),
        ("train.margin_gamma", "1.0"), ("train.eval_every", "0"), ("train.seed", "-1"),
        ("mixup.mode", "lottery"), ("mixup.beta_alpha", "0.0"), ("mixup.constant_eta", "1.0"),
        ("mixup.entropy_filter", "some"), ("mixup.entropy_threshold", "-0.5"),
        ("model.input_dim", "4097"), ("model.f_widths", "8,4097"),
        ("model.f_widths", str(10**30)), ("model.bottleneck_dim", str(10**30)),
        ("model.saf_dim", "4097"), ("model.num_classes", str(10**30)),
        ("model.saf_bottlenecks", "65"), ("model.saf_bottlenecks", str(10**30)),
        ("train.iterations", str(MAX_ITERATIONS + 1)),
    ])
    def test_range_error_names_key(self, key, value):
        section, name = key.split(".")
        with pytest.raises(ConfigError) as exc:
            build_config({(section, name): value})
        assert str(exc.value).startswith(f"{key}: "), str(exc.value)

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


_EDGE_FLOATS = (st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e308, -1e308])
                | st.floats(-2.0, 5.0))


@given(st.dictionaries(st.sampled_from(_FLOAT_KEYS), _EDGE_FLOATS, min_size=1))
def test_float_keys_fail_by_name_or_round_trip(values):
    """Any float in any float key: a ConfigError naming one of the keys set,
    or a config that survives serialize -> parse unchanged."""
    try:
        cfg = build_config({(k.section, k.key): repr(v) for k, v in values.items()})
    except ConfigError as exc:
        assert any(str(exc).startswith(f"{k.section}.{k.key}: ") for k in values), str(exc)
    else:
        assert parse_config(serialize_config(cfg)) == cfg


_EDGE_INTS = (st.sampled_from([10**30, -10**30, 0, -1, MAX_WIDTH, MAX_WIDTH + 1,
                                MAX_BOTTLENECKS, MAX_BOTTLENECKS + 1])
              | st.integers(-3, 5000))


@given(st.dictionaries(st.sampled_from(_INT_KEYS), _EDGE_INTS, min_size=1))
def test_int_keys_fail_by_name_or_round_trip(values):
    """Any int in any int key, 10**30 included: a ConfigError naming one of
    the keys set, or a config that survives serialize -> parse unchanged.
    No layer is built on the way."""
    with mock.patch.object(MLP, "__init__", side_effect=AssertionError("built a layer")):
        try:
            cfg = build_config({(k.section, k.key): str(v) for k, v in values.items()})
        except ConfigError as exc:
            assert any(str(exc).startswith(f"{k.section}.{k.key}: ") for k in values), str(exc)
        else:
            assert parse_config(serialize_config(cfg)) == cfg


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
