"""Tests of the benchmark's own helpers (run with pytest from the repository root)."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import saflab  # noqa: E402
import saflab.training  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50), (99, 50), (100, 90), (999, 90),
    (1000, 99), (9999, 99), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 99) == 99
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([7.0], 99) == 7.0


def test_self_time_subtracts_child_spans():
    # A [0, 10] holds B [1, 3] and C [4, 8]; C holds D [5, 6]
    ticks = iter([0, 1, 3, 4, 5, 6, 8, 10])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.open("A")
    tracer.open("B")
    tracer.close()
    tracer.open("C")
    tracer.open("D")
    tracer.close()
    tracer.close()
    tracer.close()
    agg = tracer.aggregates()
    assert agg[("A", "other")] == (1, 10, 4)
    assert agg[("B", "other")] == (1, 2, 2)
    assert agg[("C", "other")] == (1, 4, 3)
    assert agg[("D", "other")] == (1, 1, 1)


def test_phase_and_outermost_group_time():
    ticks = iter([0, 1, 2, 3, 5, 6])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.open("training.train_step")
    tracer.open("loss.outer", group="g")
    tracer.open("loss.inner", group="g")
    tracer.close()
    tracer.close()
    tracer.close()
    agg = tracer.aggregates()
    assert agg[("loss.inner", "step")] == (1, 1, 1)
    assert agg[("loss.outer", "step")] == (1, 4, 3)
    assert agg[("g", "step")] == (1, 4, 4)  # counted once, for the outer span
    assert agg[("training.train_step", "step")] == (1, 6, 2)


def test_runs_metrics_attribute_seed_runs_to_variants():
    raw = [
        ("runs.variant", 0.0, 10.0, None, 1),
        ("runs.seed_run", 0.5, 6.0, None, 2),
        ("runs.seed_run", 0.6, 9.5, None, 3),
        ("runs.variant", 10.0, 14.0, None, 1),
        ("runs.seed_run", 10.5, 13.5, None, 2),
    ]
    m = tracing.runs_metrics(raw, failed_variants=0, ablations=1)
    assert m["runs.workers"] == 1.5
    assert m["runs.variant_wall_s"] == 7.0
    assert m["runs.seed_run_s_p50"] == 5.5
    assert m["runs.concurrency"] == pytest.approx((5.5 + 8.9 + 3.0) / 14.0)


def _snapshot():
    attrs = {(mod.__name__, name): value
             for mod in tracing.saflab_modules() for name, value in vars(mod).items()}
    for cls in (saflab.Tensor, saflab.networks.MLP, saflab.ModelBundle):
        for name, value in vars(cls).items():
            attrs[(cls.__qualname__, name)] = value
    return attrs


def test_wrappers_are_removed_without_a_trace():
    before = _snapshot()
    patcher = tracing.Patcher()
    try:
        harness.StepClock().install(patcher)
        assert tracing.install(tracing.Tracer(), patcher) == []
        assert saflab.training.cross_entropy is not before[("saflab.training", "cross_entropy")]
        assert saflab.losses.add is not before[("saflab.losses", "add")]
        assert saflab.train_step is not before[("saflab", "train_step")]
        assert saflab.Tensor.__init__ is not before[("Tensor", "__init__")]
    finally:
        patcher.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracing_leaves_outputs_byte_identical(tmp_path):
    cfg = saflab.TrainConfig(backbone="mdd", total_iterations=12, eval_every=6,
                             batch_size=8, seed=3)
    src = saflab.gen_two_moons(saflab.DomainSpec(n_samples=40, seed=5))
    tgt = saflab.gen_two_moons(saflab.DomainSpec(n_samples=40, seed=5, rotation_deg=35.0), 1)
    plain = saflab.training.run_experiment(cfg, src, tgt, tmp_path / "plain")
    tracer, patcher = tracing.Tracer(), tracing.Patcher()
    try:
        tracing.install(tracer, patcher)
        traced = saflab.training.run_experiment(cfg, src, tgt, tmp_path / "traced")
    finally:
        patcher.restore()
    for name in ("model.txt", "metrics.csv"):
        assert (plain / name).read_bytes() == (traced / name).read_bytes()
    m = tracing.per_layer_metrics(tracer)
    assert m["training.evaluate.calls"] == pytest.approx(2 / 12)
    assert m["runs.seed_run_s_p50"] > 0


def test_same_workload_seed_gives_identical_inputs(tmp_path):
    def build(seed, name):
        d = tmp_path / name
        d.mkdir()
        harness.make_inputs("ablate_fanout", seed, d)
        return {f: (d / f).read_bytes() for f in harness.INPUT_FILES}

    first, again, other = build(7, "a"), build(7, "b"), build(8, "c")
    assert first == again
    assert first["source.csv"] != other["source.csv"]
    assert harness.derive_data_seed(7) == harness.derive_data_seed(7)
    assert np.unique([harness.derive_data_seed(s) for s in range(50)]).size == 50
