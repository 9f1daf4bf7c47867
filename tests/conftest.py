import numpy as np
import pytest

from saflab import TrainConfig, build_bundle


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def tiny_config(**kw) -> TrainConfig:
    """A miniature configuration for fast structural and gradient tests."""
    defaults = dict(
        backbone="dann",
        total_iterations=4,
        batch_size=4,
        eval_every=2,
        input_dim=2,
        f_widths=(5, 4),
        bottleneck_dim=3,
        saf_dim=3,
        num_classes=2,
        dropout=0.0,
        seed=0,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture
def tiny_bundle():
    cfg = tiny_config()
    return build_bundle(cfg, np.random.default_rng(1)), cfg


@pytest.fixture(scope="module")
def golden_run(request, tmp_path_factory):
    """name -> (the test module's ``pinned_run(name, out_dir)``, out_dir); each
    pinned run of a golden module runs once."""
    runs = {}

    def run(name):
        if name not in runs:
            out = tmp_path_factory.mktemp(name)
            runs[name] = request.module.pinned_run(name, out), out
        return runs[name]

    return run
