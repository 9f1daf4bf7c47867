"""Shared finite-difference oracle, the golden-run harness, call counters and small
test utilities."""

import hashlib
from dataclasses import replace

import numpy as np

from saflab import training
from saflab.autodiff import Tape, Tensor, record_op
from saflab.data import TARGET_TAG, DomainSpec, gen_two_moons

FD_EPS = 1e-5
FD_RTOL = 1e-4


def fd_grad(f, x, eps=FD_EPS):
    """Central finite differences of scalar-valued f at array x."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f(x)
        x[idx] = orig - eps
        fm = f(x)
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * eps)
    return g


def grad_rel_err(analytic, numeric):
    """Max-norm relative error between two gradient arrays."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    return np.abs(analytic - numeric).max(initial=0.0) / scale


def assert_grad_close(analytic, numeric, rtol=FD_RTOL):
    err = grad_rel_err(analytic, numeric)
    assert err <= rtol, f"gradient mismatch: relative error {err:.3g} > {rtol}"


def in_width(block) -> int:
    """The input width of an MLP or SAF module: its first layer's weight rows."""
    return block.layers[0].w.tensor.rows


def mean_all(tape: Tape | None, x: Tensor) -> Tensor:
    """Mean of every entry as a 1x1 tape op (a scalar loss for gradient tests)."""
    n = x.data.size

    def bwd(g):
        return (np.full(x.shape, g[0, 0] / n),)

    return record_op(tape, (x,), np.array([[x.data.sum() / n]]), bwd)


def counting(calls, key, fn, counts=lambda *args, **kw: True):
    """``fn`` wrapped to add ``counts(*args, **kw)`` to ``calls[key]`` on each call."""
    calls.setdefault(key, 0)

    def wrapper(*args, **kw):
        calls[key] += counts(*args, **kw)
        return fn(*args, **kw)
    return wrapper


def _eval_mode(tape, x, training=False, rng=None):
    return tape is None and not training


def count_eval_forwards(monkeypatch, bundle, blocks):
    """Count the eval-mode forwards (no tape, not training) of each block named in
    ``blocks``; returns the live ``{name: count}`` dict, which other counters may join."""
    calls = {}
    for key in blocks:
        block = getattr(bundle, key)
        monkeypatch.setattr(block, "forward", counting(calls, key, block.forward, _eval_mode))
    return calls


def golden_data(n_source, n_target, generate=gen_two_moons):
    """A source and a target set from one generator: noise 0.15, seed 0, the
    target rotated 35 degrees."""
    spec = DomainSpec(n_samples=n_source, noise_sd=0.15, seed=0)
    target = replace(spec, n_samples=n_target, rotation_deg=35.0)
    return generate(spec), generate(target, domain_tag=TARGET_TAG)


def file_sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digests(config, data, out_dir, steps=3):
    """Run ``run_experiment`` once on ``data`` (source, target).  Returns the
    sha256 of ``model.txt`` and ``metrics.csv`` and the ``repr`` of the dicts
    its first ``steps`` ``train_step`` calls returned."""
    real, reprs = training.train_step, []

    def recording_train_step(*args, **kwargs):
        out = real(*args, **kwargs)
        if len(reprs) < steps:
            reprs.append(repr(out))
        return out

    training.train_step = recording_train_step
    try:
        out = training.run_experiment(config, *data, out_dir)
    finally:
        training.train_step = real
    return file_sha256(out / "model.txt"), file_sha256(out / "metrics.csv"), reprs
