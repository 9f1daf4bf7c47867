"""Shared finite-difference oracle and small test utilities."""

import numpy as np

from saflab.autodiff import Tape, Tensor, record_op

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


def mean_all(tape: Tape | None, x: Tensor) -> Tensor:
    """Mean of every entry as a 1x1 tape op (a scalar loss for gradient tests)."""
    n = x.data.size

    def bwd(g):
        return (np.full(x.shape, g[0, 0] / n),)

    return record_op(tape, (x,), np.array([[x.data.sum() / n]]), bwd)
