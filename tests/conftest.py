import math
from dataclasses import replace

import numpy as np
import pytest

from prefdiff.config import RunConfig
from prefdiff.params import ModelParams, init_params


@pytest.fixture
def tiny_params():
    """d1=4 float64 model, small enough for finite-difference checks."""
    return init_params(RunConfig(d1=4, seed=11, init_scale=0.3, hidden=8,
                                 mlp_layers=3, enc_layers=2, n_heads=1,
                                 max_history_len=5, T=5, dtype="float64"), 6, 8, 9)


def with_cfg(params, **settings) -> ModelParams:
    """The same parameter arrays (shared, not copied) under a config with
    `settings` replaced: one parameter set at several training settings."""
    return ModelParams(params.arrays, replace(params.meta, cfg=replace(params.meta.cfg, **settings)))


def central_difference(fn, arr: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Numeric gradient of scalar fn() with respect to `arr` (mutated in place
    element by element, then restored)."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = fn()
        flat[i] = orig - step
        f_minus = fn()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def forward_chain_step(u_prev: np.ndarray, t: int, eps: np.ndarray, s) -> np.ndarray:
    """One-step corruption u_{t-1} -> u_t under schedule s: the oracle that
    composes to `diffusion.forward_marginal`."""
    s.check_step(t)
    beta = float(s.beta[t - 1])
    return math.sqrt(1.0 - beta) * np.asarray(u_prev) + math.sqrt(beta) * np.asarray(eps)
