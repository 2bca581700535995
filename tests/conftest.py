import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from prefdiff import variants
from prefdiff.config import RunConfig
from prefdiff.params import ModelParams, init_params

SELECTORS = list(variants.SELECTORS)
PATHS = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Z")), max_size=8)


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
    beta = float(s.beta[t - 1])
    return math.sqrt(1.0 - beta) * np.asarray(u_prev) + math.sqrt(beta) * np.asarray(eps)


@st.composite
def run_configs(draw):
    """Valid RunConfigs over every selector, both dtypes, T from 1 and
    t_prime from -1 to T; input paths are free of line breaks and of
    whitespace, which a config line strips."""
    T = draw(st.integers(1, 4))
    n_heads = draw(st.integers(1, 2))
    variant, ablation = draw(st.sampled_from(SELECTORS))
    alpha_min = draw(st.floats(0.01, 5.0))
    cfg = RunConfig(
        source_path=draw(PATHS), target_path=draw(PATHS),
        fraction=draw(st.floats(0.01, 0.99)), seed=draw(st.integers(0, 2**32 - 1)),
        d1=n_heads * draw(st.integers(1, 3)), hidden=draw(st.integers(1, 4)),
        mlp_layers=draw(st.integers(1, 3)), enc_layers=draw(st.integers(0, 2)),
        n_heads=n_heads, max_history_len=draw(st.integers(1, 4)), T=T,
        eta=draw(st.floats(0.01, 1.0)), alpha_min=alpha_min,
        alpha_max=alpha_min + draw(st.floats(0.01, 10.0)),
        batch_size=draw(st.integers(1, 512)),
        learning_rate=draw(st.floats(1e-5, 1.0)), epochs=draw(st.integers(0, 20)),
        lam=draw(st.floats(0.0, 1.0)), p_uncond=draw(st.floats(0.0, 1.0)),
        loss_weighting=draw(st.sampled_from(["simplified", "variance_weighted"])),
        init_scale=draw(st.floats(1e-3, 1.0)), omega=draw(st.floats(0.0, 8.0)),
        t_prime=draw(st.integers(-1, T)), variant=variant, ablation=ablation,
        dtype=draw(st.sampled_from(["float32", "float64"])))
    cfg.validate()
    return cfg
