"""Forward corruption, conditioned clean-state prediction, and the guided
reverse step.

Training runs `forward_marginal` and `denoise` inside its autodiff graph.
Cold-start inference runs `reverse_step` on plain numpy arrays, without a
graph: it takes and returns (B, d) state rows, and calls `denoise` with
array inputs, once per step or twice when the guidance strength omega > 0.
"""
from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import ModelParams
from .schedule import Schedule, posterior_mean_coeffs


def forward_marginal(u0, t, eps: np.ndarray, s: Schedule):
    """Closed-form corruption of the clean state straight to step t.

    t is an int, or an int array with one step per row of u0. The
    coefficients are cast to the dtype of the noise eps; u0 may be an array
    or a graph Tensor, and the result is of the same kind."""
    t = np.asarray(t)
    if np.any((t < 1) | (t > s.T)):
        raise IndexError(f"step t outside 1..{s.T}")
    eps = np.asarray(eps)
    a = np.sqrt(s.alpha_bar[t - 1]).astype(eps.dtype)
    b = np.sqrt(s.one_minus_alpha_bar[t - 1]).astype(eps.dtype)
    if t.ndim:
        a, b = a[:, None], b[:, None]
    return a * u0 + b * eps


def denoise(x_t, cond, t, params: ModelParams) -> Tensor:
    """MLP prediction of the clean state from [x_t || cond || step_emb(t)].

    x_t: (B, state_dim); cond: (B, d1); t: int or (B,) ints. Tanh hidden
    layers, linear output. With a Tensor among x_t and cond the forward
    builds the autodiff graph (training); with arrays it runs on the
    parameter arrays, cast once to the input's dtype
    (`ModelParams.denoiser_layers`), and returns a Tensor leaf without a
    graph.
    """
    graph = isinstance(x_t, Tensor) or isinstance(cond, Tensor)
    cat, tanh = (ad.concat, ad.tanh) if graph else (np.concatenate, np.tanh)
    step = params.step_embedding(t)
    if step.ndim == 1:
        # the method: at B = 1, np.repeat's wrapper costs more than a matmul
        step = step[None, :].repeat(x_t.shape[0], axis=0)
    x = cat([x_t, cond, step], axis=-1)
    n_layers = params.meta.cfg.mlp_layers
    layers = [(params[f"den_w{layer}"], params[f"den_b{layer}"]) for layer in range(n_layers)] \
        if graph else params.denoiser_layers(x.dtype)
    for layer, (w, b) in enumerate(layers):
        x = x @ w + b
        if layer < n_layers - 1:
            x = tanh(x)
    return x if graph else Tensor(x)


def reverse_step(x: np.ndarray, cond: np.ndarray, uncond: np.ndarray, t: int,
                 omega: float, z, params: ModelParams) -> np.ndarray:
    """One reverse transition x_t -> x_{t-1} of the (B, d) state rows x,
    under the model's own schedule.

    cond holds the (B, d1) condition rows and uncond the null-token rows.
    The guided prediction is (1+omega)*conditional - omega*unconditional;
    omega = 0 calls the denoiser once, on cond alone, so it is exactly the
    conditional prediction. Caller supplies z ~ N(0, I) for t > 1 and
    z = 0 at t = 1.
    """
    coef_u0, coef_ut, variance = posterior_mean_coeffs(params.schedule, t)
    pred = denoise(x, cond, t, params).data
    if omega > 0:
        pred = (1.0 + omega) * pred - omega * denoise(x, uncond, t, params).data
    return coef_u0 * pred + coef_ut * x + math.sqrt(variance) * z
