"""Forward corruption, conditioned clean-state prediction, guidance-strength
interpolation, and the single reverse step.

Training runs `forward_marginal` and `denoise` inside its autodiff graph.
Cold-start inference runs the rest on plain numpy arrays, without a graph:
`predict_u0`, `guided_predict` and `reverse_step` take and return arrays,
and call `denoise` with array inputs.
"""
from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError
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
    parameter arrays and returns a Tensor leaf without a graph.
    """
    graph = isinstance(x_t, Tensor) or isinstance(cond, Tensor)
    cat, tanh = (ad.concat, ad.tanh) if graph else (np.concatenate, np.tanh)
    step = params.step_embedding(t)
    if step.ndim == 1:
        step = np.repeat(step[None, :], x_t.shape[0], axis=0)
    x = cat([x_t, cond, step], axis=-1)
    n_layers = params.meta.cfg.mlp_layers
    for layer in range(n_layers):
        w, b = params[f"den_w{layer}"], params[f"den_b{layer}"]
        x = x @ (w if graph else w.data) + (b if graph else b.data)
        if layer < n_layers - 1:
            x = tanh(x)
    return x if graph else Tensor(x)


def _as_cond_batch(h, x: np.ndarray, params: ModelParams) -> np.ndarray:
    """The condition rows for the denoiser state x: h, or the null token when
    h is None."""
    if h is None:
        null = params["null_token"].data
        return null.reshape((1, null.shape[0])) * np.ones((x.shape[0], 1), dtype=null.dtype)
    arr = np.asarray(h)
    return arr if arr.ndim == 2 else arr[None, :]


def predict_u0(u_t, h, t: int, params: ModelParams) -> np.ndarray:
    """Prediction of the clean state for one state (d,) or a batch (B, d);
    `h=None` uses the null token."""
    x = np.asarray(u_t)
    single = x.ndim == 1
    if single:
        x = x.reshape((1, x.shape[0]))
    out = denoise(x, _as_cond_batch(h, x, params), t, params).data
    return out[0] if single else out


def guided_predict(u_t, h, t: int, omega: float, params: ModelParams) -> np.ndarray:
    """Strength-controlled prediction: (1+w)*conditional - w*unconditional.

    The w=0 and h=None cases short-circuit so the algebraic identities hold
    exactly in floating point.
    """
    if omega < 0:
        raise ConfigurationError(f"omega must be >= 0, got {omega}")
    if h is None or omega == 0.0:
        return predict_u0(u_t, h, t, params)
    cond = predict_u0(u_t, h, t, params)
    uncond = predict_u0(u_t, None, t, params)
    return (1.0 + omega) * cond - omega * uncond


def reverse_step(u_t: np.ndarray, h, t: int, omega: float, z, s: Schedule,
                 params: ModelParams) -> np.ndarray:
    """One reverse transition u_t -> u_{t-1} under guided prediction.

    Caller supplies z ~ N(0, I) for t > 1 and z = 0 at t = 1.
    """
    coef_u0, coef_ut, variance = posterior_mean_coeffs(s, t)
    pred = guided_predict(u_t, h, t, omega, params)
    return coef_u0 * pred + coef_ut * u_t + math.sqrt(variance) * np.asarray(z)
