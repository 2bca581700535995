"""Forward corruption, conditioned clean-state prediction, guidance-strength
interpolation, and the single reverse step.

The arithmetic here is written against both plain numpy arrays and autodiff
tensors: coefficients from the schedule are python floats, so the same
expressions serve the training graph and the numeric oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError
from .params import ModelParams
from .schedule import Schedule, posterior_mean_coeffs


@dataclass(frozen=True)
class NoisedState:
    """A corrupted state plus the exact noise that produced it."""
    u_t: np.ndarray
    t: int
    eps: np.ndarray


def forward_marginal(u0: np.ndarray, t: int, eps: np.ndarray, s: Schedule) -> NoisedState:
    """Closed-form corruption of the clean state straight to step t."""
    s.check_step(t)
    ab = float(s.alpha_bar[t - 1])
    u_t = math.sqrt(ab) * np.asarray(u0) + math.sqrt(1.0 - ab) * np.asarray(eps)
    return NoisedState(u_t=u_t, t=t, eps=np.asarray(eps))


def forward_chain_step(u_prev: np.ndarray, t: int, eps: np.ndarray, s: Schedule) -> np.ndarray:
    """One-step corruption u_{t-1} -> u_t (used by the chain-vs-marginal oracle)."""
    s.check_step(t)
    beta = float(s.beta[t - 1])
    return math.sqrt(1.0 - beta) * np.asarray(u_prev) + math.sqrt(beta) * np.asarray(eps)


def denoise(x_t, cond, t, params: ModelParams):
    """MLP prediction of the clean state from [x_t || cond || step_emb(t)].

    x_t: (B, state_dim); cond: (B, d1); t: int or (B,) ints. Tanh hidden
    layers, linear output.
    """
    step = params.step_embedding(t)
    if np.ndim(step) == 1:
        step = np.broadcast_to(step, (x_t.shape[0], step.shape[0]))
    step = step.astype(params.meta.dtype)
    x = ad.concat([x_t, cond, Tensor(step)], axis=-1)
    for layer in range(params.meta.mlp_layers):
        x = x @ params[f"den_w{layer}"] + params[f"den_b{layer}"]
        if layer < params.meta.mlp_layers - 1:
            x = ad.tanh(x)
    return x


def _as_cond_batch(h, batch: int, params: ModelParams) -> Tensor:
    """The condition rows for the denoiser: h, or the null token when h is None."""
    if h is None:
        null = params["null_token"]
        return null.reshape((1, params.meta.d1)) * np.ones((batch, 1), dtype=params.meta.dtype)
    if isinstance(h, Tensor):
        return h if h.ndim == 2 else h.reshape((1, h.shape[0]))
    arr = np.asarray(h)
    return Tensor(arr if arr.ndim == 2 else arr[None, :])


def predict_u0(u_t, h, t: int, params: ModelParams):
    """Single-state prediction of the clean state; `h=None` uses the null token."""
    x = u_t if isinstance(u_t, Tensor) else Tensor(np.asarray(u_t))
    single = x.ndim == 1
    if x.ndim == 1:
        x = x.reshape((1, x.shape[0]))
    cond = _as_cond_batch(h, x.shape[0], params)
    out = denoise(x, cond, t, params)
    return out[0] if single else out


def guided_predict(u_t, h, t: int, omega: float, params: ModelParams):
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


def reverse_step(u_t, h, t: int, omega: float, z, s: Schedule, params: ModelParams):
    """One reverse transition u_t -> u_{t-1} under guided prediction.

    Caller supplies z ~ N(0, I) for t > 1 and z = 0 at t = 1.
    """
    coef_u0, coef_ut, variance = posterior_mean_coeffs(s, t)
    pred = guided_predict(u_t, h, t, omega, params)
    return coef_u0 * pred + coef_ut * u_t + math.sqrt(variance) * np.asarray(z)
