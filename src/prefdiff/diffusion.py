"""Forward corruption, conditioned clean-state prediction, and the guided
reverse step.

Training runs `forward_marginal` and `denoise` inside its autodiff graph,
the denoiser as one node of it.
Cold-start inference runs `reverse_step` on plain numpy arrays, without a
graph: it takes and returns (B, d) state rows, and calls `denoise` with
array inputs, once per step or twice when the guidance strength omega > 0.
"""
from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, matmul_grads, unbroadcast
from .params import ModelParams
from .schedule import Schedule, posterior_mean_coeffs


def forward_marginal(u0, t, eps: np.ndarray, s: Schedule):
    """Closed-form corruption of the clean state straight to step t.

    t is an int in 1..T, or an int array with one such step per row of
    u0. The coefficients are cast to the dtype of the noise eps; u0 may be
    an array or a graph Tensor, and the result is of the same kind."""
    t = np.asarray(t)
    eps = np.asarray(eps)
    a = np.sqrt(s.alpha_bar[t - 1]).astype(eps.dtype)
    b = np.sqrt(s.one_minus_alpha_bar[t - 1]).astype(eps.dtype)
    if t.ndim:
        a, b = a[:, None], b[:, None]
    return a * u0 + b * eps


def denoise(x_t, cond, t, params: ModelParams) -> Tensor:
    """MLP prediction of the clean state from [x_t || cond || step_emb(t)].

    x_t: (B, state_dim); cond: (B, d1); t: a (B,) int array, or one int
    (Python or numpy) for every row. Tanh hidden layers, linear output.
    With arrays the result is a Tensor leaf without a graph. With Tensors
    (training's x_t and cond are both computed from parameters) it is one
    graph node, whose parents are x_t, cond and the `den_*` weights and
    whose backward replays the gradients of the per-operation graph of
    concat, matmul, add and tanh, so training gives that graph's bits.
    """
    graph = isinstance(x_t, Tensor)
    state, signal = (x_t.data, cond.data) if graph else (x_t, cond)
    if isinstance(t, np.ndarray):
        step = params.step_table[t - 1]
    else:
        # a (1, d1) slice: at B = 1, the rollout's case, no repeat is needed
        step = params.step_table[t - 1:t]
        if state.shape[0] > 1:
            step = step.repeat(state.shape[0], axis=0)
    x = np.concatenate([state, signal, step], axis=-1)
    layers = [(w.data, b.data) for w, b in params.denoiser_weights]
    inputs = []
    for w, b in layers[:-1]:
        inputs.append(x)
        x = np.tanh(x @ w + b)
    inputs.append(x)
    w, b = layers[-1]
    x = x @ w + b
    if not graph:
        return Tensor(x)
    return _denoiser_node(x, x_t, cond, inputs, layers, params)


def _denoiser_node(out, x_t: Tensor, cond: Tensor, inputs, layers, params: ModelParams):
    """The graph node of a denoiser forward that took `inputs` (the input of
    each layer, the first the concatenation) to `out`."""
    def backward(g):
        grads = []
        for layer in reversed(range(len(layers))):
            (w, b), x_in = layers[layer], inputs[layer]
            g_b = unbroadcast(g, b.shape)
            g, g_w = matmul_grads(g, x_in, w)
            grads[:0] = [g_w, g_b]
            if layer:  # through the tanh whose output x_in is
                g = g * (1.0 - x_in * x_in)
        width = x_t.shape[-1]
        return (*np.split(g, [width, width + cond.shape[-1]], axis=-1)[:2], *grads)

    return ad._make(out, (x_t, cond, *(w for layer in params.denoiser_weights for w in layer)),
                    backward)


def reverse_step(x: np.ndarray, cond: np.ndarray, uncond: np.ndarray, t: int,
                 omega: float, z, params: ModelParams) -> np.ndarray:
    """One reverse transition x_t -> x_{t-1} of the (B, d) state rows x,
    under the model's own schedule.

    cond holds the (B, d1) condition rows and uncond the null-token rows.
    The guided prediction is (1+omega)*conditional - omega*unconditional;
    omega = 0 calls the denoiser once, on cond alone, so it is exactly the
    conditional prediction. Caller supplies z ~ N(0, I) for t > 1 and
    z = 0 at t = 1; with z in the dtype of x, the step stays in it.
    """
    coef_u0, coef_ut, variance = posterior_mean_coeffs(params.schedule, t)
    pred = denoise(x, cond, t, params).data
    if omega > 0:
        pred = (1.0 + omega) * pred - omega * denoise(x, uncond, t, params).data
    return coef_u0 * pred + coef_ut * x + math.sqrt(variance) * z
