"""Preference encoder: pre-norm Transformer layers over a user's source
history followed by average pooling, producing the guidance signal.

One body serves both modes, as `diffusion.denoise` does: given graph
Tensors (training) it builds the autodiff graph, and given plain arrays
(inference) it runs the same operations, in the same order, on the parameter
arrays, so both modes give the same bits.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError
from .params import ModelParams

_EPS = 1e-5


def layer_norm(x, gain, bias):
    inv_d = 1.0 / x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) * inv_d
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_d
    return centered * (var + _EPS) ** -0.5 * gain + bias


def _split_heads(x, n_heads: int):
    b, l, d = x.shape
    return x.reshape((b, l, n_heads, d // n_heads)).transpose((0, 2, 1, 3))


def _merge_heads(x):
    b, h, l, dh = x.shape
    return x.transpose((0, 2, 1, 3)).reshape((b, l, h * dh))


def _attention(x, mask: np.ndarray, p, n_heads: int):
    """Masked multi-head self-attention; `p` maps a weight's name suffix to
    the layer's weight."""
    dh = x.shape[-1] // n_heads
    q = _split_heads(x @ p("wq"), n_heads)
    k = _split_heads(x @ p("wk"), n_heads)
    v = _split_heads(x @ p("wv"), n_heads)
    scores = (q @ k.transpose((0, 1, 3, 2))) * (dh ** -0.5)
    # zero attention onto padded key positions, exactly
    key_mask = mask[:, None, None, :]
    if isinstance(scores, Tensor):
        weights = ad.softmax(ad.masked_fill(scores, key_mask, -np.inf), axis=-1)
    else:
        weights = ad.softmax_values(np.where(key_mask, scores, -np.inf), axis=-1)
    return _merge_heads(weights @ v) @ p("wo")


def encoder_forward(x, mask: np.ndarray, params: ModelParams):
    """Apply the Transformer stack to x of shape (batch, length, d1), a graph
    Tensor or an array; the result is of the same kind.

    `mask` flags real (non-padded) positions. Padded positions never receive
    attention weight and never enter the pooled output.
    """
    graph = isinstance(x, Tensor)
    tanh = ad.tanh if graph else np.tanh
    cfg = params.meta.cfg
    for layer in range(cfg.enc_layers):
        prefix = f"enc{layer}_"

        def p(name):
            weight = params[prefix + name]
            return weight if graph else weight.data

        a = layer_norm(x, p("ln1_g"), p("ln1_b"))
        x = x + _attention(a, mask, p, cfg.n_heads)
        b = layer_norm(x, p("ln2_g"), p("ln2_b"))
        ff = tanh(b @ p("ff_w1") + p("ff_b1")) @ p("ff_w2") + p("ff_b2")
        x = x + ff
    return x


def masked_mean_pool(x, mask: np.ndarray):
    """Batched average pooling over unmasked positions, (B, L, d) -> (B, d)."""
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        raise DataError("empty history in batch")
    dtype = (x.data if isinstance(x, Tensor) else x).dtype
    weights = (mask / counts[:, None]).astype(dtype)
    return (x * weights[:, :, None]).sum(axis=1)


def encode_batch(item_vectors, mask: np.ndarray, params: ModelParams):
    """Guidance signals for a batch of padded histories.

    item_vectors: (B, L, d1) source-item embeddings, a graph Tensor or an
    array; mask: (B, L) booleans. The result is of the kind of item_vectors.
    Under the encoder-removal ablation (`ablation = no_tf` in the model's
    config) the raw item embeddings are pooled directly.
    """
    mask = np.asarray(mask, dtype=bool)
    if params.meta.pipeline.bypass_transformer:
        return masked_mean_pool(item_vectors, mask)
    length = item_vectors.shape[1]
    max_len = params.meta.cfg.max_history_len
    if length > max_len:
        raise DataError(f"history length {length} exceeds max_history_len {max_len}")
    if isinstance(item_vectors, Tensor):
        pos = ad.gather(params["pos_emb"], np.arange(length))
    else:
        pos = params["pos_emb"].data[:length]
    x = encoder_forward(item_vectors + pos, mask, params)
    return masked_mean_pool(x, mask)


def encode_history(item_vectors: np.ndarray, params: ModelParams) -> np.ndarray:
    """The d1 guidance signal of one history, (L, d1) item embeddings in
    chronological order, through :func:`encode_batch` on arrays."""
    vecs = np.asarray(item_vectors)
    if vecs.shape[0] == 0:
        raise DataError("empty history")
    return encode_batch(vecs[None], np.ones((1, vecs.shape[0]), dtype=bool), params)[0]
