"""Preference encoder: pre-norm Transformer layers over a user's source
history followed by average pooling, producing the guidance signal.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError
from .params import ModelParams


def layer_norm(x, gain, bias, eps: float = 1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * (var + eps) ** -0.5 * gain + bias


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    b, l, d = x.shape
    return x.reshape((b, l, n_heads, d // n_heads)).transpose((0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    b, h, l, dh = x.shape
    return x.transpose((0, 2, 1, 3)).reshape((b, l, h * dh))


def _attention(x: Tensor, mask: np.ndarray, layer: int, params: ModelParams) -> Tensor:
    p = f"enc{layer}_"
    n_heads = params.meta.cfg.n_heads
    dh = params.meta.cfg.d1 // n_heads
    q = _split_heads(x @ params[p + "wq"], n_heads)
    k = _split_heads(x @ params[p + "wk"], n_heads)
    v = _split_heads(x @ params[p + "wv"], n_heads)
    scores = (q @ k.transpose((0, 1, 3, 2))) * (dh ** -0.5)
    # zero attention onto padded key positions, exactly
    key_mask = mask[:, None, None, :]
    scores = ad.masked_fill(scores, key_mask, -np.inf)
    weights = ad.softmax(scores, axis=-1)
    return _merge_heads(weights @ v) @ params[p + "wo"]


def encoder_forward(x: Tensor, mask: np.ndarray, params: ModelParams) -> Tensor:
    """Apply the Transformer stack to x of shape (batch, length, d1).

    `mask` flags real (non-padded) positions. Padded positions never receive
    attention weight and never enter the pooled output.
    """
    for layer in range(params.meta.cfg.enc_layers):
        p = f"enc{layer}_"
        a = layer_norm(x, params[p + "ln1_g"], params[p + "ln1_b"])
        x = x + _attention(a, mask, layer, params)
        b = layer_norm(x, params[p + "ln2_g"], params[p + "ln2_b"])
        ff = ad.tanh(b @ params[p + "ff_w1"] + params[p + "ff_b1"]) @ params[p + "ff_w2"] + params[p + "ff_b2"]
        x = x + ff
    return x


def masked_mean_pool(x: Tensor, mask: np.ndarray) -> Tensor:
    """Batched average pooling over unmasked positions, (B, L, d) -> (B, d)."""
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        raise DataError("empty history in batch")
    weights = (mask / counts[:, None]).astype(x.data.dtype)
    return (x * weights[:, :, None]).sum(axis=1)


def encode_batch(item_vectors: Tensor, mask: np.ndarray, params: ModelParams) -> Tensor:
    """Guidance signals for a batch of padded histories.

    item_vectors: (B, L, d1) source-item embeddings; mask: (B, L) booleans.
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
    x = item_vectors + ad.gather(params["pos_emb"], np.arange(length))
    x = encoder_forward(x, mask, params)
    return masked_mean_pool(x, mask)


def encode_history(item_vectors: np.ndarray, params: ModelParams) -> np.ndarray:
    """The d1 guidance signal of one history, (L, d1) item embeddings in
    chronological order, through :func:`encode_batch`."""
    vecs = np.asarray(item_vectors)
    if vecs.shape[0] == 0:
        raise DataError("empty history")
    out = encode_batch(Tensor(vecs[None]), np.ones((1, vecs.shape[0]), dtype=bool), params)
    return out.data[0]
