"""Preference encoder: pre-norm Transformer layers over a user's source
history followed by average pooling, producing the guidance signal.

One forward body on plain arrays serves both modes. Inference gets its
result. Training hands `encode_batch` a graph Tensor and gets one autodiff
node, whose backward reads the forward's intermediates and replays the
gradients of the per-operation graph it stands for: the same operations,
on operands of the same layout, summed in the order in which the engine
accumulates them, so a training step gives the bits that graph gave.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, matmul_grads, unbroadcast
from .params import ENCODER_LAYER_WEIGHTS, ModelParams

_EPS = 1e-5


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm over the last axis, and the arrays its backward reads."""
    inv_d = 1.0 / x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * inv_d
    shifted = (centered * centered).sum(axis=-1, keepdims=True) * inv_d + _EPS
    scale = shifted ** -0.5
    normed = centered * scale
    return normed * gain + bias, (centered, shifted, scale, normed)


def _layer_norm_grads(g, gain, cache):
    """The two gradients of layer_norm's input, the one through the
    centering and the one through the mean (the engine adds them in that
    order), then those of gain and bias."""
    centered, shifted, scale, normed = cache
    inv_d = 1.0 / centered.shape[-1]
    g_normed = g * gain
    g_scale = unbroadcast(g_normed * centered, scale.shape)
    # the square's two operands are both `centered`: its gradient arrives twice
    g_square = g_scale * -0.5 * shifted ** -1.5 * inv_d * centered
    g_centered = g_normed * scale + g_square + g_square
    g_mean = unbroadcast(g_centered, scale.shape) * -1.0 * inv_d
    return (g_centered, np.broadcast_to(g_mean, centered.shape),
            unbroadcast(g * normed, gain.shape), unbroadcast(g, gain.shape))


def softmax_values(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, on a plain array in which every slice
    has a finite entry. A -inf entry gets exactly zero weight.

    The row max is `max(axis=-1)` unless there are more than 16 rows per
    column; then it is an `np.maximum` fold over the columns, which gives
    the same values. numpy's reduction along a short last axis costs about
    a sixteenth of a call per row, the fold one call per column: at
    (128, 1, 10, 10) the fold takes 18 us against 104 us, at (1, 1, 10, 10)
    12 us against 2 us."""
    columns = x.shape[-1]
    if x.size > 16 * columns * columns:
        m = x[..., :1]
        for column in range(1, columns):
            m = np.maximum(m, x[..., column:column + 1])
    else:
        m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def _split_heads(x, n_heads: int):
    b, l, d = x.shape
    return x.reshape((b, l, n_heads, d // n_heads)).transpose((0, 2, 1, 3))


def _merge_heads(x):
    b, h, l, dh = x.shape
    return x.transpose((0, 2, 1, 3)).reshape((b, l, h * dh))


def _attention(x, mask: np.ndarray, w: dict, n_heads: int):
    """Masked multi-head self-attention with the layer's weights `w`, and
    the arrays its backward reads."""
    dh = x.shape[-1] // n_heads
    q = _split_heads(x @ w["wq"], n_heads)
    k_t = _split_heads(x @ w["wk"], n_heads).transpose((0, 1, 3, 2))
    v = _split_heads(x @ w["wv"], n_heads)
    scores = (q @ k_t) * (dh ** -0.5)
    # zero attention onto padded key positions, exactly; every history
    # holds an item, so every slice has a real key
    weights = softmax_values(np.where(mask[:, None, None, :], scores, -np.inf))
    merged = _merge_heads(weights @ v)
    return merged @ w["wo"], (q, k_t, v, weights, merged)


def _attention_grads(g, x, mask: np.ndarray, w: dict, cache, grads: dict):
    """The gradient of the attention's input x; the weights' gradients go
    into `grads`. The engine adds x's q, k and v gradients in that order."""
    q, k_t, v, weights, merged = cache
    g_merged, grads["wo"] = matmul_grads(g, merged, w["wo"])
    g_weights, g_v = matmul_grads(_split_heads(g_merged, q.shape[1]), weights, v)
    g_soft = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))
    g_scores = np.where(mask[:, None, None, :], g_soft, 0.0) * (q.shape[-1] ** -0.5)
    g_q, g_k_t = matmul_grads(g_scores, q, k_t)
    g_x = None
    for name, g_heads in (("wq", g_q), ("wk", g_k_t.transpose((0, 1, 3, 2))), ("wv", g_v)):
        g_rows, grads[name] = matmul_grads(_merge_heads(g_heads), x, w[name])
        g_x = g_rows if g_x is None else g_x + g_rows
    return g_x


def _layer(x, mask: np.ndarray, w: dict, n_heads: int):
    """One pre-norm Transformer layer, and the arrays its backward reads."""
    a, ln1 = layer_norm(x, w["ln1_g"], w["ln1_b"])
    attended, attention = _attention(a, mask, w, n_heads)
    x = x + attended
    b, ln2 = layer_norm(x, w["ln2_g"], w["ln2_b"])
    hidden = np.tanh(b @ w["ff_w1"] + w["ff_b1"])
    return x + (hidden @ w["ff_w2"] + w["ff_b2"]), (a, ln1, attention, b, ln2, hidden)


def _layer_grads(g, mask: np.ndarray, w: dict, cache):
    """The gradient of the layer's input, and its weights' gradients. A
    residual stream's gradient is the residual's, then the layer norm's
    centering term, then its mean term, as the engine adds them."""
    a, ln1, attention, b, ln2, hidden = cache
    grads = {"ff_b2": unbroadcast(g, w["ff_b2"].shape)}
    g_hidden, grads["ff_w2"] = matmul_grads(g, hidden, w["ff_w2"])
    g_pre = g_hidden * (1.0 - hidden * hidden)
    grads["ff_b1"] = unbroadcast(g_pre, w["ff_b1"].shape)
    g_b, grads["ff_w1"] = matmul_grads(g_pre, b, w["ff_w1"])
    g_centered, g_mean, grads["ln2_g"], grads["ln2_b"] = _layer_norm_grads(g_b, w["ln2_g"], ln2)
    g = g + g_centered + g_mean
    g_a = _attention_grads(g, a, mask, w, attention, grads)
    g_centered, g_mean, grads["ln1_g"], grads["ln1_b"] = _layer_norm_grads(g_a, w["ln1_g"], ln1)
    return g + g_centered + g_mean, grads


def masked_mean_pool(x: np.ndarray, mask: np.ndarray):
    """Batched average pooling over unmasked positions, (B, L, d) -> (B, d),
    and the (B, L) pooling weights; every row has an unmasked position."""
    counts = mask.sum(axis=1)
    weights = (mask / counts[:, None]).astype(x.dtype)
    return (x * weights[:, :, None]).sum(axis=1), weights


def encode_batch(item_vectors, mask: np.ndarray, params: ModelParams):
    """Guidance signals for a batch of padded histories.

    item_vectors: (B, L, d1) source-item embeddings, an array or a graph
    Tensor, with L <= max_history_len; mask: (B, L) booleans, which flag
    real (non-padded) positions, at least one per history.
    Padded positions never receive attention weight and never enter the
    pooled output. An array gives an array; a Tensor gives one graph node
    whose parents are item_vectors, `pos_emb` and the `enc*` weights. Under
    the encoder-removal ablation (`ablation = no_tf` in the model's config)
    the raw item embeddings are pooled directly, and the node's one parent
    is item_vectors.
    """
    mask = np.asarray(mask, dtype=bool)
    graph = isinstance(item_vectors, Tensor)
    x = item_vectors.data if graph else item_vectors
    cfg = params.meta.cfg
    tensors, layers, caches = [], [], []
    if not params.meta.pipeline.bypass_transformer:
        tensors = [params["pos_emb"]]
        x = x + tensors[0].data[:x.shape[1]]
        for weights in params.encoder_weights:
            tensors += weights.values()
            layers.append({suffix: w.data for suffix, w in weights.items()})
            x, cache = _layer(x, mask, layers[-1], cfg.n_heads)
            caches.append(cache)
    pooled, pool = masked_mean_pool(x, mask)
    if not graph:
        return pooled
    return _encoder_node(pooled, item_vectors, tensors, mask, pool, layers, caches)


def _encoder_node(out, item_vectors: Tensor, tensors, mask, pool, layers, caches):
    """The graph node of an encoder forward that took item_vectors to
    `out`: `tensors` are `pos_emb` and the layers' weights (none under the
    bypass), `pool` the pooling weights, and `layers` and `caches` each
    layer's weight arrays and the arrays its backward reads."""
    shape = item_vectors.shape
    pos = tensors[0].data if tensors else None

    def backward(g):
        g = np.broadcast_to(np.expand_dims(g, 1), shape) * pool[:, :, None]
        if pos is None:
            return (g,)
        layer_grads = []
        for w, cache in zip(reversed(layers), reversed(caches)):
            g, grads = _layer_grads(g, mask, w, cache)
            layer_grads.insert(0, grads)
        # the scatter of a gather of rows 0..L-1: adds onto zeros, which
        # turn a -0.0 into +0.0 as `np.add.at` does
        g_pos = np.zeros(pos.shape, pos.dtype)
        g_pos[:shape[1]] += unbroadcast(g, shape[1:])
        return (g, g_pos, *(grads[suffix] for grads in layer_grads
                            for suffix in ENCODER_LAYER_WEIGHTS))

    return ad._make(out, (item_vectors, *tensors), backward)


def encode_history(item_vectors: np.ndarray, params: ModelParams) -> np.ndarray:
    """The d1 guidance signal of one history, (L, d1) item embeddings in
    chronological order with 1 <= L, through :func:`encode_batch` on arrays."""
    vecs = np.asarray(item_vectors)
    return encode_batch(vecs[None], np.ones((1, vecs.shape[0]), dtype=bool), params)[0]
