"""Preference encoder: pooling, masking, padding invariance, gradients."""
from dataclasses import replace

import numpy as np
import pytest

from prefdiff.autodiff import Tensor
from prefdiff.encoder import (encode_batch, encode_history, layer_norm,
                              masked_mean_pool)
from prefdiff.data import split_cold_start, user_universe
from prefdiff.params import ModelParams, init_params
from prefdiff.rng import make_rng
from prefdiff.trainer import build_examples, new_trainer_state, train_step

from conftest import central_difference, relative_error
from test_trainer import tiny_cfg, toy_domains


def rand_hist(params, batch, length, seed=0):
    rng = make_rng(seed, 77)
    return rng.standard_normal((batch, length, params.meta.cfg.d1))


def test_masked_mean_pool_matches_numpy_mean():
    m = np.arange(12, dtype=np.float64).reshape(4, 3)
    mask = np.array([True, False, True, True])
    pooled, _ = masked_mean_pool(m[None], mask[None])
    assert pooled.shape == (1, 3)
    assert np.allclose(pooled[0], m[mask].mean(axis=0))


def test_layer_norm_standardizes():
    rng = make_rng(1, 2)
    x = rng.standard_normal((5, 8)) * 3 + 2
    y, _ = layer_norm(x, np.ones(8), np.zeros(8))
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-10)
    assert np.allclose(y.var(axis=-1), 1.0, atol=1e-4)


def test_masked_mean_pool_ignores_padding(tiny_params):
    x = rand_hist(tiny_params, 2, 4)
    mask = np.array([[1, 1, 0, 0], [1, 1, 1, 1]], dtype=bool)
    out, _ = masked_mean_pool(x, mask)
    assert np.allclose(out[0], x[0, :2].mean(axis=0))
    assert np.allclose(out[1], x[1].mean(axis=0))


def test_padding_invariance_exact(tiny_params):
    # arbitrary garbage in padded slots must not change the output at all
    base = rand_hist(tiny_params, 1, 3, seed=5)
    mask = np.array([[True, True, True, False, False]])
    padded_a = np.concatenate([base, np.zeros((1, 2, 4))], axis=1)
    padded_b = np.concatenate([base, 1e6 * np.ones((1, 2, 4))], axis=1)
    out_a = encode_batch(Tensor(padded_a), mask, tiny_params).data
    out_b = encode_batch(Tensor(padded_b), mask, tiny_params).data
    assert np.array_equal(out_a, out_b)


def test_padded_batch_matches_unpadded(tiny_params):
    base = rand_hist(tiny_params, 1, 3, seed=6)
    solo = encode_batch(Tensor(base), np.ones((1, 3), dtype=bool), tiny_params).data
    padded = np.concatenate([base, np.zeros((1, 2, 4))], axis=1)
    mask = np.array([[True, True, True, False, False]])
    batched = encode_batch(Tensor(padded), mask, tiny_params).data
    assert np.allclose(solo[0], batched[0], atol=1e-12)


def test_identity_weights_reduce_to_average_pooling(tiny_params):
    # residual layers vanish when their output projections are zero, and with
    # positional embeddings zeroed the encoder is exactly average pooling
    p = tiny_params
    p["pos_emb"].data[:] = 0.0
    for layer in range(p.meta.cfg.enc_layers):
        p[f"enc{layer}_wo"].data[:] = 0.0
        p[f"enc{layer}_ff_w2"].data[:] = 0.0
        p[f"enc{layer}_ff_b2"].data[:] = 0.0
    x = np.array([[[2.0, 2.0, 2.0, 2.0], [3.0, 3.0, 3.0, 3.0]]])
    out = encode_batch(Tensor(x), np.ones((1, 2), dtype=bool), p).data
    assert np.allclose(out[0], [2.5, 2.5, 2.5, 2.5], atol=1e-12)


def test_bypass_transformer_is_raw_mean(tiny_params):
    # the no_tf ablation of the same arrays pools the raw item embeddings
    meta = tiny_params.meta
    no_tf = ModelParams(tiny_params.arrays,
                        replace(meta, cfg=replace(meta.cfg, ablation="no_tf")))
    x = rand_hist(tiny_params, 2, 3, seed=7)
    mask = np.array([[1, 1, 1], [1, 0, 1]], dtype=bool)
    out = encode_batch(Tensor(x), mask, no_tf).data
    assert np.allclose(out[0], x[0].mean(axis=0))
    assert np.allclose(out[1], x[1][[0, 2]].mean(axis=0))


def test_multi_head_shapes():
    from prefdiff.config import RunConfig
    from prefdiff.params import init_params
    p = init_params(RunConfig(d1=8, seed=1, hidden=8, mlp_layers=2, enc_layers=2,
                              n_heads=2, max_history_len=4, T=3, dtype="float64"),
                    3, 4, 4)
    x = Tensor(make_rng(0, 1).standard_normal((3, 4, 8)))
    out = encode_batch(x, np.ones((3, 4), dtype=bool), p)
    assert out.data.shape == (3, 8)


def test_encode_history_matches_batch(tiny_params):
    vecs = rand_hist(tiny_params, 1, 4, seed=9)[0]
    sig = encode_history(vecs, tiny_params)
    batched = encode_batch(Tensor(vecs[None]), np.ones((1, 4), dtype=bool),
                           tiny_params).data[0]
    assert np.array_equal(sig, batched)


@pytest.mark.parametrize("name", ["enc0_wq", "enc0_ff_w1", "enc1_wo",
                                  "enc0_ln1_g", "pos_emb"])
def test_encoder_gradients_match_finite_differences(tiny_params, name):
    p = tiny_params
    x_np = rand_hist(p, 2, 3, seed=13)
    mask = np.array([[1, 1, 0], [1, 1, 1]], dtype=bool)
    probe = make_rng(3, 4).standard_normal((2, p.meta.cfg.d1))

    def loss_tensor():
        diff = encode_batch(Tensor(x_np), mask, p) - probe
        return (diff * diff).sum()

    p.zero_grads()
    loss_tensor().backward()
    analytic = p[name].grad.copy()
    numeric = central_difference(lambda: float(loss_tensor().data),
                                 p[name].data)
    assert relative_error(analytic, numeric) < 1e-6


def test_encoder_input_gradient(tiny_params):
    p = tiny_params
    x_np = rand_hist(p, 1, 3, seed=21)
    mask = np.ones((1, 3), dtype=bool)

    def loss(x):
        out = encode_batch(x, mask, p)
        return (out * out).sum()

    x = Tensor(x_np.copy())
    loss(x).backward()
    numeric = central_difference(lambda: float(loss(Tensor(x_np)).data), x_np)
    assert relative_error(x.grad, numeric) < 1e-6


# (dtype, n_heads, enc_layers, ablation): the Transformer at every depth and
# head count both dtypes, and the no_tf bypass
ARRAY_PATH_CASES = [(dtype, heads, layers, "none") for dtype in ("float32", "float64")
                    for heads in (1, 2, 4) for layers in range(4)] \
    + [(dtype, 1, 1, "no_tf") for dtype in ("float32", "float64")]


@pytest.mark.parametrize("dtype,n_heads,enc_layers,ablation", ARRAY_PATH_CASES)
def test_array_path_equals_tensor_path_bitwise(dtype, n_heads, enc_layers, ablation):
    # inference encodes plain arrays, training graph Tensors into one node
    # that runs the same array forward: the same bytes and dtype
    from prefdiff.config import RunConfig
    from prefdiff.params import init_params
    p = init_params(RunConfig(d1=8, seed=2, hidden=8, enc_layers=enc_layers,
                              n_heads=n_heads, max_history_len=5, T=3,
                              ablation=ablation, dtype=dtype), 3, 4, 4)
    rng = make_rng(23, enc_layers)
    for name in p.arrays:  # gains, biases and the null token start at one or zero
        p[name].data[...] += rng.uniform(-0.3, 0.3, size=p[name].shape)
    x = rng.standard_normal((4, 5, 8)).astype(dtype)
    # padded rows of every length, two of length 1
    mask = np.arange(5) < np.array([1, 5, 3, 1])[:, None]
    on_arrays = encode_batch(x, mask, p)
    on_graph = encode_batch(Tensor(x), mask, p)
    assert isinstance(on_arrays, np.ndarray) and on_graph._backward_fn is not None
    assert on_arrays.dtype == on_graph.data.dtype
    assert on_arrays.tobytes() == on_graph.data.tobytes()


def test_encode_history_never_uses_stale_weights():
    # a training step rebinds the encoder's weight arrays, and the next
    # inference call must run on the new ones, as a model built from fresh
    # copies of them does
    cfg = tiny_cfg(dtype="float32", batch_size=8)
    src, tgt = toy_domains()
    split = split_cold_start(src, tgt, 0.2, seed=1)
    universe = user_universe(src, tgt)
    p = init_params(cfg, len(universe), src.n_items, tgt.n_items)
    examples = build_examples(src, tgt, split, universe, cfg.max_history_len)
    vecs = rand_hist(p, 1, 3, seed=8)[0].astype(np.float32)
    before = encode_history(vecs, p)
    train_step(examples, np.arange(8), p, new_trainer_state(cfg.seed))
    after = encode_history(vecs, p)
    fresh = ModelParams({name: Tensor(t.data.copy()) for name, t in p.arrays.items()},
                        p.meta)
    assert after.tobytes() == encode_history(vecs, fresh).tobytes()
    assert after.tobytes() != before.tobytes()
