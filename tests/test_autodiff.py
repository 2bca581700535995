"""Gradient checks for every autodiff primitive against central differences,
and the gradient oracle.

The oracle is the preference encoder and the denoiser MLP written as graphs
of per-operation Tensors, with the operations below that only it uses; its
constant step rows enter the graph as a Tensor.
`encoder.encode_batch` and `diffusion.denoise` enter a training graph as
one node each; a training step through those nodes must give the loss and
every parameter gradient of a step through the oracle, bit for bit.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prefdiff import autodiff as ad
from prefdiff import trainer
from prefdiff.autodiff import Tensor
from prefdiff.config import RunConfig
from prefdiff.encoder import softmax_values
from prefdiff.params import init_params
from prefdiff.rng import make_rng

from conftest import SELECTORS, central_difference, relative_error

RNG = np.random.default_rng(42)


# -- operations only the oracle uses --------------------------------------


def power(a, exponent: float) -> Tensor:
    data = a.data ** exponent

    def backward(g):
        return (g * exponent * a.data ** (exponent - 1.0),)

    return ad._make(data, (a,), backward)


def tanh(a) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - data * data),)

    return ad._make(data, (a,), backward)


def reshape(a, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return ad._make(data, (a,), backward)


def sum_keepdims(a, axis: int) -> Tensor:
    """`a.sum(axis, keepdims=True)` as one graph node."""
    data = a.data.sum(axis=axis, keepdims=True)

    def backward(g):
        return (np.broadcast_to(g, a.shape),)

    return ad._make(data, (a,), backward)


def transpose(a, axes) -> Tensor:
    data = a.data.transpose(axes)
    inverse = np.argsort(axes)

    def backward(g):
        return (g.transpose(inverse),)

    return ad._make(data, (a,), backward)


def softmax(a) -> Tensor:
    """Softmax along the last axis of slices that each have a finite entry;
    -inf entries map to exactly zero weight."""
    data = softmax_values(a.data)

    def backward(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        return (data * (g - dot),)

    return ad._make(data, (a,), backward)


def masked_fill(a, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where `mask` is False by `value` (no grad there)."""
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, a.data, value)

    def backward(g):
        return (np.where(mask, g, 0.0),)

    return ad._make(data, (a,), backward)


# -- the oracle: the encoder and the denoiser as per-operation graphs ------


def oracle_layer_norm(x, gain, bias):
    inv_d = 1.0 / x.shape[-1]
    mu = sum_keepdims(x, -1) * inv_d
    centered = x - mu
    var = sum_keepdims(centered * centered, -1) * inv_d
    return centered * power(var + 1e-5, -0.5) * gain + bias


def _split_heads(x, n_heads: int):
    b, l, d = x.shape
    return transpose(reshape(x, (b, l, n_heads, d // n_heads)), (0, 2, 1, 3))


def _merge_heads(x):
    b, h, l, dh = x.shape
    return reshape(transpose(x, (0, 2, 1, 3)), (b, l, h * dh))


def oracle_encode_batch(item_vectors, mask, params):
    """`encoder.encode_batch` on a graph Tensor, one graph node per operation."""
    mask = np.asarray(mask, dtype=bool)
    cfg = params.meta.cfg
    x = item_vectors
    if not params.meta.pipeline.bypass_transformer:
        x = x + ad.gather(params["pos_emb"], np.arange(x.shape[1]))
        for layer in range(cfg.enc_layers):
            def p(name):
                return params[f"enc{layer}_{name}"]

            a = oracle_layer_norm(x, p("ln1_g"), p("ln1_b"))
            q, k, v = (_split_heads(a @ p(name), cfg.n_heads) for name in ("wq", "wk", "wv"))
            scores = (q @ transpose(k, (0, 1, 3, 2))) * ((cfg.d1 // cfg.n_heads) ** -0.5)
            weights = softmax(masked_fill(scores, mask[:, None, None, :], -np.inf))
            x = x + _merge_heads(weights @ v) @ p("wo")
            b = oracle_layer_norm(x, p("ln2_g"), p("ln2_b"))
            x = x + (tanh(b @ p("ff_w1") + p("ff_b1")) @ p("ff_w2") + p("ff_b2"))
    pool = (mask / mask.sum(axis=1)[:, None]).astype(x.data.dtype)
    return (x * pool[:, :, None]).sum(axis=1)


def oracle_denoise(x_t, cond, t, params):
    """`diffusion.denoise` on graph Tensors, one graph node per operation."""
    step = params.step_table[t - 1]
    if step.ndim == 1:
        step = step[None, :].repeat(x_t.shape[0], axis=0)
    x = ad.concat([x_t, cond, Tensor(step)], axis=-1)
    n_layers = params.meta.cfg.mlp_layers
    for layer in range(n_layers):
        x = x @ params[f"den_w{layer}"] + params[f"den_b{layer}"]
        if layer < n_layers - 1:
            x = tanh(x)
    return x


# -- the primitives against central differences ----------------------------


def check_grad(build, *shapes, step=1e-6, tol=1e-6):
    arrays = [RNG.standard_normal(s) for s in shapes]
    tensors = [Tensor(a.copy()) for a in arrays]
    out = build(*tensors)
    out.backward()
    for tensor, arr in zip(tensors, arrays):
        numeric = central_difference(lambda: _eval(build, arrays), arr, step)
        assert tensor.grad is not None
        assert relative_error(tensor.grad, numeric) < tol, build


def _eval(build, arrays):
    return float(build(*[Tensor(a) for a in arrays]).data)


def test_add_broadcast():
    check_grad(lambda a, b: (a + b).sum(), (3, 4), (4,))


def test_mul_broadcast():
    check_grad(lambda a, b: (a * b).sum(), (3, 4), (3, 1))


def test_scalar_ops():
    check_grad(lambda a: ((a * 3.0 - 1.0) * 0.5).sum(), (5,))


@pytest.mark.parametrize("op", [lambda a: a + 1e-5, lambda a: a - 1.0, lambda a: a * 2.0,
                                lambda a: 2.0 * a, lambda a: -a, lambda a: power(a, -0.5)])
def test_python_scalar_keeps_a_float32_graph_float32(op):
    a = Tensor(np.full(3, 2.0, np.float32))
    out = op(a)
    out.sum().backward()
    assert out.data.dtype == a.grad.dtype == np.float32


def test_matmul_2d():
    check_grad(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))


def test_matmul_batched():
    check_grad(lambda a, b: (a @ b).sum(), (2, 3, 4), (2, 4, 5))


def test_matmul_broadcast_weights():
    check_grad(lambda a, b: (a @ b).sum(), (2, 3, 4), (4, 5))


def test_tanh_exp_power():
    check_grad(lambda a: (tanh(a) + power(a * a + 1.0, 0.5)).sum(), (6,))


def test_sum_axis_keepdims():
    check_grad(lambda a: power(a - sum_keepdims(a, 1) * 0.25, 2).sum(), (3, 4))


def test_concat_split():
    check_grad(lambda a, b: power(ad.concat([a, b], axis=-1), 2).sum(), (2, 3), (2, 2))


def test_reshape_transpose():
    check_grad(lambda a: power(transpose(reshape(a, (2, 6)), (1, 0)), 2).sum(), (2, 3, 2))


def test_gather_accumulates_duplicates():
    table = Tensor(np.ones((4, 2)))
    idx = np.array([1, 1, 3])
    out = ad.gather(table, idx).sum()
    out.backward()
    expected = np.zeros((4, 2))
    expected[1] = 2.0
    expected[3] = 1.0
    assert np.array_equal(table.grad, expected)


def test_softmax_grad():
    check_grad(lambda a: (softmax(a) * np.arange(4.0)).sum(), (3, 4))


def test_softmax_rows_sum_to_one():
    x = Tensor(RNG.standard_normal((5, 7)))
    y = softmax(x)
    assert np.allclose(y.data.sum(axis=-1), 1.0)


def test_masked_fill_neg_inf_gives_exact_zero_weight():
    x = Tensor(RNG.standard_normal((2, 4)))
    mask = np.array([[True, True, False, True], [True, False, False, True]])
    y = softmax(masked_fill(x, mask, -np.inf))
    assert np.all(y.data[~mask] == 0.0)
    (y * RNG.standard_normal((2, 4))).sum().backward()
    assert np.all(x.grad[~mask] == 0.0)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        (x * 2.0).backward()


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       table_dtype=st.sampled_from([np.float32, np.float64]),
       grad_dtype=st.sampled_from([np.float32, np.float64]),
       n_rows=st.integers(1, 40),
       row_shape=st.sampled_from([(), (3,)]),
       idx_shape=st.sampled_from([(0,), (1,), (9,), (40,), (4, 5), (0, 3), (200,),
                                  (16, 12)]))
def test_gather_backward_equals_add_at_bitwise(data, table_dtype, grad_dtype, n_rows,
                                               row_shape, idx_shape):
    # few rows and long indices give heavy duplicates, and many rows with
    # long indices give rounds of 16 rows and more before the np.add.at
    # tail; the elements include -0.0, which np.add.at turns into +0.0 on a
    # zero row
    idx = data.draw(hnp.arrays(np.int64, idx_shape, elements=st.integers(0, n_rows - 1)))
    width = 32 if grad_dtype is np.float32 else 64
    elements = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-1e6, 1e6, width=width))
    g = data.draw(hnp.arrays(grad_dtype, idx_shape + row_shape, elements=elements))
    table = Tensor(np.zeros((n_rows,) + row_shape, dtype=table_dtype))
    (out,) = ad.gather(table, idx)._backward_fn(g)
    expected = np.zeros_like(table.data)
    np.add.at(expected, idx, g)
    assert out.dtype == expected.dtype and out.tobytes() == expected.tobytes()


def test_gather_backward_padding_slots_match_add_at():
    # 50 rows three times each fill three full rounds; index 0, repeated 500
    # times like the padding slots of short histories, ends in the tail
    idx = np.concatenate([np.tile(np.arange(50), 3), np.zeros(500, dtype=np.int64)])
    idx = RNG.permutation(idx).reshape(50, 13)
    g = RNG.standard_normal((50, 13, 4))
    table = Tensor(np.zeros((50, 4), dtype=np.float32))
    (out,) = ad.gather(table, idx)._backward_fn(g)
    expected = np.zeros_like(table.data)
    np.add.at(expected, idx, g)
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("op", [lambda x, c: x + c, lambda x, c: x - c,
                                lambda x, c: x * c, lambda x, c: c * x])
def test_constant_operand_gets_no_gradient(op):
    # a constant is a plain array: it is no parent of the node, and x gets
    # the gradient it gets when the constant is a Tensor too
    a = RNG.standard_normal((3, 4))
    c = RNG.standard_normal((4,))
    w = RNG.standard_normal((3, 4))
    both = [Tensor(a.copy()), Tensor(c.copy())]
    (op(*both) * w).sum().backward()
    x = Tensor(a.copy())
    out = op(x, c.copy())
    assert out._parents == (x,)
    (out * w).sum().backward()
    assert x.grad.tobytes() == both[0].grad.tobytes()


def test_constant_that_broadcasts_the_tensor_up():
    # a (4,) Tensor against (3, 4) constants: its gradient is summed back
    c = RNG.standard_normal((3, 4))
    check_grad(lambda a: ((a + c) * c - c).sum(), (4,))


# -- the training step's encoder and denoiser nodes against the oracle -----


@st.composite
def oracle_cases(draw):
    """A model config over the 10 selectors, both dtypes, n_heads 1, 2 or
    d1, 0-3 encoder layers and 1-3 denoiser layers; a batch of histories of
    lengths 1 to max_history_len, padded to the longest; a seed."""
    d1 = 2 * draw(st.integers(1, 2))
    variant, ablation = draw(st.sampled_from(SELECTORS))
    max_len = draw(st.integers(1, 5))
    cfg = RunConfig(d1=d1, n_heads=draw(st.sampled_from([1, 2, d1])),
                    enc_layers=draw(st.integers(0, 3)), mlp_layers=draw(st.integers(1, 3)),
                    hidden=draw(st.integers(1, 5)), max_history_len=max_len,
                    T=draw(st.integers(1, 5)), variant=variant, ablation=ablation,
                    dtype=draw(st.sampled_from(["float32", "float64"])),
                    lam=draw(st.floats(0.0, 1.0)), p_uncond=draw(st.floats(0.0, 1.0)),
                    loss_weighting=draw(st.sampled_from(["simplified", "variance_weighted"])),
                    eta=0.5, init_scale=0.5, seed=draw(st.integers(0, 2**16)))
    cfg.validate()
    lengths = draw(st.lists(st.integers(1, max_len), min_size=1, max_size=6))
    return cfg, np.array(lengths), draw(st.integers(0, 2**16))


@settings(max_examples=200, deadline=None)
@given(case=oracle_cases())
def test_training_step_equals_the_oracle_graph_bitwise(case):
    cfg, lengths, seed = case
    params = init_params(cfg, 5, 7, 6)
    rng = make_rng(seed, 5)
    for tensor in params.arrays.values():  # gains, biases and null token start at 1 or 0
        tensor.data = tensor.data + rng.uniform(-0.3, 0.3, tensor.shape).astype(cfg.dtype)
    n = len(lengths)
    examples = trainer.Examples(
        user=rng.integers(0, 5, n), item=rng.integers(0, 6, n),
        rating=rng.integers(1, 6, n).astype(float), history_row=np.arange(n),
        histories=rng.integers(0, 7, (n, cfg.max_history_len)), lengths=lengths)
    draws = trainer.sample_draws(rng, n, params.meta)
    runs = []
    for encode, denoise in ((trainer.encode_batch, trainer.denoise),
                            (oracle_encode_batch, oracle_denoise)):
        params.zero_grads()
        with mock.patch.object(trainer, "encode_batch", encode), \
                mock.patch.object(trainer, "denoise", denoise):
            total, _ = trainer.compute_batch_loss(examples, np.arange(n), params, draws)
        total.backward()
        runs.append((total.data, {name: t.grad for name, t in params.arrays.items()}))
    (loss, grads), (oracle_loss, oracle_grads) = runs
    assert loss.dtype == oracle_loss.dtype and loss.tobytes() == oracle_loss.tobytes()
    for name, grad in grads.items():
        expected = oracle_grads[name]
        assert (grad is None) == (expected is None), name
        if grad is not None:
            assert grad.dtype == expected.dtype, name
            assert np.array_equal(grad, expected), name
            assert grad.tobytes() == expected.tobytes(), name


@settings(max_examples=100, deadline=None)
@given(data=st.data(), columns=st.integers(1, 6), dtype=st.sampled_from([np.float32, np.float64]))
def test_softmax_values_over_many_rows_equals_it_row_by_row(data, columns, dtype):
    # many rows take the np.maximum fold, one row the max reduction; -inf
    # entries included, but every row keeps a finite one, as every
    # attention slice has a real key
    rows = 16 * columns + 1
    finite = st.floats(-30, 30, width=32)
    x = data.draw(hnp.arrays(dtype, (rows, columns),
                             elements=st.one_of(st.just(-np.inf), finite)))
    kept = data.draw(hnp.arrays(np.int64, rows, elements=st.integers(0, columns - 1)))
    x[np.arange(rows), kept] = data.draw(hnp.arrays(dtype, rows, elements=finite))
    together = softmax_values(x)
    one_by_one = np.concatenate([softmax_values(x[i:i + 1]) for i in range(rows)])
    assert together.dtype == one_by_one.dtype == dtype
    assert together.tobytes() == one_by_one.tobytes()
