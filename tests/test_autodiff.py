"""Gradient checks for every autodiff primitive against central differences."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prefdiff import autodiff as ad
from prefdiff.autodiff import Tensor

from conftest import central_difference, relative_error

RNG = np.random.default_rng(42)


def check_grad(build, *shapes, step=1e-6, tol=1e-6):
    arrays = [RNG.standard_normal(s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
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
                                lambda a: 2.0 * a, lambda a: -a, lambda a: a ** -0.5])
def test_python_scalar_keeps_a_float32_graph_float32(op):
    a = Tensor(np.full(3, 2.0, np.float32), requires_grad=True)
    out = op(a)
    out.sum().backward()
    assert out.data.dtype == a.grad.dtype == np.float32


def test_matmul_2d():
    check_grad(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))


def test_matmul_batched():
    check_grad(lambda a, b: (a @ b).sum(), (2, 3, 4), (2, 4, 5))


def test_matmul_broadcast_weights():
    check_grad(lambda a, b: (a @ b).sum(), (2, 3, 4), (4, 5))


def test_matmul_vector():
    check_grad(lambda a, b: (a @ b).sum(), (4,), (4, 3))


def test_tanh_exp_power():
    check_grad(lambda a: (ad.tanh(a) + (a * a + 1.0) ** 0.5).sum(), (6,))

def test_sum_axis_keepdims():
    check_grad(lambda a: ((a - a.sum(axis=1, keepdims=True) * 0.25) ** 2).sum(), (3, 4))


def test_mean():
    check_grad(lambda a: (a.mean(axis=0) * a.mean()).sum(), (4, 3))


def test_concat_split():
    check_grad(lambda a, b: (ad.concat([a, b], axis=-1) ** 2).sum(), (2, 3), (2, 2))


def test_reshape_transpose():
    check_grad(lambda a: (a.reshape((2, 6)).transpose((1, 0)) ** 2).sum(), (2, 3, 2))


def test_gather_accumulates_duplicates():
    table = Tensor(np.ones((4, 2)), requires_grad=True)
    idx = np.array([1, 1, 3])
    out = ad.gather(table, idx).sum()
    out.backward()
    expected = np.zeros((4, 2))
    expected[1] = 2.0
    expected[3] = 1.0
    assert np.array_equal(table.grad, expected)


def test_softmax_grad():
    check_grad(lambda a: (ad.softmax(a, axis=-1) * np.arange(4.0)).sum(), (3, 4))


def test_softmax_rows_sum_to_one():
    x = Tensor(RNG.standard_normal((5, 7)))
    y = ad.softmax(x, axis=-1)
    assert np.allclose(y.data.sum(axis=-1), 1.0)


def test_masked_fill_neg_inf_gives_exact_zero_weight():
    x = Tensor(RNG.standard_normal((2, 4)), requires_grad=True)
    mask = np.array([[True, True, False, True], [True, False, False, True]])
    y = ad.softmax(ad.masked_fill(x, mask, -np.inf), axis=-1)
    assert np.all(y.data[~mask] == 0.0)
    (y * RNG.standard_normal((2, 4))).sum().backward()
    assert np.all(x.grad[~mask] == 0.0)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_no_graph_without_requires_grad():
    x = Tensor(np.ones(3))
    y = x * 2.0 + 1.0
    assert y._parents == () and not y.requires_grad


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
    table = Tensor(np.zeros((n_rows,) + row_shape, dtype=table_dtype), requires_grad=True)
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
    table = Tensor(np.zeros((50, 4), dtype=np.float32), requires_grad=True)
    (out,) = ad.gather(table, idx)._backward_fn(g)
    expected = np.zeros_like(table.data)
    np.add.at(expected, idx, g)
    assert out.tobytes() == expected.tobytes()


def test_gather_backward_negative_indices_match_add_at():
    table = Tensor(np.zeros((4, 2), dtype=np.float32), requires_grad=True)
    idx = np.array([3, -1, 0, -4, 3])
    g = RNG.standard_normal((5, 2))
    (out,) = ad.gather(table, idx)._backward_fn(g)
    expected = np.zeros_like(table.data)
    np.add.at(expected, idx, g)
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("op", [lambda x, y: x + y, lambda x, y: x * y,
                                lambda x, y: y + x, lambda x, y: y * x])
def test_constant_operand_gets_no_gradient(op):
    a = RNG.standard_normal((3, 4))
    c = RNG.standard_normal((4,))
    w = RNG.standard_normal((3, 4))
    both = [Tensor(a.copy(), requires_grad=True), Tensor(c.copy(), requires_grad=True)]
    (op(*both) * w).sum().backward()
    x = Tensor(a.copy(), requires_grad=True)
    out = op(x, Tensor(c.copy()))
    grads = out._backward_fn(np.ones_like(out.data))
    assert grads[out._parents.index(x) ^ 1] is None
    (out * w).sum().backward()
    assert x.grad.tobytes() == both[0].grad.tobytes()
