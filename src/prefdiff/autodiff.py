"""Small reverse-mode automatic differentiation engine over numpy arrays.

A :class:`Tensor` is a parameter or a value computed from parameters, and
every Tensor in a graph gets a gradient. Constants stay numpy arrays or
Python numbers and are never graph nodes. Inference and evaluation run on
plain arrays and build no graph. The preference encoder and the denoiser
enter a graph as one node each (`_make` with a hand-written backward, built
from `unbroadcast` and `matmul_grads`).
"""
from __future__ import annotations

import math

import numpy as np


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # sum away leading axes added by broadcasting
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """An n-d array plus the machinery to backpropagate through it.

    `grad` may be a read-only broadcast view, or an array shared with other
    tensors' gradients: copy it before writing into it (clipping, scaling).
    Backward functions never write into the gradients they receive."""

    __slots__ = ("data", "grad", "_parents", "_backward_fn")

    # make numpy defer to our reflected operators instead of broadcasting
    __array_ufunc__ = None

    def __init__(self, data):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    # -- graph plumbing ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar tensor")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is None:
                continue
            grads = node._backward_fn(node.grad)
            for parent, g in zip(node._parents, grads):
                if parent.grad is None:
                    # kept as it is, view or shared (see the class docstring)
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -other)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None):
        return tsum(self, axis=axis)


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    out._parents = tuple(parents)
    out._backward_fn = backward_fn
    return out


# -- primitive operations ---------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    """`a + b`; b is a Tensor or a constant (an ndarray or a Python number)."""
    if not isinstance(b, Tensor):
        def backward_constant(g):
            return (unbroadcast(g, a.data.shape),)

        return _make(a.data + b, (a,), backward_constant)

    def backward(g):
        return unbroadcast(g, a.data.shape), unbroadcast(g, b.data.shape)

    return _make(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    """`a * b`; b is a Tensor or a constant (an ndarray or a Python number)."""
    if not isinstance(b, Tensor):
        def backward_constant(g):
            return (unbroadcast(g * b, a.data.shape),)

        return _make(a.data * b, (a,), backward_constant)

    def backward(g):
        return unbroadcast(g * b.data, a.data.shape), unbroadcast(g * a.data, b.data.shape)

    return _make(a.data * b.data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """`a @ b` for operands of at least 2-D."""

    def backward(g):
        return matmul_grads(g, a.data, b.data)

    return _make(a.data @ b.data, (a, b), backward)


def matmul_grads(g: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The gradients of `a @ b`, both operands at least 2-D, for the
    product's gradient g, each summed to its operand's shape."""
    return (unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape),
            unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape))


def tsum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    return _make(data, (a,), backward)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tensors, backward)


def gather(table: Tensor, indices) -> Tensor:
    """Row lookup `table[indices]` with scatter-add backward (embeddings).

    The backward is one 1-D `np.add.at` over the flattened table, at
    `row * width + column` for every index's row, each in 0..rows-1 (the
    data's index maps make them): each element gets its adds in index
    order, each rounded to the table's dtype, so the result is that of
    `np.add.at(zeros_like(table), indices, g)`. Every graph the package
    builds hands `g` in the table's dtype, which keeps `np.add.at` on its
    fast same-dtype path."""
    idx = np.asarray(indices)
    data = table.data[idx]

    def backward(g):
        shape = table.data.shape
        width = math.prod(shape[1:])
        flat = idx[..., None] * width + np.arange(width)
        out = np.zeros(shape, table.data.dtype)
        np.add.at(out.reshape(-1), flat.reshape(-1), np.reshape(g, -1))
        return (out,)

    return _make(data, (table,), backward)

