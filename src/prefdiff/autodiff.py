"""Small reverse-mode automatic differentiation engine over numpy arrays.

Every learnable quantity in the model is a :class:`Tensor`. Operations build
a graph only when some input requires a gradient, so forward-only code
(inference, evaluation) pays almost no overhead. The preference encoder and
the denoiser enter a graph as one node each (`_make` with a hand-written
backward, built from `unbroadcast` and `matmul_grads`).
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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    # make numpy defer to our reflected operators instead of broadcasting
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
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
            if node._backward_fn is None or node.grad is None:
                continue
            grads = node._backward_fn(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
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

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


# -- primitive operations ---------------------------------------------------


def add(a, b) -> Tensor:
    a = as_tensor(a)
    if isinstance(b, (int, float)):
        data = a.data + b

        def backward_scalar(g):
            return (g,)

        return _make(data, (a,), backward_scalar)
    b = as_tensor(b)
    data = a.data + b.data

    def backward(g):
        return (unbroadcast(g, a.data.shape) if a.requires_grad else None,
                unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a = as_tensor(a)
    if isinstance(b, (int, float)):
        data = a.data * b

        def backward_scalar(g):
            return (g * b,)

        return _make(data, (a,), backward_scalar)
    b = as_tensor(b)
    data = a.data * b.data

    def backward(g):
        return (unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _make(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """`a @ b` for operands of at least 2-D."""
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        return matmul_grads(g, a.data, b.data)

    return _make(a.data @ b.data, (a, b), backward)


def matmul_grads(g: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The gradients of `a @ b`, both operands at least 2-D, for the
    product's gradient g, each summed to its operand's shape."""
    return (unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape),
            unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape))


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    return _make(data, (a,), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tensors, backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return _make(data, (a,), backward)


def gather(table, indices) -> Tensor:
    """Row lookup `table[indices]` with scatter-add backward (embeddings).

    The backward is one 1-D `np.add.at` over the flattened table, at
    `row * width + column` for every index's row, each in 0..rows-1 (the
    data's index maps make them): each element gets its adds in index
    order, each rounded to the table's dtype, so the result is that of
    `np.add.at(zeros_like(table), indices, g)`. Every graph the package
    builds hands `g` in the table's dtype, which keeps `np.add.at` on its
    fast same-dtype path."""
    table = as_tensor(table)
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

