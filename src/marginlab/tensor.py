"""Minimal reverse-mode autodiff on dense float64 numpy arrays.

The graph is recorded implicitly: every operation states its value and one
local-gradient rule per operand, and one node rule (_node) turns them into a
new Tensor that remembers its parents and a closure adding the local
gradients into them; a gradient goes only to operands that require one.  A
single backward() traversal in reverse topological order produces gradients
for every leaf with requires_grad=True.  Tensors are treated as immutable
once created.  The graph is the reference for the plain-numpy kernel in
models; parameters become leaves only through models.with_grad.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    pass


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape` (inverse of numpy bias-style broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Dense float64 array with optional gradient tracking."""

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = tuple(parents)
        self._backward_fn = backward_fn

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph walk ---------------------------------------------------------

    def _topo(self):
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            # reversed() keeps the visit order identical to recursive DFS,
            # so replays are bit-identical
            for p in reversed(node._parents):
                stack.append((p, False))
        return order

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.shape}")
        order = self._topo()
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(value, parents, grads_of):
    """A graph node holding value, computed from parents; grads_of[i] maps
    the output gradient g to the local gradient of parents[i].  It requires a
    gradient iff some parent does, and its backward adds each local gradient,
    summed down to the parent's shape, only into parents that require one."""
    def backward_fn(g):
        for parent, grad_of in zip(parents, grads_of):
            if parent.requires_grad:
                gp = _unbroadcast(grad_of(g), parent.shape)
                parent.grad = gp if parent.grad is None else parent.grad + gp

    return Tensor(value, requires_grad=any(p.requires_grad for p in parents),
                  parents=parents, backward_fn=backward_fn)


def _binary(a, b, fwd, bwd_a, bwd_b):
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data
    return _node(fwd(x, y), (a, b),
                 (lambda g: bwd_a(g, x, y), lambda g: bwd_b(g, x, y)))


def add(a, b):
    return _binary(a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b):
    return _binary(a, b, lambda x, y: x / y,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes {a.shape} x {b.shape} do not conform")
    return _binary(a, b, lambda x, y: x @ y,
                   lambda g, x, y: g @ y.T, lambda g, x, y: x.T @ g)


def affine(x, weight, bias):
    """x[n,d] @ weight[d,k] + bias[k]."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if bias.data.ndim != 1 or bias.data.shape[0] != weight.data.shape[1]:
        raise ShapeError(f"bias shape {bias.shape} does not match weight {weight.shape}")
    return add(matmul(x, weight), bias)


def relu(x):
    x = as_tensor(x)
    mask = x.data > 0.0  # subgradient 0 at the kink
    return _node(np.where(mask, x.data, 0.0), (x,), (lambda g: g * mask,))


def texp(x):
    x = as_tensor(x)
    out_data = np.exp(x.data)
    return _node(out_data, (x,), (lambda g: g * out_data,))


def tlog(x):
    x = as_tensor(x)
    return _node(np.log(x.data), (x,), (lambda g: g / x.data,))


def tsum(x, axis=None):
    x = as_tensor(x)
    return _node(x.data.sum(axis=axis), (x,), (lambda g: np.broadcast_to(
        g if axis is None else np.expand_dims(g, axis), x.shape).copy(),))


def take_per_row(x, indices):
    """Per-row column pick on a 2-D tensor: out[i] = x[i, indices[i]]."""
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.intp)
    rows = np.arange(x.data.shape[0])

    def grad_of(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, idx), g)
        return gx

    return _node(x.data[rows, idx], (x,), (grad_of,))


def reshape(x, shape):
    x = as_tensor(x)
    return _node(x.data.reshape(shape), (x,), (lambda g: g.reshape(x.shape),))


def logsumexp(x, axis):
    """Stabilized log-sum-exp along an axis; the max shift is a constant."""
    x = as_tensor(x)
    shift = np.max(x.data, axis=axis, keepdims=True)
    shifted = sub(x, Tensor(shift))
    lse = tlog(tsum(texp(shifted), axis=axis))
    return add(lse, Tensor(np.squeeze(shift, axis=axis)))
